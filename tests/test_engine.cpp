// Virtual-time event engine tests: (time, id) firing order, cancellation,
// run_until boundaries, and the keyed heap's handler slab. The randomized
// suite at the end pins the engine against a plain ordered-set reference.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "buf/buffer.h"
#include "common/rng.h"
#include "common/small_function.h"
#include "rt/engine.h"

namespace acr::rt {
namespace {

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, TiesBreakFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// Deflake guard for the reliable transport: retransmit timers for frames
// sent in the same event all land on identical deadlines. The engine's
// tie-break (strictly increasing EventId, FIFO among equal times) must hold
// through cancel/re-arm churn, or the retransmit order — and with it every
// downstream event in a fuzz run — would depend on container luck.
TEST(Engine, EqualDeadlineTimersSurviveCancelRearmChurn) {
  Engine e;
  std::vector<int> order;
  std::vector<Engine::EventId> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(e.schedule_at(1.0, [&order, i] { order.push_back(i); }));
  // Cancel the even timers and re-arm them at the SAME deadline: they must
  // now fire after every surviving odd timer, in re-arm order.
  for (int i = 0; i < 8; i += 2) {
    e.cancel(ids[static_cast<std::size_t>(i)]);
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7, 0, 2, 4, 6}));
}

TEST(Engine, EventIdsStrictlyIncreaseAcrossCancellations) {
  Engine e;
  Engine::EventId prev = 0;
  for (int i = 0; i < 20; ++i) {
    Engine::EventId id = e.schedule_at(1.0, [] {});
    EXPECT_GT(id, prev);
    prev = id;
    if (i % 3 == 0) e.cancel(id);  // cancellation must not recycle ids
  }
  e.run();
}

TEST(Engine, HandlersCanScheduleMore) {
  Engine e;
  int fired = 0;
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < 5) e.schedule_after(1.0, chain);
  };
  e.schedule_after(1.0, chain);
  e.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(Engine, CancelSuppressesEvent) {
  Engine e;
  bool fired = false;
  auto id = e.schedule_at(1.0, [&] { fired = true; });
  e.cancel(id);
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelUnknownIdIsNoop) {
  Engine e;
  e.cancel(424242);
  bool fired = false;
  e.schedule_at(1.0, [&] { fired = true; });
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine e;
  std::vector<double> fired;
  for (double t : {0.5, 1.5, 2.5}) e.schedule_at(t, [&fired, t] { fired.push_back(t); });
  std::size_t n = e.run_until(2.0);
  EXPECT_EQ(n, 2u);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, RunUntilSkipsCancelledWithoutOvershooting) {
  Engine e;
  bool late_fired = false;
  auto early = e.schedule_at(1.0, [] {});
  e.schedule_at(5.0, [&] { late_fired = true; });
  e.cancel(early);
  e.run_until(2.0);
  EXPECT_FALSE(late_fired);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, RejectsSchedulingInThePast) {
  Engine e;
  e.schedule_at(2.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(1.0, [] {}), RequireError);
}

TEST(Engine, DispatchNeverCopiesHandlers) {
  // Handlers close over checkpoint Buffers and other heavyweight state;
  // the heap must move them through scheduling and dispatch, not copy.
  struct CopyProbe {
    int* copies;
    explicit CopyProbe(int* c) : copies(c) {}
    CopyProbe(const CopyProbe& o) : copies(o.copies) { ++*copies; }
    CopyProbe(CopyProbe&& o) noexcept : copies(o.copies) {}
  };
  Engine e;
  int copies = 0;
  int fired = 0;
  for (double t : {3.0, 1.0, 2.0, 1.5})
    e.schedule_at(t, [p = CopyProbe(&copies), &fired] {
      (void)p;
      ++fired;
    });
  int copies_after_scheduling = copies;
  e.run();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(copies, copies_after_scheduling);  // zero copies during dispatch
}

TEST(Engine, MoveOnlyClosuresRunInline) {
  // A std::function could not hold these at all: the captured unique_ptr
  // makes the closure move-only. 16 bytes fit the slot's inline storage.
  Engine e;
  int sum = 0;
  auto make = [&sum](int v) {
    return [p = std::make_unique<int>(v), &sum] { sum += *p; };
  };
  static_assert(SmallFunction::stores_inline<decltype(make(0))>());
  e.schedule_at(2.0, make(20));
  e.schedule_at(1.0, make(1));
  e.run();
  EXPECT_EQ(sum, 21);
}

TEST(Engine, OversizedClosuresFallBackToTheHeap) {
  // 64 captured bytes exceed the inline storage: the closure lives on the
  // heap behind a pointer, fires with its captures intact, and is
  // destroyed exactly once whether it fired or was cancelled.
  struct Big {
    std::array<std::uint64_t, 8> words{};
    std::shared_ptr<int> alive;
    void operator()() const {
      std::uint64_t s = 0;
      for (std::uint64_t w : words) s += w;
      *alive += static_cast<int>(s);
    }
  };
  static_assert(!SmallFunction::stores_inline<Big>());
  auto total = std::make_shared<int>(0);
  Engine e;
  Big fires;
  fires.words.fill(2);
  fires.alive = total;
  Big dropped = fires;
  e.schedule_at(1.0, std::move(fires));
  Engine::EventId id = e.schedule_at(2.0, std::move(dropped));
  EXPECT_EQ(total.use_count(), 3);
  e.cancel(id);
  e.run();
  EXPECT_EQ(*total, 16);
  EXPECT_EQ(total.use_count(), 1);  // both heap closures destroyed
}

TEST(Engine, PoppedAndCancelledClosuresReleaseTheirBuffers) {
  // A closure that captures a checkpoint Buffer holds a share of it until
  // its event is dispatched or its cancelled key leaves the heap. The
  // Buffer (32 bytes) rides on the heap; a shared_ptr (16 bytes) inline.
  buf::Buffer image = buf::Buffer::copy_of(std::as_bytes(std::span("abcd")));
  auto token = std::make_shared<int>(7);
  Engine e;
  std::size_t seen = 0;
  e.schedule_at(1.0, [image, &seen] { seen = image.size(); });
  Engine::EventId heap_id = e.schedule_at(2.0, [image] { (void)image; });
  Engine::EventId inline_id = e.schedule_at(2.0, [token] { (void)token; });
  EXPECT_EQ(image.owners(), 3);
  EXPECT_EQ(token.use_count(), 2);
  e.cancel(heap_id);
  e.cancel(inline_id);
  EXPECT_EQ(image.owners(), 3);  // tombstones still hold their closures
  ASSERT_TRUE(e.step());
  EXPECT_EQ(seen, 5u);
  EXPECT_EQ(image.owners(), 2);  // the fired closure is gone
  EXPECT_FALSE(e.step());        // pops both tombstones
  EXPECT_EQ(image.owners(), 1);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Engine, RejectsNonFiniteTimes) {
  // A NaN deadline is unordered against everything: heap sifts disagree
  // about where it belongs and the queue silently corrupts. Must throw.
  Engine e;
  double nan = std::numeric_limits<double>::quiet_NaN();
  double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(e.schedule_at(nan, [] {}), RequireError);
  EXPECT_THROW(e.schedule_at(inf, [] {}), RequireError);
  EXPECT_THROW(e.schedule_at(-inf, [] {}), RequireError);
  EXPECT_THROW(e.schedule_after(nan, [] {}), RequireError);
  EXPECT_THROW(e.schedule_after(inf, [] {}), RequireError);
  EXPECT_THROW(e.schedule_after(-1.0, [] {}), RequireError);
  // The queue is still intact after the rejections.
  bool fired = false;
  e.schedule_at(1.0, [&] { fired = true; });
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, RunUntilCancelledEventExactlyAtBoundary) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  auto at_boundary = e.schedule_at(2.0, [&] { ++fired; });
  e.schedule_at(2.0, [&] { ++fired; });  // survivor at the same instant
  e.schedule_at(3.0, [&] { ++fired; });
  e.cancel(at_boundary);
  EXPECT_EQ(e.run_until(2.0), 2u);  // boundary-cancelled event not counted
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, RunUntilEmptyQueueFastPath) {
  Engine e;
  EXPECT_EQ(e.run_until(7.0), 0u);
  EXPECT_DOUBLE_EQ(e.now(), 7.0);
  EXPECT_EQ(e.events_processed(), 0u);
  // And again from a non-zero clock with nothing scheduled since.
  EXPECT_EQ(e.run_until(9.0), 0u);
  EXPECT_DOUBLE_EQ(e.now(), 9.0);
}

TEST(Engine, CancelBacklogStaysBoundedForFiredIds) {
  // Watchdogs cancel() timer ids that often fired long ago. Cancelling a
  // fired id must leave no trace at all.
  Engine e;
  std::vector<Engine::EventId> ids;
  for (int i = 0; i < 500; ++i)
    ids.push_back(e.schedule_at(static_cast<double>(i), [] {}));
  e.run();  // everything fires; all these ids are now stale
  for (Engine::EventId id : ids) e.cancel(id);
  EXPECT_EQ(e.cancelled_backlog(), 0u);

  // Cancellation of genuinely pending events still works after the churn.
  bool fired = false;
  auto pending = e.schedule_after(1.0, [&] { fired = true; });
  for (Engine::EventId id : ids) e.cancel(id);  // more stale churn
  e.cancel(pending);
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFireHammerHoldsTheDocumentedBound) {
  // Adversarial interleaving: keep a live pending population while
  // relentlessly cancelling ids that already fired. The backlog counts
  // only cancelled keys still in the heap, so it never exceeds pending().
  Engine e;
  std::vector<Engine::EventId> fired_ids;
  std::vector<Engine::EventId> live_ids;
  double t = 0.0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 25; ++i)
      fired_ids.push_back(e.schedule_at(t + 0.1 + i * 0.01, [] {}));
    // A standing population of far-future events keeps pending() > 0 so
    // prunes cannot rely on the empty-queue degenerate case.
    for (int i = 0; i < 5; ++i)
      live_ids.push_back(e.schedule_at(t + 1000.0, [] {}));
    t += 1.0;
    e.run_until(t);  // the 25 near events fire; the far ones stay pending
    for (Engine::EventId id : fired_ids) e.cancel(id);  // all stale now
    EXPECT_LE(e.cancelled_backlog(), e.pending()) << "round " << round;
  }
  // The far-future population was never cancelled: it must all still fire.
  std::size_t before = e.events_processed();
  e.run();
  EXPECT_EQ(e.events_processed() - before, live_ids.size());
}

TEST(Engine, CancelBacklogCountsTombstonesExactly) {
  // A cancelled pending event is one tombstone until its key reaches the
  // heap front; cancelling it again, or cancelling a never-issued id, adds
  // nothing.
  Engine e;
  int fired = 0;
  Engine::EventId a = e.schedule_at(1.0, [&] { ++fired; });
  Engine::EventId b = e.schedule_at(2.0, [&] { ++fired; });
  e.schedule_at(3.0, [&] { ++fired; });
  e.cancel(b);
  e.cancel(b);
  e.cancel(b + (Engine::EventId{1} << Engine::kSlotBits));  // not issued
  e.cancel(0);
  EXPECT_EQ(e.cancelled_backlog(), 1u);
  EXPECT_EQ(e.pending(), 3u);
  e.cancel(a);
  EXPECT_EQ(e.cancelled_backlog(), 2u);
  EXPECT_EQ(e.run_until(2.5), 0u);  // both tombstones popped, none fired
  EXPECT_EQ(e.cancelled_backlog(), 0u);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, CancelOfFiredIdDoesNotHitReusedSlot) {
  // A fired event's slab slot is recycled by the next schedule. Cancelling
  // the fired id afterwards must not suppress the event now in that slot:
  // cancellation is keyed by EventId, which is never recycled.
  Engine e;
  int first = 0;
  int second = 0;
  Engine::EventId fired_id = e.schedule_at(1.0, [&] { ++first; });
  e.run();
  ASSERT_EQ(first, 1);
  Engine::EventId reuse_id = e.schedule_at(2.0, [&] { ++second; });
  EXPECT_NE(reuse_id, fired_id);
  e.cancel(fired_id);
  e.run();
  EXPECT_EQ(second, 1);
  EXPECT_EQ(e.events_processed(), 2u);
}

// ---------------------------------------------------------------------------
// Randomized order pin against a reference queue.
// ---------------------------------------------------------------------------

/// The engine's contract in its plainest form: pending events ordered by
/// (time, id) in a std::set, handlers in a map, cancel = erase.
class ReferenceEngine {
 public:
  using EventId = std::uint64_t;

  double now() const { return now_; }
  EventId schedule_at(double time, std::function<void()> fn) {
    EventId id = next_id_++;
    order_.emplace(time, id);
    handlers_.emplace(id, std::make_pair(time, std::move(fn)));
    return id;
  }
  EventId schedule_after(double delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }
  void cancel(EventId id) {
    auto it = handlers_.find(id);
    if (it == handlers_.end()) return;  // fired, cancelled, or unknown
    order_.erase({it->second.first, id});
    handlers_.erase(it);
  }
  void run() {
    while (!order_.empty()) {
      auto [time, id] = *order_.begin();
      order_.erase(order_.begin());
      auto fn = std::move(handlers_.extract(id).mapped().second);
      now_ = time;
      fn();
    }
  }
  std::size_t pending() const { return order_.size(); }

 private:
  std::set<std::pair<double, EventId>> order_;
  std::map<EventId, std::pair<double, std::function<void()>>> handlers_;
  double now_ = 0.0;
  EventId next_id_ = 1;
};

struct Firing {
  double time;
  std::uint64_t tag;
  bool operator==(const Firing& o) const {
    return time == o.time && tag == o.tag;
  }
};

/// Run a randomized self-scheduling workload and record the firing order.
/// Handlers schedule short and long follow-ups (including equal-deadline
/// ties) and cancel random earlier ids — pending, already fired, or
/// already cancelled — so the keyed heap's slot recycling and the cancel
/// set's pruning are both exercised against the reference.
template <typename Queue>
std::vector<Firing> run_schedule(std::uint64_t seed) {
  constexpr double kStep = 1e-5;
  Queue engine;
  Pcg32 rng(seed, 17);
  std::vector<Firing> fired;
  std::vector<std::uint64_t> ids;
  int budget = 400;  // follow-up budget so the run always drains

  // Tags label firings so the two orders can be compared element-wise;
  // deep follow-up chains wrap, which is fine — the wrapped values are
  // identical across runs.
  std::function<void(std::uint64_t)> handler = [&](std::uint64_t tag) {
    fired.push_back({engine.now(), tag});
    std::uint32_t roll = rng.bounded(10);
    if (roll < 4 && budget > 0) {
      --budget;
      double delay = roll < 2 ? kStep * 0.25 * rng.next() * 0x1p-32
                              : kStep * (1.0 + rng.bounded(8));
      std::uint64_t t = tag * 10 + 1;
      ids.push_back(engine.schedule_after(delay, [&handler, t] { handler(t); }));
    } else if (roll == 7 && !ids.empty()) {
      engine.cancel(ids[rng.bounded(static_cast<std::uint32_t>(ids.size()))]);
    }
  };

  int initial = 40 + static_cast<int>(rng.bounded(40));
  for (int i = 0; i < initial; ++i) {
    double t = (1.0 + rng.bounded(1000)) * kStep * 0.13;
    ids.push_back(engine.schedule_at(t, [&handler, i] { handler(i); }));
  }
  engine.run();
  EXPECT_EQ(engine.pending(), 0u);
  return fired;
}

TEST(Engine, FiringOrderMatchesReferenceAcrossRandomizedSchedules) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    std::vector<Firing> want = run_schedule<ReferenceEngine>(seed);
    std::vector<Firing> got = run_schedule<Engine>(seed);
    ASSERT_EQ(want.size(), got.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_TRUE(want[i] == got[i])
          << "seed " << seed << " event " << i << ": reference ("
          << want[i].time << ", " << want[i].tag << ") vs engine ("
          << got[i].time << ", " << got[i].tag << ")";
  }
}

}  // namespace
}  // namespace acr::rt
