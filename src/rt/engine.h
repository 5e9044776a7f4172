// Deterministic virtual-time event engine: one keyed heap.
//
// The tasklet runtime executes *real* application code (real arrays, real
// serialization, real bit flips) but advances a virtual clock through
// discrete events, so a "30-minute, 512-core" experiment (Fig. 12) runs in
// seconds of wall time and is bit-for-bit reproducible. Ties in event time
// are broken by insertion order: EventIds increase strictly and are never
// recycled (cancellation included), so equal-deadline events — notably the
// reliable transport's retransmit timers, which all land on identical
// deadlines when several frames are sent from one event — fire in the exact
// order they were scheduled, on every platform, on every run.
//
// Layout (§16 of DESIGN.md). A 4-ary min-heap holds 16-byte keys
// {time, id}; the handlers themselves live in a slab recycled through a
// free list, and the low 24 bits of an id name its slot. Every sift
// therefore moves two words instead of a closure, and the 4-ary shape
// halves the heap's depth (four children share a cache line). A handler is
// a SmallFunction: closures up to 24 bytes live in the slot itself, larger
// ones cost one allocation. It is moved into its slot at schedule time and
// out of it at pop, never copied. Cancellation is a tombstone: each slot
// records the id it currently holds, cancel() clears it in O(1) when it
// matches, and pop drops a key whose slot no longer carries its id. Slots
// are recycled, ids are not, so a stale cancel can never reach the event
// that reuses a slot.
#pragma once

#include <cstdint>
#include <vector>

#include "common/require.h"
#include "common/small_function.h"

namespace acr::rt {

class Engine {
 public:
  using Handler = SmallFunction;
  /// (seq << kSlotBits) | slot, seq = 1, 2, ...: strictly increasing,
  /// never recycled, and never 0.
  using EventId = std::uint64_t;

  static constexpr int kSlotBits = 24;

  Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  double now() const { return now_; }

  /// Schedule `fn` at absolute virtual time `time` (>= now, finite).
  EventId schedule_at(double time, Handler fn);

  /// Schedule `fn` after a non-negative delay.
  EventId schedule_after(double delay, Handler fn) {
    ACR_REQUIRE(delay >= 0.0, "negative delay");
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancel a pending event in O(1). Cancelling an already-fired, already
  /// cancelled or unknown id is a no-op (timers race with the events that
  /// obsolete them). The closure is released when its key reaches the
  /// heap front.
  void cancel(EventId id);

  /// Execute the next event. Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains.
  void run();

  /// Run events with time <= t, then set now() = t. Returns events fired.
  std::size_t run_until(double t);

  std::size_t events_processed() const { return processed_; }
  /// Keys in the heap, cancelled ones included.
  std::size_t pending() const { return heap_.size(); }
  /// Cancelled keys still in the heap (always <= pending()).
  std::size_t cancelled_backlog() const { return tombstones_; }

 private:
  /// Limits of the id fields: pending events, and events per engine.
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1}
                                           << (64 - kSlotBits);

  struct Key {
    double time;
    EventId id;
  };
  struct Slot {
    EventId id = 0;  ///< id of the live event held here; 0 = free/cancelled
    Handler fn;
  };
  static constexpr std::size_t kArity = 4;

  /// Heap order: time first, then id (FIFO among ties).
  static bool earlier(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.id < b.id;
  }

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & (kMaxSlots - 1));
  }

  /// True when the heap front was cancelled.
  bool front_cancelled() const {
    return slots_[slot_of(heap_.front().id)].id != heap_.front().id;
  }

  /// Pop the earliest key and MOVE its handler out of the slab, freeing
  /// the slot. Handlers — and any checkpoint Buffers their closures hold —
  /// are never copied on the hot dispatch path; a cancelled event's
  /// closure is released as soon as the caller drops the result. Sets
  /// `*live` to false (and retires the tombstone) for a cancelled key.
  Handler pop_event(Key* key, bool* live);

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Key> heap_;  // 4-ary min-heap in earlier() order
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::size_t tombstones_ = 0;
  std::size_t processed_ = 0;
};

}  // namespace acr::rt
