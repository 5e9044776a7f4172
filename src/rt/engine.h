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
// Layout (§16 of DESIGN.md). The binary min-heap holds 24-byte keys
// {time, id, slot}; the handlers themselves live in a slab indexed by
// `slot` and recycled through a free list. Every sift therefore moves
// three words instead of a whole std::function; a handler is moved into
// its slot at schedule time and out of it at pop, never copied. Slots are
// recycled, ids are not: cancellation is keyed by id, so a stale cancel
// can never reach the event that reuses a slot.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/require.h"

namespace acr::rt {

class Engine {
 public:
  using Handler = std::function<void()>;
  using EventId = std::uint64_t;

  /// cancel() sweeps the tracked-cancellation set once it exceeds
  /// kCancelPruneMinBacklog ids AND kCancelPruneSlackFactor times the
  /// pending-event count — below that, the set is provably bounded by the
  /// ids a prune could not discard anyway.
  static constexpr std::size_t kCancelPruneMinBacklog = 64;
  static constexpr std::size_t kCancelPruneSlackFactor = 2;

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

  /// Cancel a pending event. Cancelling an already-fired or unknown id is a
  /// no-op (timers race with the events that obsolete them).
  void cancel(EventId id);

  /// Execute the next event. Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains.
  void run();

  /// Run events with time <= t, then set now() = t. Returns events fired.
  std::size_t run_until(double t);

  std::size_t events_processed() const { return processed_; }
  std::size_t pending() const { return heap_.size(); }
  /// Cancelled ids still being tracked (bounded; see prune_cancelled).
  std::size_t cancelled_backlog() const { return cancelled_.size(); }

 private:
  struct Key {
    double time;
    EventId id;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;  // FIFO among ties
    }
  };

  /// Pop the earliest key and MOVE its handler out of the slab, freeing
  /// the slot. Handlers — and any checkpoint Buffers their closures hold —
  /// are never copied on the hot dispatch path; a cancelled event's
  /// closure is released as soon as the caller drops the result.
  Handler pop_event(Key* key);

  /// Drop tracked cancellations that no pending event matches: their event
  /// already fired (or never existed), so they can never be observed again.
  /// Keeps cancelled_ bounded by the pending-event count even when callers
  /// cancel() already-fired timer ids forever. O(pending), reserve-exact.
  void prune_cancelled();

  std::vector<Key> heap_;  // binary min-heap (std::push_heap with Later)
  std::vector<Handler> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_set<EventId> cancelled_;
  double now_ = 0.0;
  EventId next_id_ = 1;
  std::size_t processed_ = 0;
};

}  // namespace acr::rt
