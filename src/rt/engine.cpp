#include "rt/engine.h"

#include <algorithm>
#include <cmath>

namespace acr::rt {

Engine::EventId Engine::schedule_at(double time, Handler fn) {
  // A NaN deadline would silently corrupt every heap comparison below it
  // (NaN is unordered, so sift paths disagree); infinities are equally
  // meaningless as virtual times. Reject both loudly.
  ACR_REQUIRE(std::isfinite(time), "event time must be finite");
  ACR_REQUIRE(time >= now_, "cannot schedule in the past");
  ACR_REQUIRE(next_seq_ < kMaxSeq, "event id space exhausted");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    ACR_REQUIRE(slots_.size() < kMaxSlots, "too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  EventId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].id = id;
  slots_[slot].fn = std::move(fn);
  heap_.push_back(Key{time, id});
  sift_up(heap_.size() - 1);
  return id;
}

void Engine::sift_up(std::size_t i) {
  Key k = heap_[i];
  while (i > 0) {
    std::size_t parent = (i - 1) / kArity;
    if (!earlier(k, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

void Engine::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  Key k = heap_[i];
  for (;;) {
    std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c)
      if (earlier(heap_[c], heap_[best])) best = c;
    if (!earlier(heap_[best], k)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = k;
}

Engine::Handler Engine::pop_event(Key* key, bool* live) {
  *key = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  std::uint32_t slot = slot_of(key->id);
  Slot& s = slots_[slot];
  *live = s.id == key->id;
  if (!*live) --tombstones_;
  s.id = 0;
  Handler fn = std::move(s.fn);
  free_slots_.push_back(slot);
  return fn;
}

void Engine::cancel(EventId id) {
  if (id == 0) return;  // a free slot's id: never issued
  std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size() || slots_[slot].id != id) return;
  slots_[slot].id = 0;
  ++tombstones_;
}

bool Engine::step() {
  while (!heap_.empty()) {
    Key key{};
    bool live = false;
    Handler fn = pop_event(&key, &live);
    if (!live) continue;
    now_ = key.time;
    ++processed_;
    fn();
    return true;
  }
  return false;
}

void Engine::run() {
  while (step()) {
  }
}

std::size_t Engine::run_until(double t) {
  ACR_REQUIRE(t >= now_, "cannot run backwards");
  std::size_t fired = 0;
  while (!heap_.empty()) {
    // Drop cancelled events first so the heap front is a live event and
    // step() cannot skip past `t` to a later one.
    if (front_cancelled()) {
      Key key{};
      bool live = false;
      pop_event(&key, &live);
      continue;
    }
    if (heap_.front().time > t) break;
    if (step()) ++fired;
  }
  now_ = t;
  return fired;
}

}  // namespace acr::rt
