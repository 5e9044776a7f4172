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
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  EventId id = next_id_++;
  heap_.push_back(Key{time, id, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

Engine::Handler Engine::pop_event(Key* key) {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  *key = heap_.back();
  heap_.pop_back();
  Handler fn = std::move(slots_[key->slot]);
  free_slots_.push_back(key->slot);
  return fn;
}

void Engine::cancel(EventId id) {
  if (id == 0 || id >= next_id_) return;  // never issued
  cancelled_.insert(id);
  // Ids of already-fired events accumulate here (watchdogs cancel stale
  // timers long after they fired). Sweep once the backlog clearly exceeds
  // what the pending set could account for.
  if (cancelled_.size() > kCancelPruneMinBacklog &&
      cancelled_.size() > kCancelPruneSlackFactor * pending())
    prune_cancelled();
}

void Engine::prune_cancelled() {
  std::unordered_set<EventId> live;
  // Reserve-exact: a survivor must be both tracked and pending, so the
  // smaller of the two counts bounds the result (cancelled_.size() alone
  // over-reserved by the whole fired-id backlog being pruned away).
  live.reserve(std::min(cancelled_.size(), pending()));
  for (const Key& k : heap_)
    if (cancelled_.count(k.id) > 0) live.insert(k.id);
  cancelled_ = std::move(live);
}

bool Engine::step() {
  while (!heap_.empty()) {
    Key key{};
    Handler fn = pop_event(&key);
    auto it = cancelled_.find(key.id);
    if (it != cancelled_.end()) {
      cancelled_.erase(it);
      continue;
    }
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
    auto it = cancelled_.find(heap_.front().id);
    if (it != cancelled_.end()) {
      cancelled_.erase(it);
      Key key{};
      pop_event(&key);
      continue;
    }
    if (heap_.front().time > t) break;
    if (step()) ++fired;
  }
  now_ = t;
  return fired;
}

}  // namespace acr::rt
