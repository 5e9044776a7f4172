#include "apps/iterative.h"

#include <algorithm>
#include <tuple>

namespace acr::apps {

void IterativeTask::on_start() {
  if (!initialized_) {
    init();
    initialized_ = true;
  }
  begin_phase();
}

void IterativeTask::on_resume() {
  if (iter_ >= total_iters_) {
    ctx->notify_done();
    return;
  }
  begin_phase();
}

void IterativeTask::begin_phase() {
  if (iter_ >= total_iters_) {
    ctx->notify_done();
    return;
  }
  std::uint64_t iter = iter_ + 1;
  // Resend protection: a pause/unpause cycle must not duplicate sends, but
  // a rollback (which rewinds sent_iter_/sent_phase_ via pup) must resend.
  bool already_sent =
      sent_iter_ > iter ||
      (sent_iter_ == iter && sent_phase_ >= phase_);
  if (!already_sent) {
    sent_iter_ = iter;
    sent_phase_ = phase_;
    send_phase(iter, phase_);
  }
  try_compute();
}

namespace {

/// compute_phase's span of inputs. One per thread, reused by every task;
/// compute_phase runs to completion before the next task needs it.
std::vector<PhaseInput>& compute_inputs() {
  thread_local std::vector<PhaseInput> inputs;
  return inputs;
}

}  // namespace

void IterativeTask::on_message(const rt::Message& m) {
  // Read the PhaseMsg stream in place, copying only the doubles out: the
  // payload shares an arena with many other messages, and a buffered
  // arrival can wait a long time (a paused task, a duplicate for a phase
  // already computed), which would pin the whole arena.
  pup::Unpacker u(m.payload.bytes());
  Arrival a;
  u | a.iter;
  u | a.phase;
  u | a.sender;
  std::uint64_t n = 0;
  u.size_value(n);
  std::span<const std::byte> doubles;
  if (n > 0) doubles = u.view_array<double>(static_cast<std::size_t>(n));
  ACR_REQUIRE(u.exhausted(), "payload has trailing bytes");
  // Stale data for an already-completed iteration (duplicates after a
  // rollback in the *other* direction) is dropped; identical duplicates for
  // a pending phase overwrite idempotently.
  if (a.iter <= iter_) return;
  a.data.resize(static_cast<std::size_t>(n));
  if (n > 0) std::memcpy(a.data.data(), doubles.data(), doubles.size());
  store(std::move(a));
  try_compute();
}

void IterativeTask::store(Arrival a) {
  if (inbox_.capacity() == 0)
    inbox_.reserve(static_cast<std::size_t>(
        std::max(1, expected_in_phase(a.iter, a.phase))));
  auto at = std::partition_point(
      inbox_.begin(), inbox_.end(), [&a](const Arrival& x) {
        return std::tie(x.iter, x.phase, x.sender) <
               std::tie(a.iter, a.phase, a.sender);
      });
  if (at != inbox_.end() && at->iter == a.iter && at->phase == a.phase &&
      at->sender == a.sender) {
    at->data = std::move(a.data);
    return;
  }
  inbox_.insert(at, std::move(a));
}

void IterativeTask::try_compute() {
  if (computing_ || ctx->paused()) return;
  if (iter_ >= total_iters_) return;
  std::uint64_t iter = iter_ + 1;
  int expected = expected_in_phase(iter, phase_);
  // The (iter, phase) run, one slot per sender.
  auto lo = std::partition_point(
      inbox_.begin(), inbox_.end(), [&](const Arrival& a) {
        return std::tie(a.iter, a.phase) < std::tie(iter, phase_);
      });
  auto hi = std::partition_point(lo, inbox_.end(), [&](const Arrival& a) {
    return a.iter == iter && a.phase == phase_;
  });
  if (hi - lo < expected) return;

  std::vector<PhaseInput>& inputs = compute_inputs();
  inputs.clear();
  for (auto it = lo; it != hi; ++it)
    inputs.push_back(PhaseInput{it->sender, it->data});
  computing_ = true;
  double cost = compute_phase(iter, phase_, inputs);
  inbox_.erase(lo, hi);
  // An empty inbox gives its storage back: thousands of idle tasks holding
  // a phase's worth of slots each would cost more memory than the one
  // allocation per phase that refills it.
  if (inbox_.empty()) inbox_ = std::vector<Arrival>();
  ctx->after_compute(cost, [this]() { finish_phase(); });
}

void IterativeTask::finish_phase() {
  computing_ = false;
  ++phase_;
  if (phase_ < num_phases()) {
    begin_phase();
    return;
  }
  // Iteration complete.
  phase_ = 0;
  ++iter_;
  rt::ProgressDecision d = ctx->report_progress(iter_);
  if (iter_ >= total_iters_) {
    ctx->notify_done();
    return;
  }
  if (d == rt::ProgressDecision::Pause) return;
  begin_phase();
}

void IterativeTask::pup(pup::Puper& p) {
  p | total_iters_;
  p | iter_;
  p | phase_;
  p | sent_iter_;
  p | sent_phase_;
  p | initialized_;
  pup_inbox(p);
  pup_state(p);
  // A restore can land while this object was mid-compute (the node was
  // running when the rollback arrived); the stale transient would wedge
  // try_compute forever. Checkpoints are only cut at iteration boundaries,
  // where computing_ is false by construction.
  if (p.is_unpacking()) computing_ = false;
}

void IterativeTask::pup_inbox(pup::Puper& p) {
  // The stream of the nested map this buffer used to be: the run count,
  // then per (iter, phase) run the key, the slot count and each slot's
  // (sender, vector<double>).
  if (p.is_unpacking()) {
    inbox_.clear();
    std::uint64_t runs = 0;
    p.size_value(runs);
    for (std::uint64_t r = 0; r < runs; ++r) {
      std::pair<std::uint64_t, std::int32_t> key;
      p | key;
      std::uint64_t slots = 0;
      p.size_value(slots);
      for (std::uint64_t i = 0; i < slots; ++i) {
        Arrival a{key.first, key.second, 0, {}};
        p | a.sender;
        p | a.data;
        store(std::move(a));
      }
    }
    return;
  }
  auto run_end = [this](std::size_t i) {
    std::size_t j = i;
    while (j < inbox_.size() && inbox_[j].iter == inbox_[i].iter &&
           inbox_[j].phase == inbox_[i].phase)
      ++j;
    return j;
  };
  std::uint64_t runs = 0;
  for (std::size_t i = 0; i < inbox_.size(); i = run_end(i)) ++runs;
  p.size_value(runs);
  for (std::size_t i = 0; i < inbox_.size();) {
    std::size_t end = run_end(i);
    std::pair<std::uint64_t, std::int32_t> key{inbox_[i].iter,
                                               inbox_[i].phase};
    p | key;
    std::uint64_t slots = end - i;
    p.size_value(slots);
    for (; i < end; ++i) {
      p | inbox_[i].sender;
      p | inbox_[i].data;
    }
  }
}

std::span<std::byte> IterativeTask::begin_phase_msg(std::uint64_t iter,
                                                    int phase, int sender_key,
                                                    std::size_t count) {
  // Exactly the stream pack_payload(PhaseMsg) writes, sized once.
  static const std::size_t kEmptyMsgBytes = [] {
    PhaseMsg empty;
    return pup::checkpoint_size(empty);
  }();
  std::size_t bytes = kEmptyMsgBytes;
  if (count > 0) bytes += pup::kRecordHeaderBytes + count * sizeof(double);
  buf::BufferBuilder& builder = rt::app_payload_builder();
  builder.reserve(bytes);
  pup::Packer p(builder);
  std::int32_t phase32 = phase;
  std::int32_t sender32 = sender_key;
  std::uint64_t n = count;
  p | iter;
  p | phase32;
  p | sender32;
  p.size_value(n);
  if (count == 0) return {};
  return p.place_array<double>(count);
}

void IterativeTask::finish_phase_msg(rt::TaskAddr dst) {
  ctx->send(dst, /*tag=*/1, rt::app_payload_builder().take());
}

void IterativeTask::send_phase_msg(rt::TaskAddr dst, std::uint64_t iter,
                                   int phase, int sender_key,
                                   std::span<const double> data) {
  std::span<std::byte> out = begin_phase_msg(iter, phase, sender_key, data.size());
  if (!data.empty()) std::memcpy(out.data(), data.data(), data.size_bytes());
  finish_phase_msg(dst);
}

}  // namespace acr::apps
