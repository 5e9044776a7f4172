// Base class for bulk-synchronous iterative mini-app tasks.
//
// Encapsulates the interaction contract with ACR's coordinated
// checkpointing (rt/task.h): per-iteration progress reports, pausing at the
// consensus iteration, early-arrival buffering that is part of the
// checkpoint, idempotent handling of duplicate messages after rollbacks,
// and exact re-entry via on_resume().
//
// An iteration consists of `num_phases()` sub-phases (e.g. HPCCG: halo
// exchange + matvec, then the butterfly allreduce stages of the dot
// products). In each phase the task sends messages, waits for the expected
// incoming set, computes, and moves on; completing the last phase completes
// the iteration.
#pragma once

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/require.h"
#include "rt/task.h"

namespace acr::apps {

/// Payload of every app message. IterativeTask writes and reads this
/// stream in place (send_phase_msg, on_message); pack_payload(PhaseMsg)
/// produces the same bytes.
struct PhaseMsg {
  std::uint64_t iter = 0;   ///< iteration the data belongs to (1-based)
  std::int32_t phase = 0;   ///< sub-phase within the iteration
  std::int32_t sender = 0;  ///< app-defined sender key (unique per phase)
  std::vector<double> data;

  void pup(pup::Puper& p) {
    p | iter;
    p | phase;
    p | sender;
    p | data;
  }
};

/// One received message of a phase, as compute_phase sees it.
struct PhaseInput {
  std::int32_t sender = 0;
  std::span<const double> data;
};

class IterativeTask : public rt::Task {
 public:
  explicit IterativeTask(std::uint64_t total_iterations)
      : total_iters_(total_iterations) {}

  // --- rt::Task ---------------------------------------------------------------
  void on_start() final;
  void on_resume() final;
  void on_message(const rt::Message& m) final;
  void pup(pup::Puper& p) final;
  std::uint64_t progress() const final { return iter_; }

  std::uint64_t total_iterations() const { return total_iters_; }

 protected:
  /// Allocate and initialise application state. Called exactly once, from
  /// the first on_start (never after restores).
  virtual void init() = 0;

  /// Send this task's messages for (iter, phase) via send_phase_msg().
  virtual void send_phase(std::uint64_t iter, int phase) = 0;

  /// How many messages (distinct sender keys) phase `phase` of iteration
  /// `iter` expects. May be zero (compute-only phase).
  virtual int expected_in_phase(std::uint64_t iter, int phase) const = 0;

  /// Perform the real computation for the phase using the received
  /// messages, one per sender in ascending sender order. The spans are
  /// valid for this call only. Returns the *virtual* compute cost in
  /// seconds charged to the clock. Must be deterministic.
  virtual double compute_phase(std::uint64_t iter, int phase,
                               std::span<const PhaseInput> msgs) = 0;

  virtual int num_phases() const { return 1; }

  /// Serialize the application state (everything init() set up and
  /// compute_phase mutates).
  virtual void pup_state(pup::Puper& p) = 0;

  /// Sequential writer over the doubles of a PhaseMsg being packed.
  class DoubleWriter {
   public:
    explicit DoubleWriter(std::span<std::byte> out)
        : at_(out.data()), end_(out.data() + out.size()) {}
    void put(double v) {
      ACR_ASSERT(at_ + sizeof v <= end_);
      std::memcpy(at_, &v, sizeof v);  // the stream is unaligned
      at_ += sizeof v;
    }
    bool full() const { return at_ == end_; }

   private:
    std::byte* at_;
    std::byte* end_;
  };

  /// Send helper for subclasses: packs the PhaseMsg stream for `count`
  /// doubles straight into the payload arena, where `fill(DoubleWriter&)`
  /// puts exactly `count` values, then sends it.
  template <typename Fill>
  void send_phase_msg(rt::TaskAddr dst, std::uint64_t iter, int phase,
                      int sender_key, std::size_t count, Fill&& fill) {
    DoubleWriter w(begin_phase_msg(iter, phase, sender_key, count));
    fill(w);
    ACR_REQUIRE(w.full(), "send_phase_msg: fill wrote the wrong count");
    finish_phase_msg(dst);
  }
  void send_phase_msg(rt::TaskAddr dst, std::uint64_t iter, int phase,
                      int sender_key, std::span<const double> data);
  void send_phase_msg(rt::TaskAddr dst, std::uint64_t iter, int phase,
                      int sender_key, std::initializer_list<double> data) {
    send_phase_msg(dst, iter, phase, sender_key,
                   std::span<const double>(data.begin(), data.size()));
  }

 private:
  /// One buffered message: its key and its doubles.
  struct Arrival {
    std::uint64_t iter = 0;
    std::int32_t phase = 0;
    std::int32_t sender = 0;
    std::vector<double> data;
  };

  std::span<std::byte> begin_phase_msg(std::uint64_t iter, int phase,
                                       int sender_key, std::size_t count);
  void finish_phase_msg(rt::TaskAddr dst);
  /// File a message under its (iter, phase, sender); a duplicate replaces
  /// the copy it repeats.
  void store(Arrival a);
  void pup_inbox(pup::Puper& p);
  void begin_phase();
  void try_compute();
  void finish_phase();

  std::uint64_t total_iters_;
  std::uint64_t iter_ = 0;  ///< completed iterations
  std::int32_t phase_ = 0;  ///< current sub-phase of iteration iter_+1
  /// Highest (iter, phase) whose sends already went out (survives pup so a
  /// restore knows it must resend, and a plain unpause knows it must not).
  std::uint64_t sent_iter_ = 0;
  std::int32_t sent_phase_ = -1;
  bool initialized_ = false;
  bool computing_ = false;  ///< transient; always false at iteration ends

  /// Early-arrival buffer, flat and sorted by (iter, phase, sender): each
  /// (iter, phase) is a run of slots, one per sender. Part of the
  /// checkpoint (empty at consistent cuts for lock-step apps, but the
  /// framework does not rely on that), where it packs exactly like the
  /// std::map<(iter, phase), std::map<sender, std::vector<double>>> it
  /// replaced.
  std::vector<Arrival> inbox_;
};

}  // namespace acr::apps
