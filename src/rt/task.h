// Task (chare) abstraction and its runtime context.
//
// Tasks are message-driven and run-to-completion: a handler never blocks.
// Long computation is modelled by `after_compute`, which performs the real
// arithmetic immediately but charges its cost to the virtual clock before
// the continuation fires.
//
// The contract required by ACR's coordinated checkpointing (§2.2):
//  * a task reports progress via report_progress(i) after completing its
//    i-th iteration and STOPS driving itself when told to pause — the
//    runtime will call on_resume() when execution may continue;
//  * on_message() while paused may only buffer data (the buffers must be
//    part of pup() so a checkpoint captures them);
//  * pup() must capture every bit of state needed to re-enter the loop at
//    the current iteration via on_resume() — including early-arrival
//    buffers and the iteration counter;
//  * handlers must be deterministic: buddy tasks in the two replicas must
//    produce bit-identical checkpoints in a fault-free run.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/small_function.h"
#include "pup/pup.h"
#include "rt/message.h"

namespace acr::rt {

enum class ProgressDecision { Continue, Pause };

class TaskContext {
 public:
  virtual ~TaskContext() = default;

  /// Send to another task in the same replica. The payload Buffer is
  /// shared into the in-flight message, never copied.
  virtual void send(TaskAddr dst, int tag, buf::Buffer payload) = 0;

  /// Charge `seconds` of virtual compute time, then run `fn` (unless the
  /// node dies or rolls back in between). At most one continuation per
  /// task is in flight; one capturing no more than
  /// SmallFunction::kInlineBytes costs no allocation.
  virtual void after_compute(double seconds, SmallFunction fn) = 0;

  /// §2.2 progress call: report that `completed_iterations` iterations are
  /// done. Returns Pause when a checkpoint consensus needs the task to stop
  /// at this iteration; on_resume() will be invoked to continue.
  virtual ProgressDecision report_progress(
      std::uint64_t completed_iterations) = 0;

  /// Tell the runtime this task has finished its final iteration. Must be
  /// re-issued from on_resume() if a restore lands the task in an
  /// already-final state.
  virtual void notify_done() = 0;

  virtual double now() const = 0;
  virtual TaskAddr self() const = 0;
  virtual int replica() const = 0;
  virtual int num_nodes() const = 0;
  virtual bool paused() const = 0;

  /// Deterministic generator seeded identically in both replicas (by
  /// logical position, not replica), for application initialisation.
  virtual Pcg32 make_app_rng(std::uint64_t salt) const = 0;
};

class Task {
 public:
  virtual ~Task() = default;

  /// First activation of a fresh task (job start or spare promotion happens
  /// through restore + on_resume instead).
  virtual void on_start() = 0;

  /// Re-enter the iteration loop at the current (pupped) state: after a
  /// pause ends, after a rollback, or after a spare-node restore.
  virtual void on_resume() = 0;

  virtual void on_message(const Message& m) = 0;

  /// Serialize the checkpointable state (see class contract above).
  virtual void pup(pup::Puper& p) = 0;

  /// Completed iterations — must equal the last value passed to
  /// report_progress (and survive pup round-trips). The runtime uses it to
  /// rebuild its progress ledger after a rollback or spare-node restore.
  virtual std::uint64_t progress() const = 0;

  TaskContext* ctx = nullptr;  ///< installed by the hosting node
};

}  // namespace acr::rt
