// One simulated ACR job, run through the public AcrRuntime API from a
// single thread, with or without tracing.
//
// Untraced, the job is what a user runs: set_task_factory -> setup -> run.
// Traced, every task from the factory is wrapped in a ProxyTask, the
// benchmark drives engine().step() itself with AcrRuntime::run's stop
// condition (timing each step), calls run() to collect the RunSummary, and
// afterwards replays the data-plane kernels on the job's verified images.
// same_outcome() is the transparency check between the two.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "acr/runtime.h"
#include "replay.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {

/// Per-job figures from a traced run (all wall-clock unless named virtual).
struct JobTrace {
  double step_total_s = 0.0;   ///< sum of step spans
  double step_self_s = 0.0;    ///< step spans minus their task spans
  double step_us_median = 0.0;
  std::size_t pending_max = 0;
  std::size_t cancelled_backlog_max = 0;
  std::uint64_t on_message_calls = 0;
  double on_message_s = 0.0;
  double resume_s = 0.0;
  std::uint64_t pack_calls = 0;
  double pack_s = 0.0;
  std::uint64_t unpack_calls = 0;
  double unpack_s = 0.0;
  bool replayed = false;
  ReplayResult replay;
};

struct JobResult {
  std::uint64_t seed = 0;
  acr::RunSummary summary;
  std::size_t events = 0;      ///< engine events processed by the end of run()
  std::uint64_t digest = 0;    ///< soak::verified_digest; 0 unless complete
  double setup_s = 0.0;        ///< construction + factory + setup + plans
  double run_s = 0.0;          ///< wall time of run()
  double consensus_ms_virtual = 0.0;  ///< mean checkpoint consensus latency
  double commit_ms_virtual = 0.0;     ///< mean checkpoint request -> commit
  JobTrace trace;              ///< filled only by traced jobs
};

/// Build a job's runtime: construction, task factory (wrapped in proxies
/// when `tracer` is non-null), setup() and fault/burst plan arming. This is
/// the span setup_s measures.
std::unique_ptr<acr::AcrRuntime> set_up_job(const Workload& w,
                                            std::uint64_t seed,
                                            double nominal_finish,
                                            Tracer* tracer);

/// Run one job of `w` with cluster seed `seed`. `nominal_finish` is the
/// fault-free finish time the fault plans are scaled to (unused without
/// faults). A non-null tracer makes the job traced.
JobResult run_job(const Workload& w, std::uint64_t seed, double nominal_finish,
                  Tracer* tracer);

/// Empty when both jobs ended identically (every RunSummary field, the
/// event count, the answer digest); otherwise names the first difference.
std::string same_outcome(const JobResult& a, const JobResult& b);

/// The answer is right: the job completed with the reference digest.
inline bool job_ok(const JobResult& r, std::uint64_t reference_digest) {
  return r.summary.complete && !r.summary.failed &&
         r.digest == reference_digest;
}

}  // namespace perfbench
