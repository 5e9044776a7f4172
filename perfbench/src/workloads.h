// The benchmark's three workloads. Each loads a different layer of the
// simulator, and each job's answer is checked against a fault-free
// reference (perfbench/README.md maps each layer to the end-to-end metrics
// it should move):
//
//   ctl_scale   1024 nodes/replica of tiny jacobi blocks, no faults: the
//               event queue, handler dispatch and the apps' receive
//               buffers dominate; the data plane is trivial.
//   data_plane  4 nodes/replica of 24^3 blocks (~563 KB images, 3 digest
//               chunks) under rs(2), delta + LZ and an L2 tier, no faults:
//               the checkpoint write path dominates.
//   recovery    the soak-scale job (8 nodes/replica) with data_plane's
//               features plus shrink, spares, Poisson hard/SDC faults,
//               correlated bursts and lossy links: the read side of ckpt,
//               the reliable transport and the recovery ladder.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"

namespace perfbench {

/// Full: the sizes the benchmark measures. Small: the same feature set at a
/// size the benchmark's own tests can afford.
enum class Scale { Full, Small };

struct Workload {
  std::string name;
  acr::apps::Jacobi3DConfig app;
  acr::AcrConfig acr;
  /// nodes_per_replica and spares are set here; the seed is set per job.
  acr::rt::ClusterConfig cluster;
  /// Poisson node faults (hard and SDC) and a correlated burst plan, both
  /// scaled to the fault-free finish time (set by the reference job); see
  /// arm_faults().
  bool faults = false;
  /// Virtual time at which a job that has neither completed nor failed is
  /// stopped (and counted as failed).
  double max_virtual_time = 30.0;
  /// Jobs per pass of the seed list; a run repeats whole passes.
  int jobs_per_pass = 1;
  /// Leading jobs of the list whose seeds are the same in every run (the
  /// rest come from the run's seed). Where outcomes differ widely from one
  /// fault schedule to the next, a shared core keeps runs comparable.
  int core_jobs = 0;
  /// A job of this workload that does not complete with the reference
  /// answer fails the benchmark (false only where failures are measured).
  bool must_complete = true;

  std::uint64_t task_iterations() const {
    return static_cast<std::uint64_t>(app.total_tasks()) * app.iterations;
  }
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, Scale scale = Scale::Full);

/// The workload's fault-free twin: same app and protocol configuration, a
/// clean network, no injected faults. Its answer is the reference.
Workload fault_free(const Workload& w);

/// Arm a Poisson fault plan (one fault per `nominal_finish` on average, 30%
/// of them SDC) and the soaks' burst plan (soak::default_burst_config);
/// a no-op for a fault-free workload. `nominal_finish` is the fault-free
/// job's virtual finish time.
void arm_faults(acr::AcrRuntime& runtime, const Workload& w,
                double nominal_finish);

/// The seed list one run cycles through: the workload's core_jobs fixed
/// seeds, then seeds derived from the run's seed.
std::vector<std::uint64_t> job_seeds(const Workload& w, std::uint64_t seed);

/// Cluster seed of the reference job (fixed: the answer must not depend on
/// it, which every job with another seed checks).
inline constexpr std::uint64_t kReferenceSeed = 0xAC0FF00DULL;

}  // namespace perfbench
