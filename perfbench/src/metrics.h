// The benchmark's metrics and the result line that carries them.
//
// The binary computes each metric's value by name; BENCHMARK.json is the one
// place that lists the names and their units, and perfbench/run.py attaches
// the units and checks the set. A run with tracing off reports the
// end-to-end metrics, a traced run the per-layer ones.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "job.h"
#include "workloads.h"

namespace perfbench {

using MetricValues = std::map<std::string, double>;

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> v);

/// End-to-end metrics of untraced jobs (see perfbench/README.md).
/// `setup_s` holds every set-up time measured in the run: the jobs' own and
/// those of extra set-ups made only to be timed.
MetricValues end_to_end_metrics(const Workload& w,
                                const std::vector<JobResult>& jobs,
                                const std::vector<double>& setup_s,
                                std::uint64_t reference_digest,
                                double peak_rss_mb);

/// Per-layer metrics of traced jobs; `untraced` holds the same seeds run
/// without tracing, for trace.overhead_frac.
MetricValues per_layer_metrics(const std::vector<JobResult>& traced,
                               const std::vector<JobResult>& untraced,
                               std::uint64_t reference_digest);

/// The binary's result line: {"correct", "attempted", "failed", "values"},
/// "values" mapping each metric's name to its value with all its digits.
/// Throws std::logic_error when a value is not finite.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricValues& values);

}  // namespace perfbench
