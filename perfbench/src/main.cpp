// acr_perfbench — runs whole simulated ACR jobs of one workload for a fixed
// wall-clock budget, checks every answer, and prints one JSON result line.
//
//   acr_perfbench --workload ctl_scale --seed 1 --seconds 10 --trace 0
//   acr_perfbench --workload recovery --seed 1 --seconds 10 --trace 1
//       --trace-out spans.json
//
// --trace 0 runs the workload's seed list untraced, in whole passes, until
// --seconds have passed, and reports the end-to-end metrics. --trace 1 runs
// each seed twice (untraced and traced, alternating which goes first),
// checks the two ended identically, and reports the per-layer metrics.
// Before either, one fault-free reference job (not timed) fixes the answer
// every job must reach. The last line holds the metrics' values by name;
// perfbench/run.py attaches their units from BENCHMARK.json.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "checksum/gf256.h"
#include "checksum/kernels.h"
#include "common/logging.h"
#include "job.h"
#include "metrics.h"
#include "tracer.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/// Set-up is short next to a job, so each job is followed by this many more
/// set-ups of its seed, timed and torn down unrun.
constexpr int kExtraSetupsPerJob = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "acr_perfbench: %s\nusage: acr_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--trace-out") a.trace_out = v;
      else usage(("unknown flag " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0) || a.seconds > 120.0)
    usage("--seconds must be in (0, 120]");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

/// Refuse settings that would measure something other than the serial,
/// optimized build the numbers are meant to describe.
const char* environment_problem() {
  for (const char* var : {"ACR_ENGINE_LANES", "ACR_ENGINE_THREADS",
                          "ACR_KERNEL_THREADS", "ACR_KERNEL_IMPL"})
    if (std::getenv(var) != nullptr) return var;
#ifndef __OPTIMIZE__
  return "an unoptimized build";
#else
  return nullptr;
#endif
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_environment(const Args& a, const Workload& w,
                       const std::vector<std::uint64_t>& seeds) {
  std::string list;
  for (std::uint64_t s : seeds) {
    if (!list.empty()) list += ',';
    list += std::to_string(s);
  }
  std::printf(
      "{\"environment\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"host_cores\": %u, "
      "\"crc32c_kernel\": \"%s\", \"gf256_kernel\": \"%s\", "
      "\"build_flags\": \"%s\", \"job_seeds\": [%s]}}\n",
      w.name.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace, std::thread::hardware_concurrency(),
      acr::checksum::active_crc32c_kernel(),
      acr::checksum::active_gf256_kernel(),
      json_escape(PERFBENCH_BUILD_FLAGS).c_str(), list.c_str());
}

void print_timings(const char* label, const std::vector<JobResult>& jobs) {
  std::vector<double> run, setup;
  for (const JobResult& j : jobs) {
    run.push_back(j.run_s);
    setup.push_back(j.setup_s);
  }
  auto [rmin, rmax] = std::minmax_element(run.begin(), run.end());
  std::printf("%s: %zu jobs, run() median %.4f s (min %.4f, max %.4f), "
              "setup median %.4f s\n",
              label, jobs.size(), median(run), *rmin, *rmax, median(setup));
}

int run_benchmark(const Args& a) {
  Workload w = make_workload(a.workload);
  std::vector<std::uint64_t> seeds = job_seeds(w, a.seed);
  print_environment(a, w, seeds);

  // The answer every job must reach, from a fault-free job at a fixed
  // seed. Not timed.
  JobResult ref = run_job(fault_free(w), kReferenceSeed, 0.0, nullptr);
  if (!ref.summary.complete) {
    std::fprintf(stderr, "%s: the fault-free reference job did not complete\n",
                 w.name.c_str());
    return 1;
  }
  const std::uint64_t answer = ref.digest;
  const double nominal = ref.summary.finish_time;

  std::vector<std::string> problems;
  auto check = [&](const JobResult& r) {
    if (r.summary.complete && r.digest != answer)
      problems.push_back("seed " + std::to_string(r.seed) +
                         ": completed with a wrong answer");
    else if (w.must_complete && !job_ok(r, answer))
      problems.push_back("seed " + std::to_string(r.seed) +
                         ": did not complete");
  };

  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(a.seconds * 1e9);
  std::vector<JobResult> plain, traced;
  std::vector<double> setups;
  std::map<std::uint64_t, std::size_t> first_run;  // seed -> index in plain
  Tracer tracer;
  std::int64_t pass_start = start;
  bool done = false;
  for (std::size_t k = 0; !done; ++k) {
    std::uint64_t seed = seeds[k % seeds.size()];
    if (a.trace == 0) {
      plain.push_back(run_job(w, seed, nominal, nullptr));
      check(plain.back());
      setups.push_back(plain.back().setup_s);
      for (int i = 0; i < kExtraSetupsPerJob; ++i) {
        std::int64_t t0 = now_ns();
        auto runtime = set_up_job(w, seed, nominal, nullptr);
        setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      }
      // A seed seen in an earlier pass must end exactly as it did then.
      auto [it, fresh] = first_run.emplace(seed, plain.size() - 1);
      if (!fresh) {
        std::string diff = same_outcome(plain[it->second], plain.back());
        if (!diff.empty())
          problems.push_back("seed " + std::to_string(seed) +
                             " is not deterministic: " + diff);
      }
      // Runs end on a pass boundary, the one nearest the deadline.
      if ((k + 1) % seeds.size() == 0) {
        std::int64_t now = now_ns();
        done = now + (now - pass_start) / 2 >= deadline;
        pass_start = now;
      }
    } else {
      tracer.set_job(static_cast<std::uint32_t>(k));
      bool traced_first = k % 2 == 1;
      if (traced_first) traced.push_back(run_job(w, seed, nominal, &tracer));
      plain.push_back(run_job(w, seed, nominal, nullptr));
      if (!traced_first) traced.push_back(run_job(w, seed, nominal, &tracer));
      check(plain.back());
      std::string diff = same_outcome(plain.back(), traced.back());
      if (!diff.empty())
        problems.push_back("seed " + std::to_string(seed) +
                           ": traced run differs from untraced: " + diff);
      done = now_ns() >= deadline;
    }
  }

  std::uint64_t failed = 0;
  for (const auto* jobs : {&plain, &traced})
    for (const JobResult& r : *jobs) failed += job_ok(r, answer) ? 0 : 1;
  for (const std::string& p : problems)
    std::fprintf(stderr, "%s: %s\n", w.name.c_str(), p.c_str());

  std::string line;
  if (a.trace == 0) {
    print_timings(w.name.c_str(), plain);
    line = result_json(
        problems.empty(), plain.size(), failed,
        end_to_end_metrics(w, plain, setups, answer, peak_rss_mb()));
  } else {
    print_timings("untraced", plain);
    print_timings("traced", traced);
    if (!a.trace_out.empty()) {
      std::ofstream out(a.trace_out, std::ios::binary | std::ios::trunc);
      out << tracer.chrome_json();
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", a.trace_out.c_str());
        return 1;
      }
      std::printf("spans: %zu written to %s (%llu step and task spans past "
                  "each job's first %zu not stored)\n",
                  tracer.spans().size(), a.trace_out.c_str(),
                  static_cast<unsigned long long>(tracer.dropped()),
                  Tracer::kMaxDetailSpansPerJob);
    }
    line = result_json(problems.empty(), plain.size() + traced.size(), failed,
                       per_layer_metrics(traced, plain, answer));
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return problems.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = parse(argc, argv);
  if (const char* why = environment_problem()) {
    std::fprintf(stderr,
                 "acr_perfbench: refusing to run with %s set: the benchmark "
                 "measures the serial optimized build\n",
                 why);
    return 2;
  }
  // Recovery jobs warn on every rung the ladder falls down; the counts are
  // in the metrics, and writing the lines would be timed with the jobs.
  acr::set_log_level(acr::LogLevel::Error);
  try {
    return run_benchmark(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acr_perfbench: %s\n", e.what());
    return 1;
  }
}
