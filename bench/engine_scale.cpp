// Event-engine scaling sweep: a PHOLD-style synthetic workload (ring of
// logical nodes, each bouncing timestamped messages to itself and its
// neighbors, plus watchdog cancel/rearm churn) run at 1k/16k/131k nodes.
// Two things are measured per node count: wall time over kRuns repeats
// (median/min/max, written to BENCH_engine.json) and a running digest of
// every dispatch (node, sequence, time bits) plus the event count — both
// pinned to constants, so any change to the engine's (time, id) firing
// order at a scale the soak suites never reach exits 1.
//
// host_cores is recorded in the JSON so trajectories from different
// machines are not compared blindly; the engine itself is single-threaded.
//
// Run: build/bench/engine_scale   (writes BENCH_engine.json in the cwd)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "rt/engine.h"

using namespace acr;

namespace {

constexpr int kEventsPerNode = 16;
constexpr double kMinDelay = 5e-6;
constexpr double kDelaySpread = 45e-6;
constexpr int kRuns = 5;

/// Expected dispatch digest and event count per node count. Recorded from
/// the pre-keyed-heap engine's serial path; the keyed heap fires the same
/// events in the same order, so these never change with queue internals.
struct Pin {
  int nodes;
  std::uint64_t digest;
  std::size_t events;
};
constexpr Pin kPins[] = {
    {1024, 0x23372c34b404eda9ULL, 14001},
    {16384, 0xed96b71be977a2b8ULL, 223997},
    {131072, 0x6ba04d537e784412ULL, 1791370},
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

struct PholdResult {
  std::uint64_t digest = 0;
  std::size_t events = 0;
  double wall_seconds = 0.0;
};

/// One PHOLD run: every node seeds one message; each dispatch folds
/// (node, seq, time) into the digest, rearms the node's watchdog (cancel +
/// reschedule, so the cancelled-set churns exactly as the cluster's
/// heartbeat timers do), and forwards the message to itself or a ring
/// neighbor with a node-local PCG delay. Event count, times, and digest
/// depend only on the per-node RNG streams and the (time, id) order.
PholdResult run_phold(int nodes) {
  rt::Engine engine;

  struct NodeState {
    Pcg32 rng;
    int remaining = kEventsPerNode;
    std::uint64_t seq = 0;
    rt::Engine::EventId watchdog = 0;
  };
  std::vector<NodeState> state(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n)
    state[static_cast<std::size_t>(n)].rng =
        Pcg32(0xEC5CA1E0ULL + static_cast<std::uint64_t>(n),
              static_cast<std::uint64_t>(n) * 2 + 1);

  std::uint64_t digest = 0;
  std::function<void(int)> bounce = [&](int node) {
    NodeState& s = state[static_cast<std::size_t>(node)];
    std::uint64_t tbits;
    double now = engine.now();
    std::memcpy(&tbits, &now, sizeof tbits);
    digest = mix(digest, static_cast<std::uint64_t>(node));
    digest = mix(digest, ++s.seq);
    digest = mix(digest, tbits);
    // Watchdog churn: cancel the previous (pending or long-fired) timer and
    // arm a fresh one past the end of the run.
    engine.cancel(s.watchdog);
    s.watchdog = engine.schedule_after(10.0, [&digest, node] {
      digest = mix(digest, ~static_cast<std::uint64_t>(node));
    });
    if (--s.remaining <= 0) {
      engine.cancel(s.watchdog);
      s.watchdog = 0;
      return;
    }
    double delay = kMinDelay + kDelaySpread * (s.rng.next() * 0x1p-32);
    int dst = node;
    std::uint32_t pick = s.rng.bounded(10);
    if (pick < 2) dst = (node + 1) % nodes;                  // ring right
    else if (pick < 3) dst = (node + nodes - 1) % nodes;     // ring left
    engine.schedule_after(delay, [&bounce, dst] { bounce(dst); });
  };

  auto t0 = std::chrono::steady_clock::now();
  for (int n = 0; n < nodes; ++n) {
    NodeState& s = state[static_cast<std::size_t>(n)];
    double start = kMinDelay + kDelaySpread * (s.rng.next() * 0x1p-32);
    engine.schedule_after(start, [&bounce, n] { bounce(n); });
  }
  engine.run();
  auto t1 = std::chrono::steady_clock::now();

  PholdResult r;
  r.digest = digest;
  r.events = engine.events_processed();
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

}  // namespace

int main() {
  unsigned cores = std::thread::hardware_concurrency();

  std::printf("engine scaling sweep — PHOLD ring, %d events/node, %d runs, "
              "host cores=%u\n\n",
              kEventsPerNode, kRuns, cores);
  std::printf("%8s %12s %20s %10s %10s %10s\n", "nodes", "events", "digest",
              "median(s)", "min(s)", "max(s)");

  struct Point {
    int nodes;
    std::size_t events;
    double median, min, max;
  };
  std::vector<Point> points;
  bool pinned = true;

  for (const Pin& pin : kPins) {
    std::vector<double> walls;
    PholdResult r;
    for (int run = 0; run < kRuns; ++run) {
      r = run_phold(pin.nodes);
      walls.push_back(r.wall_seconds);
      if (r.digest != pin.digest || r.events != pin.events) {
        pinned = false;
        std::printf("PIN MISMATCH at nodes=%d run=%d: digest 0x%016llx "
                    "events %zu (want 0x%016llx, %zu)\n",
                    pin.nodes, run, static_cast<unsigned long long>(r.digest),
                    r.events, static_cast<unsigned long long>(pin.digest),
                    pin.events);
      }
    }
    std::sort(walls.begin(), walls.end());
    Point p{pin.nodes, r.events, walls[walls.size() / 2], walls.front(),
            walls.back()};
    std::printf("%8d %12zu   0x%016llx %10.4f %10.4f %10.4f\n", p.nodes,
                p.events, static_cast<unsigned long long>(r.digest), p.median,
                p.min, p.max);
    points.push_back(p);
  }

  std::FILE* out = std::fopen("BENCH_engine.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n \"config\": \"phold-ring events_per_node=%d "
                 "min_delay=%g spread=%g\",\n \"host_cores\": %u,\n"
                 " \"runs\": %d,\n \"pinned\": %s,\n \"points\": [\n",
                 kEventsPerNode, kMinDelay, kDelaySpread, cores, kRuns,
                 pinned ? "true" : "false");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(out,
                   "  {\"nodes\": %d, \"events_processed\": %zu, "
                   "\"wall_seconds_median\": %.6f, \"wall_seconds_min\": "
                   "%.6f, \"wall_seconds_max\": %.6f}%s\n",
                   p.nodes, p.events, p.median, p.min, p.max,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, " ]\n}\n");
    std::fclose(out);
    std::printf("\nwrote BENCH_engine.json\n");
  }
  return pinned ? 0 : 1;
}
