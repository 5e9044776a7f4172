// Lane-determinism suite for the sharded event engine.
//
// The contract under test (DESIGN.md §16): the laned engine fires the
// exact same events, at the same virtual times, in the same order, with
// the same EventIds, as the serial single-heap engine — at every lane
// count, every lookahead, and every interleaving of in-round scheduling
// and cancellation. Part A pins that on randomized adversarial schedules
// (100+ seeds); part B runs full AcrRuntime scenarios (partner+SDC,
// xor+burst, tier+delta) across ClusterConfig::engine_lanes {1,2,4,8} and
// requires bit-identical RunSummary, trace length, and end-state digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"
#include "checksum/fletcher.h"
#include "common/rng.h"
#include "failure/correlated.h"
#include "failure/distributions.h"
#include "rt/engine.h"

namespace acr {
namespace {

// ---------------------------------------------------------------------------
// Part A: engine-level order pinning.
// ---------------------------------------------------------------------------

struct Firing {
  double time;
  std::uint64_t tag;
  bool operator==(const Firing& o) const {
    return time == o.time && tag == o.tag;
  }
};

/// Run a randomized self-scheduling workload and record the firing order.
/// Handlers schedule follow-ups both inside the lookahead window (delay <
/// lookahead: lands in the overflow heap mid-round) and beyond it, across
/// random lane keys, and cancel random earlier ids — the full adversarial
/// surface of the laned path.
std::vector<Firing> run_schedule(std::uint64_t seed, int lanes,
                                 double lookahead,
                                 double engine_lookahead = -1.0) {
  rt::Engine engine(lanes);
  if (lanes > 1)
    engine.set_lookahead(engine_lookahead >= 0.0 ? engine_lookahead
                                                 : lookahead);
  Pcg32 rng(seed, 17);
  std::vector<Firing> fired;
  std::vector<rt::Engine::EventId> ids;
  int budget = 400;  // follow-up budget so the run always drains

  // Tags label firings so serial and laned orders can be compared
  // element-wise; deep follow-up chains wrap, which is fine — the wrapped
  // values are identical across runs.
  std::function<void(std::uint64_t)> handler = [&](std::uint64_t tag) {
    fired.push_back({engine.now(), tag});
    std::uint32_t roll = rng.bounded(10);
    if (roll < 4 && budget > 0) {
      --budget;
      // Half the follow-ups land inside the current window, half beyond.
      double delay = roll < 2 ? lookahead * 0.25 * rng.next() * 0x1p-32
                              : lookahead * (1.0 + rng.bounded(8));
      std::uint64_t t = tag * 10 + 1;
      ids.push_back(engine.schedule_after(
          delay, [&handler, t] { handler(t); },
          static_cast<rt::Engine::LaneKey>(rng.next())));
    } else if (roll == 7 && !ids.empty()) {
      engine.cancel(ids[rng.bounded(static_cast<std::uint32_t>(ids.size()))]);
    }
  };

  int initial = 40 + static_cast<int>(rng.bounded(40));
  for (int i = 0; i < initial; ++i) {
    double t = (1.0 + rng.bounded(1000)) * lookahead * 0.13;
    ids.push_back(engine.schedule_at(
        t, [&handler, i] { handler(i); },
        static_cast<rt::Engine::LaneKey>(rng.next())));
  }
  engine.run();
  EXPECT_EQ(engine.pending(), 0u);
  return fired;
}

TEST(EngineLanes, FiringOrderMatchesSerialAcrossRandomizedSchedules) {
  constexpr double kLookahead = 1e-5;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    std::vector<Firing> serial = run_schedule(seed, 1, kLookahead);
    for (int lanes : {2, 4, 8}) {
      std::vector<Firing> laned = run_schedule(seed, lanes, kLookahead);
      ASSERT_EQ(serial.size(), laned.size())
          << "seed " << seed << " lanes " << lanes;
      for (std::size_t i = 0; i < serial.size(); ++i)
        ASSERT_TRUE(serial[i] == laned[i])
            << "seed " << seed << " lanes " << lanes << " event " << i
            << ": serial (" << serial[i].time << ", " << serial[i].tag
            << ") vs laned (" << laned[i].time << ", " << laned[i].tag << ")";
    }
  }
}

TEST(EngineLanes, ZeroAndHugeLookaheadBothMatchSerial) {
  // The window is a batching knob only: the degenerate window (0 — each
  // round extracts just the earliest deadline's ties) and an effectively
  // unbounded one (every pending event every round) must both reproduce
  // the serial order exactly.
  for (std::uint64_t seed = 200; seed < 230; ++seed) {
    std::vector<Firing> serial = run_schedule(seed, 1, 1e-5);
    for (double window : {0.0, 1e9}) {
      std::vector<Firing> laned = run_schedule(seed, 4, 1e-5, window);
      ASSERT_EQ(serial.size(), laned.size())
          << "seed " << seed << " window " << window;
      for (std::size_t i = 0; i < serial.size(); ++i)
        ASSERT_TRUE(serial[i] == laned[i])
            << "seed " << seed << " window " << window << " event " << i;
    }
  }
}

TEST(EngineLanes, EqualDeadlineFifoPreservedAcrossLaneMerge) {
  // 64 events, one per lane key, all at the same instant: the merge must
  // reproduce pure insertion order even though every lane contributes.
  rt::Engine engine(8);
  engine.set_lookahead(1.0);
  std::vector<int> order;
  for (int i = 0; i < 64; ++i)
    engine.schedule_at(
        1.0, [&order, i] { order.push_back(i); },
        static_cast<rt::Engine::LaneKey>(i));
  engine.run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EngineLanes, InWindowSchedulingCannotJumpTheGlobalOrder) {
  // An event at t=1 schedules a follow-up at t=1 (inside the window, equal
  // deadline). The follow-up's id is larger than every pre-scheduled id,
  // so it must fire after all other t=1 events — from the overflow heap,
  // merged, never before a lane-run event with a smaller id.
  rt::Engine engine(4);
  engine.set_lookahead(1.0);
  std::vector<int> order;
  engine.schedule_at(1.0, [&] {
    order.push_back(0);
    engine.schedule_at(1.0, [&] { order.push_back(99); });
  });
  for (int i = 1; i < 8; ++i)
    engine.schedule_at(
        1.0, [&order, i] { order.push_back(i); },
        static_cast<rt::Engine::LaneKey>(i));
  engine.run();
  ASSERT_EQ(order.size(), 9u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(order.back(), 99);
}

TEST(EngineLanes, RunUntilBoundaryAndPersistenceLaned) {
  rt::Engine engine(4);
  engine.set_lookahead(0.5);
  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  auto boundary = engine.schedule_at(2.0, [&] { ++fired; });
  engine.schedule_at(2.0, [&] { ++fired; }, rt::Engine::LaneKey{3});
  engine.schedule_at(3.0, [&] { ++fired; });
  engine.cancel(boundary);
  // Cancelled event exactly at the boundary t: skipped, not fired, and the
  // clock still lands exactly on t.
  EXPECT_EQ(engine.run_until(2.0), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.pending(), 1u);
  // The t=3 event was extracted into a round that outlived run_until(2);
  // it must survive, staged, and fire on the next call.
  EXPECT_EQ(engine.run_until(4.0), 1u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(engine.now(), 4.0);
  // Empty-queue fast path: no events, the clock still advances.
  EXPECT_EQ(engine.run_until(5.0), 0u);
  EXPECT_EQ(engine.now(), 5.0);
}

TEST(EngineLanes, SerialEngineNeverEntersRounds) {
  rt::Engine engine(1);
  for (int i = 0; i < 100; ++i)
    engine.schedule_at(i * 0.5, [] {});
  engine.run();
  EXPECT_EQ(engine.rounds(), 0u);
  EXPECT_EQ(engine.events_processed(), 100u);
}

TEST(EngineLanes, ReshardRequiresEmptyQueue) {
  rt::Engine engine(1);
  engine.schedule_at(1.0, [] {});
  EXPECT_THROW(engine.set_lanes(4), RequireError);
  engine.run();
  engine.set_lanes(4);
  EXPECT_EQ(engine.lanes(), 4);
}

// ---------------------------------------------------------------------------
// Part B: full-runtime scenarios bitwise identical across engine_lanes.
// ---------------------------------------------------------------------------

void expect_summaries_equal(const RunSummary& a, const RunSummary& b,
                            const char* what) {
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.failed, b.failed) << what;
  EXPECT_EQ(a.finish_time, b.finish_time) << what;  // exact, not approx
  EXPECT_EQ(a.checkpoints, b.checkpoints) << what;
  EXPECT_EQ(a.hard_failures, b.hard_failures) << what;
  EXPECT_EQ(a.sdc_injected, b.sdc_injected) << what;
  EXPECT_EQ(a.sdc_detected, b.sdc_detected) << what;
  EXPECT_EQ(a.recoveries, b.recoveries) << what;
  EXPECT_EQ(a.scratch_restarts, b.scratch_restarts) << what;
  EXPECT_EQ(a.net_frames, b.net_frames) << what;
  EXPECT_EQ(a.net_drops, b.net_drops) << what;
  EXPECT_EQ(a.net_corruptions, b.net_corruptions) << what;
  EXPECT_EQ(a.net_retransmits, b.net_retransmits) << what;
  EXPECT_EQ(a.burst_node_kills, b.burst_node_kills) << what;
  EXPECT_EQ(a.roles_doubled, b.roles_doubled) << what;
  EXPECT_EQ(a.l2_flush_bytes, b.l2_flush_bytes) << what;
  EXPECT_EQ(a.l2_fetches, b.l2_fetches) << what;
  EXPECT_EQ(a.xor_rebuilds, b.xor_rebuilds) << what;
}

std::uint64_t final_state_digest(AcrRuntime& runtime) {
  checksum::Fletcher64 f;
  for (int i = 0; i < runtime.cluster().nodes_per_replica(); ++i) {
    NodeAgent& a = runtime.agent_at(0, i);
    NodeAgent& b = runtime.agent_at(1, i);
    const NodeAgent& best = a.verified_epoch() >= b.verified_epoch() ? a : b;
    f.append(best.verified_image());
  }
  return f.digest();
}

struct ScenarioResult {
  RunSummary summary;
  std::uint64_t state_digest = 0;
  std::size_t trace_events = 0;
};

ScenarioResult finish(AcrRuntime& runtime, RunSummary s) {
  ScenarioResult res;
  res.summary = s;
  if (s.complete) runtime.engine().run_until(s.finish_time + 0.05);
  res.state_digest = final_state_digest(runtime);
  res.trace_events = runtime.trace().events().size();
  return res;
}

/// Partner + SDC + lossy wire: digest compare, flip-delta, retransmits.
ScenarioResult run_partner_sdc(int lanes) {
  apps::Jacobi3DConfig j;
  j.tasks_x = j.tasks_y = 2;
  j.tasks_z = 2;
  j.block_x = j.block_y = j.block_z = 4;
  j.iterations = 25;
  j.slots_per_node = 2;
  j.seconds_per_point = 1e-5;
  AcrConfig ac;
  ac.detection = SdcDetection::Checksum;
  ac.checkpoint_interval = 0.002;
  ac.heartbeat_period = 0.001;
  ac.heartbeat_timeout = 0.005;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 2;
  cc.net_faults.drop_rate = 0.02;
  cc.net_faults.corrupt_rate = 0.02;
  cc.engine_lanes = lanes;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  FaultPlan plan;
  plan.arrivals = std::make_shared<failure::RenewalProcess>(
      std::make_shared<failure::Exponential>(0.003));
  plan.sdc_fraction = 1.0;
  runtime.set_fault_plan(plan);
  return finish(runtime, runtime.run(30.0));
}

/// Xor parity + correlated bursts + shrink: rebuilds, spares, doubling.
ScenarioResult run_xor_burst(int lanes) {
  apps::Jacobi3DConfig j;
  j.tasks_x = j.tasks_y = 2;
  j.tasks_z = 4;
  j.block_x = j.block_y = j.block_z = 4;
  j.iterations = 30;
  j.slots_per_node = 2;
  j.seconds_per_point = 1e-5;
  AcrConfig ac;
  ac.scheme = ResilienceScheme::Strong;
  ac.redundancy = ckpt::Scheme::Rs;  // --ckpt-scheme=xor
  ac.rs_parity = 1;
  ac.xor_group_size = 4;
  ac.degrade = DegradeMode::Shrink;
  ac.checkpoint_interval = 0.003;
  ac.heartbeat_period = 0.0004;
  ac.heartbeat_timeout = 0.0016;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 8;
  cc.engine_lanes = lanes;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  failure::BurstConfig bc;
  bc.seed_mtbf = 0.02;
  bc.follow_prob = 0.5;
  bc.window = 0.001;
  bc.domain_size = 4;
  bc.repair_mean = 0.01;
  runtime.set_burst_plan(bc);
  return finish(runtime, runtime.run(30.0));
}

/// Partner + L2 tier + delta/LZ codec under faults: flushes, fetch ladder,
/// chunk maps — the deepest zero-delay-continuation chains in the repo.
ScenarioResult run_tier_delta(int lanes) {
  apps::Jacobi3DConfig j;
  j.tasks_x = j.tasks_y = 2;
  j.tasks_z = 4;
  j.block_x = j.block_y = 12;
  j.block_z = 12;
  j.iterations = 20;
  j.slots_per_node = 4;
  j.seconds_per_point = 2e-7;
  AcrConfig ac;
  ac.scheme = ResilienceScheme::Strong;
  ac.redundancy = ckpt::Scheme::Partner;
  ac.degrade = DegradeMode::Shrink;
  ac.checkpoint_interval = 0.003;
  ac.heartbeat_period = 0.0004;
  ac.heartbeat_timeout = 0.0016;
  ac.tier.bandwidth = 1e9;
  ac.codec.delta = ckpt::DeltaMode::On;
  ac.codec.compress = ckpt::CompressMode::Lz;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 2;
  cc.engine_lanes = lanes;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  FaultPlan plan;
  plan.arrivals = std::make_shared<failure::RenewalProcess>(
      std::make_shared<failure::Exponential>(0.008));
  plan.sdc_fraction = 0.3;
  runtime.set_fault_plan(plan);
  return finish(runtime, runtime.run(30.0));
}

template <typename Scenario>
void check_lane_determinism(Scenario scenario, const char* name) {
  ScenarioResult base = scenario(1);
  for (int lanes : {2, 4, 8}) {
    ScenarioResult got = scenario(lanes);
    std::string what = std::string(name) + " lanes=" + std::to_string(lanes);
    expect_summaries_equal(base.summary, got.summary, what.c_str());
    EXPECT_EQ(base.state_digest, got.state_digest) << what;
    EXPECT_EQ(base.trace_events, got.trace_events) << what;
  }
}

TEST(EngineLanesEndToEnd, PartnerSdcScenarioBitwiseIdentical) {
  check_lane_determinism(run_partner_sdc, "partner+sdc");
}

TEST(EngineLanesEndToEnd, XorBurstScenarioBitwiseIdentical) {
  check_lane_determinism(run_xor_burst, "xor+burst");
}

TEST(EngineLanesEndToEnd, TierDeltaScenarioBitwiseIdentical) {
  check_lane_determinism(run_tier_delta, "tier+delta");
}

}  // namespace
}  // namespace acr
