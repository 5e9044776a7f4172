// Correlated failure bursts, the spare-pool lifecycle, and
// shrink-to-survive degraded mode.
//
// Covers the decision logic of failure/correlated.h (domains, injector
// determinism, follower planning), the rt::Cluster spare lifecycle
// (spares failing idle, repair re-pooling without double-counting,
// doubling/undoubling), and the acr::Manager degradation paths
// (shrink-to-survive on pool exhaustion, un-doubling after repair,
// simultaneous buddy-pair / parity-group losses degrading cleanly to a
// scratch restart, and second-failure-mid-recovery wave serialization).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"
#include "checksum/fletcher.h"
#include "failure/adaptive_interval.h"
#include "failure/correlated.h"

namespace acr {
namespace {

// ---------------------------------------------------------------------------
// Failure domains.
// ---------------------------------------------------------------------------

TEST(FailureDomains, PartitionsNodesIntoXLines) {
  failure::FailureDomains d(8, 4);
  EXPECT_EQ(d.num_domains(), 2);
  EXPECT_EQ(d.domain_of(0), 0);
  EXPECT_EQ(d.domain_of(3), 0);
  EXPECT_EQ(d.domain_of(4), 1);
  EXPECT_EQ(d.domain_of(7), 1);
  EXPECT_EQ(d.members(0), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(d.members(1), (std::vector<int>{4, 5, 6, 7}));
  // One domain = one X-line of the derived torus.
  EXPECT_EQ(d.torus().dim_x(), 4);
  EXPECT_GE(d.torus().num_nodes(), 8);
}

TEST(FailureDomains, LastDomainMayBeShort) {
  failure::FailureDomains d(10, 4);
  EXPECT_EQ(d.num_domains(), 3);
  EXPECT_EQ(d.members(2), (std::vector<int>{8, 9}));
  EXPECT_EQ(d.domain_of(9), 2);
}

TEST(FailureDomains, DomainLargerThanMachineClamps) {
  failure::FailureDomains d(3, 16);
  EXPECT_EQ(d.num_domains(), 1);
  EXPECT_EQ(d.members(0), (std::vector<int>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Correlated injector.
// ---------------------------------------------------------------------------

failure::BurstConfig test_burst_config() {
  failure::BurstConfig bc;
  bc.seed_mtbf = 0.05;
  bc.weibull_shape = 0.7;
  bc.follow_prob = 0.5;
  bc.window = 0.002;
  bc.domain_size = 4;
  bc.repair_mean = 0.1;
  return bc;
}

TEST(CorrelatedInjector, DeterministicPerSeed) {
  std::vector<int> alive;
  for (int i = 0; i < 16; ++i) alive.push_back(i);
  failure::CorrelatedInjector a(test_burst_config(), 16, 42);
  failure::CorrelatedInjector b(test_burst_config(), 16, 42);
  double t = 0.0;
  for (int round = 0; round < 20; ++round) {
    double ta = a.next_seed_after(t);
    ASSERT_DOUBLE_EQ(ta, b.next_seed_after(t));
    ASSERT_GT(ta, t);
    t = ta;
    int va = a.pick_victim(alive);
    ASSERT_EQ(va, b.pick_victim(alive));
    auto fa = a.plan_followers(va, alive);
    auto fb = b.plan_followers(va, alive);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(fa[i].node, fb[i].node);
      EXPECT_DOUBLE_EQ(fa[i].delay, fb[i].delay);
    }
    ASSERT_DOUBLE_EQ(a.sample_repair_time(), b.sample_repair_time());
  }
  failure::CorrelatedInjector c(test_burst_config(), 16, 43);
  EXPECT_NE(a.next_seed_after(t), c.next_seed_after(t));
}

TEST(CorrelatedInjector, FollowersComeFromTheVictimsDomainOnly) {
  failure::BurstConfig bc = test_burst_config();
  bc.follow_prob = 1.0;  // every live peer follows
  failure::CorrelatedInjector inj(bc, 16, 7);
  std::vector<int> alive;
  for (int i = 0; i < 16; ++i) alive.push_back(i);
  auto followers = inj.plan_followers(5, alive);
  ASSERT_EQ(followers.size(), 3u);  // domain {4,5,6,7} minus the victim
  for (const auto& f : followers) {
    EXPECT_NE(f.node, 5);
    EXPECT_EQ(inj.domains().domain_of(f.node), 1);
    EXPECT_GE(f.delay, 0.0);
    EXPECT_LT(f.delay, bc.window);
  }
}

TEST(CorrelatedInjector, FollowersSkipAlreadyDeadPeers) {
  failure::BurstConfig bc = test_burst_config();
  bc.follow_prob = 1.0;
  failure::CorrelatedInjector inj(bc, 8, 7);
  std::vector<int> alive{0, 1, 3, 4, 5, 6, 7};  // node 2 already dead
  auto followers = inj.plan_followers(0, alive);
  ASSERT_EQ(followers.size(), 2u);
  EXPECT_EQ(followers[0].node, 1);
  EXPECT_EQ(followers[1].node, 3);
}

TEST(CorrelatedInjector, ZeroFollowProbMeansIsolatedFailures) {
  failure::BurstConfig bc = test_burst_config();
  bc.follow_prob = 0.0;
  failure::CorrelatedInjector inj(bc, 16, 7);
  std::vector<int> alive;
  for (int i = 0; i < 16; ++i) alive.push_back(i);
  EXPECT_TRUE(inj.plan_followers(5, alive).empty());
}

// ---------------------------------------------------------------------------
// Adaptive interval reacts to burst inter-arrival times (satellite a).
// ---------------------------------------------------------------------------

TEST(AdaptiveBurst, IntervalTightensAfterBurstArrivals) {
  failure::AdaptiveIntervalConfig cfg;
  cfg.checkpoint_cost = 1e-4;
  cfg.min_interval = 1e-3;
  cfg.max_interval = 10.0;
  failure::AdaptiveIntervalController ctl(cfg);
  double before = ctl.next_interval(1.0);
  EXPECT_DOUBLE_EQ(before, cfg.max_interval);  // no failures yet
  // A rack-style burst: four deaths within a couple of milliseconds.
  ctl.on_failure(1.0);
  ctl.on_failure(1.0005);
  ctl.on_failure(1.0011);
  ctl.on_failure(1.0019);
  double after = ctl.next_interval(1.002);
  EXPECT_LT(after, before);
  // Sub-millisecond MTBF drives Young/Daly to the clamp floor.
  EXPECT_DOUBLE_EQ(after, cfg.min_interval);
}

// ---------------------------------------------------------------------------
// Simulation fixtures (mirrors test_xor_soak.cpp's reference pattern).
// ---------------------------------------------------------------------------

apps::Jacobi3DConfig burst_app() {
  apps::Jacobi3DConfig cfg;
  cfg.tasks_x = cfg.tasks_y = 2;
  cfg.tasks_z = 4;
  cfg.block_x = cfg.block_y = cfg.block_z = 4;
  cfg.iterations = 40;
  cfg.slots_per_node = 2;  // 8 nodes per replica
  cfg.seconds_per_point = 1e-5;
  return cfg;
}

AcrConfig burst_acr_config() {
  AcrConfig ac;
  ac.scheme = ResilienceScheme::Strong;
  ac.redundancy = ckpt::Scheme::Partner;
  ac.checkpoint_interval = 0.003;
  ac.heartbeat_period = 0.0004;
  ac.heartbeat_timeout = 0.0016;
  return ac;
}

std::uint64_t verified_digest(AcrRuntime& runtime) {
  checksum::Fletcher64 f;
  for (int i = 0; i < runtime.cluster().nodes_per_replica(); ++i) {
    NodeAgent& a = runtime.agent_at(0, i);
    NodeAgent& b = runtime.agent_at(1, i);
    const NodeAgent& best = a.verified_epoch() >= b.verified_epoch() ? a : b;
    f.append(best.verified_image());
  }
  return f.digest();
}

struct Reference {
  std::uint64_t digest = 0;
  double finish_time = 0.0;
};

const Reference& reference() {
  static Reference cached = [] {
    apps::Jacobi3DConfig j = burst_app();
    rt::ClusterConfig cc;
    cc.nodes_per_replica = j.nodes_needed();
    cc.spare_nodes = 0;
    AcrRuntime runtime(burst_acr_config(), cc);
    runtime.set_task_factory(j.factory());
    runtime.setup();
    RunSummary s = runtime.run(1e3);
    ACR_REQUIRE(s.complete, "burst reference run must complete");
    Reference ref;
    ref.digest = verified_digest(runtime);
    ref.finish_time = s.finish_time;
    return ref;
  }();
  return cached;
}

struct Sim {
  apps::Jacobi3DConfig app;
  AcrRuntime runtime;
  Sim(const AcrConfig& ac, int spares, std::uint64_t seed)
      : app(burst_app()),
        runtime(ac, [&] {
          rt::ClusterConfig cc;
          cc.nodes_per_replica = burst_app().nodes_needed();
          cc.spare_nodes = spares;
          cc.seed = seed;
          return cc;
        }()) {
    runtime.set_task_factory(app.factory());
    runtime.setup();
  }
};

bool trace_contains(AcrRuntime& runtime, rt::TraceKind kind,
                    const std::string& detail_substr = "") {
  for (const auto& e : runtime.trace().events()) {
    if (e.kind != kind) continue;
    if (detail_substr.empty() ||
        e.detail.find(detail_substr) != std::string::npos)
      return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Spare-pool lifecycle (satellite b: no double-counting).
// ---------------------------------------------------------------------------

/// Spares are first-class nodes: an idle pooled spare can die (shrinking
/// the pool without any role failure) and the accounting must show it.
TEST(SpareLifecycle, PooledSpareCanFailIdle) {
  Sim sim(burst_acr_config(), 2, 11);
  rt::Cluster& cl = sim.runtime.cluster();
  cl.enable_spare_lifecycle_trace();
  int spare_pid = -1;
  for (int pid = 0; pid < cl.num_hardware_nodes(); ++pid)
    if (cl.is_pooled_spare(pid)) spare_pid = pid;
  ASSERT_GE(spare_pid, 0);
  EXPECT_EQ(cl.spares_remaining(), 2);
  sim.runtime.engine().schedule_at(0.001, [&cl, spare_pid] {
    cl.kill_physical(spare_pid, "burst-seed");
  });
  RunSummary s = sim.runtime.run(30.0);
  ASSERT_TRUE(s.complete);
  EXPECT_EQ(cl.spares_remaining(), 1);
  EXPECT_EQ(s.spare_failures, 1u);
  EXPECT_EQ(s.spare_low_water, 1);
  EXPECT_EQ(s.spare_promotions, 0u);
  EXPECT_EQ(s.hard_failures, 0u);  // no *role* ever failed
  EXPECT_TRUE(trace_contains(sim.runtime, rt::TraceKind::SpareFailed));
}

/// A node that is promoted, dies in its role, and is then repaired goes
/// back to the pool exactly once — the run summary must not double-count
/// it as both a promotion survivor and a fresh spare (satellite b).
TEST(SpareLifecycle, PromotedThenRepairedNodeIsNotDoubleCounted) {
  Sim sim(burst_acr_config(), 1, 12);
  rt::Cluster& cl = sim.runtime.cluster();
  cl.enable_spare_lifecycle_trace();
  double mid = reference().finish_time * 0.4;
  sim.runtime.engine().schedule_at(mid, [&sim] {
    sim.runtime.cluster().kill_role(0, 2);
  });
  // Repair whatever hardware is down a bit later; the role's original
  // player returns to the pool (its old slot now held by the spare).
  sim.runtime.engine().schedule_at(mid + 0.004, [&sim] {
    rt::Cluster& c = sim.runtime.cluster();
    for (int pid = 0; pid < c.num_hardware_nodes(); ++pid)
      if (!c.physical_node(pid).alive() && c.repair_node(pid))
        sim.runtime.manager().note_spare_available();
  });
  RunSummary s = sim.runtime.run(30.0);
  ASSERT_TRUE(s.complete);
  EXPECT_EQ(s.spare_promotions, 1u);
  EXPECT_EQ(s.spare_repairs, 1u);
  EXPECT_EQ(s.spare_low_water, 0);
  // One spare was consumed, one body was repaired into the pool: net 1.
  EXPECT_EQ(cl.spares_remaining(), 1);
  EXPECT_TRUE(trace_contains(sim.runtime, rt::TraceKind::NodeRepaired));
  sim.runtime.engine().run_until(s.finish_time + 0.05);
  EXPECT_EQ(verified_digest(sim.runtime), reference().digest);
}

TEST(SpareLifecycle, RepairGuardsRejectLiveOrPooledNodes) {
  Sim sim(burst_acr_config(), 1, 13);
  rt::Cluster& cl = sim.runtime.cluster();
  EXPECT_FALSE(cl.repair_node(0));  // alive
  cl.kill_physical(0, "burst-seed");
  EXPECT_TRUE(cl.repair_node(0));
  EXPECT_FALSE(cl.repair_node(0));  // alive again (pooled)
  EXPECT_TRUE(cl.is_pooled_spare(0));
  EXPECT_EQ(cl.spares_remaining(), 2);
  EXPECT_EQ(cl.spare_counters().repairs, 1u);
}

// ---------------------------------------------------------------------------
// Shrink-to-survive.
// ---------------------------------------------------------------------------

/// Pool exhausted under --degrade=abort: the legacy behavior, job fails.
TEST(Degradation, AbortModeFailsOnPoolExhaustion) {
  AcrConfig ac = burst_acr_config();
  ac.degrade = DegradeMode::Abort;
  Sim sim(ac, 0, 21);
  sim.runtime.engine().schedule_at(reference().finish_time * 0.4, [&sim] {
    sim.runtime.cluster().kill_role(0, 3);
  });
  RunSummary s = sim.runtime.run(30.0);
  EXPECT_FALSE(s.complete);
  EXPECT_TRUE(s.failed);
  EXPECT_EQ(s.roles_doubled, 0u);
  EXPECT_TRUE(trace_contains(sim.runtime, rt::TraceKind::JobComplete,
                             "FAILED: spare pool exhausted"));
}

/// The same exhaustion under --degrade=shrink doubles the dead role onto a
/// surviving same-replica node and completes with the bitwise-correct
/// answer (app RNG is seeded by logical position, not hardware).
TEST(Degradation, ShrinkModeDoublesUpAndCompletes) {
  AcrConfig ac = burst_acr_config();
  ac.degrade = DegradeMode::Shrink;
  Sim sim(ac, 0, 22);
  sim.runtime.engine().schedule_at(reference().finish_time * 0.4, [&sim] {
    sim.runtime.cluster().kill_role(0, 3);
  });
  RunSummary s = sim.runtime.run(30.0);
  ASSERT_TRUE(s.complete) << "shrink mode wedged at t=" << s.finish_time;
  EXPECT_EQ(s.roles_doubled, 1u);
  EXPECT_EQ(s.roles_undoubled, 0u);  // no repair ever arrived
  EXPECT_FALSE(sim.runtime.cluster().doubled_roles().empty());
  EXPECT_TRUE(trace_contains(sim.runtime, rt::TraceKind::RoleDoubled));
  sim.runtime.engine().run_until(s.finish_time + 0.05);
  EXPECT_EQ(verified_digest(sim.runtime), reference().digest);
}

/// When a repaired node refills the pool, the doubled role is relieved:
/// the lodger retires and a real spare takes the role over (un-doubling).
TEST(Degradation, RepairedSpareUndoublesTheRole) {
  AcrConfig ac = burst_acr_config();
  ac.degrade = DegradeMode::Shrink;
  Sim sim(ac, 0, 23);
  double mid = reference().finish_time * 0.3;
  sim.runtime.engine().schedule_at(mid, [&sim] {
    sim.runtime.cluster().kill_role(1, 5);
  });
  sim.runtime.engine().schedule_at(mid + 0.005, [&sim] {
    rt::Cluster& c = sim.runtime.cluster();
    for (int pid = 0; pid < c.num_hardware_nodes(); ++pid)
      if (!c.physical_node(pid).alive() && c.repair_node(pid))
        sim.runtime.manager().note_spare_available();
  });
  RunSummary s = sim.runtime.run(30.0);
  ASSERT_TRUE(s.complete);
  EXPECT_EQ(s.roles_doubled, 1u);
  EXPECT_EQ(s.roles_undoubled, 1u);
  EXPECT_TRUE(sim.runtime.cluster().doubled_roles().empty());
  EXPECT_TRUE(trace_contains(sim.runtime, rt::TraceKind::RoleUndoubled));
  sim.runtime.engine().run_until(s.finish_time + 0.05);
  EXPECT_EQ(verified_digest(sim.runtime), reference().digest);
}

// ---------------------------------------------------------------------------
// Unrecoverable patterns degrade to scratch restart (satellite c).
// ---------------------------------------------------------------------------

/// Both buddies of one node index die at the same instant under partner
/// redundancy: the verified image is gone from both replicas, so the job
/// must cleanly fall back to a scratch restart — and still finish right.
TEST(Degradation, SimultaneousBuddyPairLossFallsBackToScratch) {
  Sim sim(burst_acr_config(), 4, 31);
  double mid = reference().finish_time * 0.5;
  sim.runtime.engine().schedule_at(mid, [&sim] {
    sim.runtime.cluster().kill_role(0, 4);
    sim.runtime.cluster().kill_role(1, 4);
  });
  RunSummary s = sim.runtime.run(30.0);
  ASSERT_TRUE(s.complete) << "buddy-pair loss wedged the job";
  EXPECT_GE(s.scratch_restarts, 1u);
  sim.runtime.engine().run_until(s.finish_time + 0.05);
  EXPECT_EQ(verified_digest(sim.runtime), reference().digest);
}

/// Two members of one xor parity group die at the same instant: beyond
/// single-parity coverage, must degrade to scratch, not wedge.
TEST(Degradation, SimultaneousGroupDoubleLossFallsBackToScratch) {
  AcrConfig ac = burst_acr_config();
  ac.redundancy = ckpt::Scheme::Rs;  // --ckpt-scheme=xor
  ac.rs_parity = 1;
  ac.xor_group_size = 4;
  Sim sim(ac, 4, 32);
  double mid = reference().finish_time * 0.5;
  sim.runtime.engine().schedule_at(mid, [&sim] {
    sim.runtime.cluster().kill_role(0, 1);  // group {0,1,2,3}
    sim.runtime.cluster().kill_role(0, 2);
  });
  RunSummary s = sim.runtime.run(30.0);
  ASSERT_TRUE(s.complete) << "group double-loss wedged the job";
  EXPECT_GE(s.scratch_restarts, 1u);
  sim.runtime.engine().run_until(s.finish_time + 0.05);
  EXPECT_EQ(verified_digest(sim.runtime), reference().digest);
}

// ---------------------------------------------------------------------------
// Failure during recovery: waves are serialized, never interleaved.
// ---------------------------------------------------------------------------

/// A second failure landing mid-rollback abandons the first wave (its
/// restore floor rises past the stale barrier) and restarts recovery
/// against the new membership. The observable contract: completion with
/// the bitwise-correct answer, never a wedge or a stale-wave revival.
TEST(Degradation, SecondFailureMidRecoveryIsSerialized) {
  Sim sim(burst_acr_config(), 6, 33);
  double mid = reference().finish_time * 0.5;
  sim.runtime.engine().schedule_at(mid, [&sim] {
    sim.runtime.cluster().kill_role(0, 2);
  });
  // Inside the first recovery's detection+restore window: a different
  // role, different buddy column, dies while rollback commands fly.
  sim.runtime.engine().schedule_at(mid + 0.002, [&sim] {
    sim.runtime.cluster().kill_role(1, 6);
  });
  RunSummary s = sim.runtime.run(30.0);
  ASSERT_TRUE(s.complete) << "overlapping failures wedged the job";
  EXPECT_GE(s.hard_failures, 2u);
  sim.runtime.engine().run_until(s.finish_time + 0.05);
  EXPECT_EQ(verified_digest(sim.runtime), reference().digest);
}

/// Same, under xor redundancy with the second death mid-group-rebuild.
TEST(Degradation, SecondFailureMidXorRebuildIsSerialized) {
  AcrConfig ac = burst_acr_config();
  ac.redundancy = ckpt::Scheme::Rs;  // --ckpt-scheme=xor
  ac.rs_parity = 1;
  ac.xor_group_size = 4;
  Sim sim(ac, 6, 34);
  double mid = reference().finish_time * 0.5;
  sim.runtime.engine().schedule_at(mid, [&sim] {
    sim.runtime.cluster().kill_role(0, 1);
  });
  sim.runtime.engine().schedule_at(mid + 0.0015, [&sim] {
    sim.runtime.cluster().kill_role(0, 5);  // other group of replica 0
  });
  RunSummary s = sim.runtime.run(30.0);
  ASSERT_TRUE(s.complete) << "failure mid-rebuild wedged the job";
  sim.runtime.engine().run_until(s.finish_time + 0.05);
  EXPECT_EQ(verified_digest(sim.runtime), reference().digest);
}

// ---------------------------------------------------------------------------
// End-to-end burst injection through the runtime.
// ---------------------------------------------------------------------------

/// Full pipeline: burst plan set on the runtime, seeds strike hardware
/// (spares included), repairs re-pool, summary counters line up with the
/// cluster's, and the adaptive interval reacts to the burst arrivals.
TEST(BurstEndToEnd, BurstsRepairsAndAdaptiveIntervalReact) {
  AcrConfig ac = burst_acr_config();
  ac.degrade = DegradeMode::Shrink;
  ac.adaptive = true;
  ac.adaptive_config.checkpoint_cost = ac.checkpoint_interval / 20.0;
  ac.adaptive_config.min_interval = ac.checkpoint_interval / 4.0;
  ac.adaptive_config.max_interval = ac.checkpoint_interval * 8.0;
  Sim sim(ac, 2, 41);
  failure::BurstConfig bc;
  bc.seed_mtbf = 0.01;
  bc.follow_prob = 0.6;
  bc.window = 0.001;
  bc.domain_size = 4;
  bc.repair_mean = 0.02;
  sim.runtime.set_burst_plan(bc);
  RunSummary s = sim.runtime.run(30.0);
  ASSERT_TRUE(s.complete || s.failed);  // must decide, never wedge
  EXPECT_GE(s.burst_seeds, 1u);
  EXPECT_GE(s.burst_node_kills, s.burst_seeds);
  const rt::Cluster::SpareCounters& sc = sim.runtime.cluster().spare_counters();
  EXPECT_EQ(s.spare_promotions, sc.promotions);
  EXPECT_EQ(s.spare_repairs, sc.repairs);
  EXPECT_EQ(s.spare_failures, sc.spare_failures);
  EXPECT_EQ(s.spare_low_water, sc.low_water);
  if (s.burst_node_kills > 0) {
    // The estimator saw the burst arrivals: interval off its ceiling.
    EXPECT_LT(sim.runtime.manager().current_interval(),
              ac.adaptive_config.max_interval);
  }
}

/// Determinism: the whole burst/repair/shrink pipeline replays bit-equal
/// under the same master seed.
TEST(BurstEndToEnd, RunsAreDeterministicPerSeed) {
  auto one = [](std::uint64_t seed) {
    AcrConfig ac = burst_acr_config();
    ac.degrade = DegradeMode::Shrink;
    Sim sim(ac, 2, seed);
    failure::BurstConfig bc;
    bc.seed_mtbf = 0.012;
    bc.follow_prob = 0.5;
    bc.domain_size = 4;
    bc.repair_mean = 0.025;
    sim.runtime.set_burst_plan(bc);
    RunSummary s = sim.runtime.run(30.0);
    std::uint64_t digest = 0;
    if (s.complete) {
      sim.runtime.engine().run_until(s.finish_time + 0.05);
      digest = verified_digest(sim.runtime);
    }
    return std::make_tuple(s.complete, s.finish_time, s.burst_node_kills,
                           s.roles_doubled, s.spare_repairs, digest);
  };
  EXPECT_EQ(one(55), one(55));
  EXPECT_NE(one(55), one(56));
}

}  // namespace
}  // namespace acr
