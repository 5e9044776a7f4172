// XOR-redundancy fault soak.
//
// --ckpt-scheme=xor is rs with one parity block per stripe (ckpt/rs.h), so
// the configs below are Scheme::Rs with rs_parity = 1.
//
// Property (ISSUE acceptance): under --ckpt-scheme=xor, killing any single
// node per parity group mid-run must be survivable — every run completes
// and its verified answer is bitwise identical to the fault-free answer.
// The group rebuild may legitimately fall back to a scratch restart when a
// member dies inside the commit→parity-exchange window (survivor parity
// lags the verified epoch), so scratch_restarts is not asserted zero; the
// bitwise answer is the contract.
//
// Runs under the `xor-soak` ctest label (CI runs it with ASan/UBSan).
#include <gtest/gtest.h>

#include <vector>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"
#include "ckpt/group.h"
#include "common/rng.h"
#include "soak_util.h"

namespace acr {
namespace {

constexpr int kGroupSize = 4;

AcrConfig soak_acr_config() {
  AcrConfig ac = soak::base_acr_config();  // xor requires strong
  ac.redundancy = ckpt::Scheme::Rs;  // --ckpt-scheme=xor is rs(1)
  ac.rs_parity = 1;
  ac.xor_group_size = kGroupSize;
  return ac;
}

/// Fault-free run under the *xor* configuration: fixes the expected answer
/// and the nominal completion time the kill schedule is drawn from (and
/// doubles as a check that the parity exchange itself is harmless).
const soak::Reference& reference() {
  static soak::Reference cached = soak::make_reference(
      soak::small_app(), soak_acr_config(),
      "xor soak reference run must complete");
  return cached;
}

/// One soak run: for every parity group in every replica, schedule the
/// death of one uniformly chosen member at a uniformly chosen time within
/// the nominal run. Returns the summary plus the verified digest.
struct SoakOutcome {
  soak::Outcome out;
  int kills = 0;
};

SoakOutcome soak_run(std::uint64_t seed) {
  apps::Jacobi3DConfig j = soak::small_app();
  AcrConfig ac = soak_acr_config();
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 16;
  cc.seed = seed;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();

  ckpt::GroupMap groups(cc.nodes_per_replica, kGroupSize);
  ACR_REQUIRE(groups.enabled(), "soak requires grouping");
  Pcg32 rng(seed, 0x50AF);
  SoakOutcome o;
  for (int r = 0; r < 2; ++r) {
    for (int g = 0; g < groups.num_groups(); ++g) {
      std::vector<int> members =
          groups.group_members(g * kGroupSize);  // any member's index works
      int victim = members[rng.bounded(
          static_cast<std::uint32_t>(members.size()))];
      // Anywhere from before the first checkpoint to just shy of the end.
      double when = reference().finish_time * (0.02 + 0.93 * rng.uniform());
      runtime.engine().schedule_at(when, [&runtime, r, victim] {
        if (!runtime.cluster().role_alive(r, victim)) return;
        runtime.cluster().kill_role(r, victim);
      });
      ++o.kills;
    }
  }

  o.out = soak::run_and_digest(runtime);
  return o;
}

class XorSoak : public ::testing::TestWithParam<int> {};

TEST_P(XorSoak, OneKillPerGroupRecoversBitwise) {
  std::uint64_t seed = 120000 + static_cast<std::uint64_t>(GetParam()) * 4813;
  SoakOutcome o = soak_run(seed);
  EXPECT_EQ(o.kills, 4);  // 2 replicas x 2 groups
  ASSERT_TRUE(o.out.summary.complete)
      << "wedged or failed at t=" << o.out.summary.finish_time << " (seed "
      << seed << ", scratch=" << o.out.summary.scratch_restarts << ")";
  EXPECT_EQ(o.out.digest, reference().digest) << "seed " << seed;
  // A kill landing just before completion can legitimately go undetected
  // (the job finishes inside the heartbeat timeout), so only an upper
  // bound holds.
  EXPECT_LE(o.out.summary.hard_failures, static_cast<std::uint64_t>(o.kills))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, XorSoak, ::testing::Range(0, 110));

// ---------------------------------------------------------------------------
// Targeted scenarios.
// ---------------------------------------------------------------------------

/// Under the partner scheme, losing both buddies of a node index forces a
/// scratch restart (neither replica holds the verified image any more).
/// Under xor the two buddies sit in *different* parity groups (one per
/// replica), so both rebuild independently from their group peers.
TEST(XorTargeted, BuddyPairLossIsSurvivable) {
  apps::Jacobi3DConfig j = soak::small_app();
  AcrConfig ac = soak_acr_config();
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 8;
  cc.seed = 77;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  double mid = reference().finish_time * 0.5;
  runtime.engine().schedule_at(mid, [&runtime] {
    runtime.cluster().kill_role(0, 3);
  });
  runtime.engine().schedule_at(mid * 1.2, [&runtime] {
    runtime.cluster().kill_role(1, 3);
  });
  soak::Outcome o = soak::run_and_digest(runtime);
  ASSERT_TRUE(o.summary.complete) << "buddy-pair loss not survived under xor";
  EXPECT_EQ(o.digest, reference().digest);
  EXPECT_GT(o.summary.parity_chunks_sent, 0u) << "parity exchange never ran";
  EXPECT_GE(o.summary.xor_rebuilds, 1u);
}

/// Two dead members in the *same* group exceed single-parity coverage; the
/// manager must fall back to a scratch restart — and the job must still
/// finish with the right answer.
TEST(XorTargeted, TwoDeadInOneGroupFallsBackToScratch) {
  apps::Jacobi3DConfig j = soak::small_app();
  AcrConfig ac = soak_acr_config();
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 8;
  cc.seed = 78;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  double mid = reference().finish_time * 0.5;
  // Same group (indices 0..3 of replica 0), near-simultaneous deaths: the
  // second falls while the first group rebuild is still in flight.
  runtime.engine().schedule_at(mid, [&runtime] {
    runtime.cluster().kill_role(0, 1);
  });
  runtime.engine().schedule_at(mid + 1e-5, [&runtime] {
    runtime.cluster().kill_role(0, 2);
  });
  soak::Outcome o = soak::run_and_digest(runtime);
  ASSERT_TRUE(o.summary.complete) << "double-death in one group wedged the job";
  EXPECT_EQ(o.digest, reference().digest);
}

/// The local policy keeps no cross-node redundancy at all: any hard failure
/// after the first commit still completes, but only ever by scratch restart.
TEST(XorTargeted, LocalPolicyRecoversOnlyFromScratch) {
  apps::Jacobi3DConfig j = soak::small_app();
  AcrConfig ac = soak_acr_config();
  ac.redundancy = ckpt::Scheme::Local;
  ac.xor_group_size = 0;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 8;
  cc.seed = 79;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  double mid = reference().finish_time * 0.5;
  runtime.engine().schedule_at(mid, [&runtime] {
    runtime.cluster().kill_role(0, 5);
  });
  soak::Outcome o = soak::run_and_digest(runtime);
  ASSERT_TRUE(o.summary.complete);
  EXPECT_EQ(o.summary.scratch_restarts, 1u);
  EXPECT_EQ(o.summary.xor_rebuilds, 0u);
  EXPECT_EQ(o.digest, reference().digest);
}

}  // namespace
}  // namespace acr
