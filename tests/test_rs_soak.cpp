// Reed–Solomon redundancy fault soak.
//
// Property (ISSUE acceptance): under --ckpt-scheme=rs --rs-parity=2,
// killing TWO nodes per parity group mid-run — the correlated-burst shape
// that defeats XOR's single parity block — is survivable in place: every
// seeded run completes with the bitwise fault-free answer and ZERO
// scratch restarts. The L2 tier rides along as the documented backstop
// for the commit→parity-exchange race (a member dying before the round
// completes leaves the survivors' parity behind their verified epoch;
// the ladder then serves an L2 fetch, never a scratch restart). The
// targeted contrast tests pin the pure-L1 story: without any tier, a
// double loss in one group rebuilds through the RS wave alone, while the
// identical schedule under xor has to degrade.
//
// Runs under the `rs-soak` ctest label (CI runs it with ASan/UBSan).
#include <gtest/gtest.h>

#include <vector>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"
#include "ckpt/group.h"
#include "common/rng.h"
#include "parallel/pool.h"
#include "soak_util.h"

namespace acr {
namespace {

constexpr int kGroupSize = 4;
constexpr int kParity = 2;

AcrConfig soak_acr_config(bool tier) {
  AcrConfig ac = soak::base_acr_config();  // rs requires strong
  ac.redundancy = ckpt::Scheme::Rs;
  ac.xor_group_size = kGroupSize;
  ac.rs_parity = kParity;
  if (tier) ac.tier.bandwidth = 1e9;
  return ac;
}

/// Fault-free run under the *rs* configuration: fixes the expected answer
/// and the nominal completion time the kill schedule is drawn from (and
/// doubles as a check that the GF(256) parity exchange is harmless).
const soak::Reference& reference() {
  static soak::Reference cached = soak::make_reference(
      soak::small_app(), soak_acr_config(/*tier=*/false),
      "rs soak reference run must complete");
  return cached;
}

/// One soak run: for every parity group in every replica, schedule the
/// near-simultaneous death of TWO uniformly chosen members at a uniformly
/// chosen time. The window starts at 25% of the nominal run so the first
/// epoch is always durable on L2 — the "zero scratch restarts" pin is
/// about recovery routing, not about faults outrunning the first commit.
struct SoakOutcome {
  soak::Outcome out;
  int kills = 0;
};

SoakOutcome soak_run(std::uint64_t seed) {
  apps::Jacobi3DConfig j = soak::small_app();
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 16;
  cc.seed = seed;
  AcrRuntime runtime(soak_acr_config(/*tier=*/true), cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();

  ckpt::GroupMap groups(cc.nodes_per_replica, kGroupSize);
  ACR_REQUIRE(groups.enabled(), "soak requires grouping");
  Pcg32 rng(seed, 0x2505);
  SoakOutcome o;
  for (int r = 0; r < 2; ++r) {
    for (int g = 0; g < groups.num_groups(); ++g) {
      std::vector<int> members = groups.group_members(g * kGroupSize);
      // Two distinct victims per group: the shape XOR cannot absorb.
      int a = members[rng.bounded(static_cast<std::uint32_t>(members.size()))];
      int b = a;
      while (b == a)
        b = members[rng.bounded(static_cast<std::uint32_t>(members.size()))];
      double when = reference().finish_time * (0.25 + 0.70 * rng.uniform());
      double gap = 2e-4 * rng.uniform();  // second death lands mid-recovery
      for (auto [victim, at] : {std::pair{a, when}, std::pair{b, when + gap}}) {
        runtime.engine().schedule_at(at, [&runtime, r, victim] {
          if (!runtime.cluster().role_alive(r, victim)) return;
          runtime.cluster().kill_role(r, victim);
        });
        ++o.kills;
      }
    }
  }

  o.out = soak::run_and_digest(runtime);
  return o;
}

class RsSoak : public ::testing::TestWithParam<int> {};

TEST_P(RsSoak, TwoKillsPerGroupRecoverBitwiseWithoutScratch) {
  std::uint64_t seed = 240000 + static_cast<std::uint64_t>(GetParam()) * 4813;
  SoakOutcome o = soak_run(seed);
  EXPECT_EQ(o.kills, 8);  // 2 replicas x 2 groups x 2 victims
  ASSERT_TRUE(o.out.summary.complete)
      << "wedged or failed at t=" << o.out.summary.finish_time << " (seed "
      << seed << ", scratch=" << o.out.summary.scratch_restarts
      << ", waves=" << o.out.summary.l2_fetch_waves << ")";
  EXPECT_EQ(o.out.digest, reference().digest) << "seed " << seed;
  EXPECT_EQ(o.out.summary.scratch_restarts, 0u)
      << "seed " << seed << ": rs + L2 must never fall to scratch";
  EXPECT_EQ(o.out.summary.parity_rebuilds_rejected, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RsSoak, ::testing::Range(0, 110));

// ---------------------------------------------------------------------------
// Targeted scenarios (no tier: the pure-L1 story).
// ---------------------------------------------------------------------------

/// Wire a no-tier runtime and kill `dead` members of replica 0's first
/// group at mid-run, `gap` apart.
soak::Outcome run_group_kill(const AcrConfig& ac,
                             const std::vector<int>& dead, double gap) {
  apps::Jacobi3DConfig j = soak::small_app();
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 8;
  cc.seed = 91;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  double mid = reference().finish_time * 0.5;
  for (std::size_t i = 0; i < dead.size(); ++i) {
    int victim = dead[i];
    runtime.engine().schedule_at(mid + gap * static_cast<double>(i),
                                 [&runtime, victim] {
                                   runtime.cluster().kill_role(0, victim);
                                 });
  }
  return soak::run_and_digest(runtime);
}

/// Two dead in one group, no tier anywhere: the RS wave alone rebuilds
/// both spares bitwise — no fetch ladder, no scratch restart.
TEST(RsTargeted, TwoDeadInOneGroupRebuildViaParityAlone) {
  soak::Outcome o =
      run_group_kill(soak_acr_config(/*tier=*/false), {1, 2}, 1e-5);
  ASSERT_TRUE(o.summary.complete) << "double loss not survived under rs";
  EXPECT_EQ(o.digest, reference().digest);
  EXPECT_EQ(o.summary.scratch_restarts, 0u);
  EXPECT_EQ(o.summary.l2_fetch_waves, 0u);
  EXPECT_GE(o.summary.xor_rebuilds, 2u) << "both spares must solve locally";
  EXPECT_GT(o.summary.parity_rebuild_pieces, 0u);
  EXPECT_GT(o.summary.parity_rebuild_bytes, 0u);
}

/// The IDENTICAL schedule under xor: one parity block cannot cover two
/// losses, so the manager must degrade (scratch restart) — and the job
/// still finishes with the right answer.
TEST(RsTargeted, IdenticalScheduleUnderXorDegrades) {
  AcrConfig ac = soak_acr_config(/*tier=*/false);
  ac.rs_parity = 1;  // --ckpt-scheme=xor
  soak::Outcome o = run_group_kill(ac, {1, 2}, 1e-5);
  ASSERT_TRUE(o.summary.complete);
  EXPECT_EQ(o.digest, reference().digest);
  EXPECT_GE(o.summary.scratch_restarts, 1u)
      << "xor absorbed a double loss it has no parity for";
}

/// Three dead in one group exceed m = 2: undecodable, so the manager falls
/// down the recovery ladder (scratch without a tier) and still completes.
TEST(RsTargeted, BeyondParityBudgetFallsDownTheLadder) {
  soak::Outcome o =
      run_group_kill(soak_acr_config(/*tier=*/false), {0, 1, 2}, 1e-5);
  ASSERT_TRUE(o.summary.complete) << "triple loss wedged the job";
  EXPECT_EQ(o.digest, reference().digest);
  EXPECT_GE(o.summary.scratch_restarts, 1u);
}

/// The whole recovery path — GF(256) encode, the multi-loss Gaussian
/// solve, the restore — is bitwise invariant under the kernel pool's
/// thread count (the acceptance bit --ckpt-scheme=rs shares with every
/// other data-plane kernel).
TEST(RsTargeted, RebuildIsKernelThreadCountInvariant) {
  std::vector<std::uint64_t> digests;
  for (int threads : {0, 3}) {
    parallel::set_global_threads(threads);
    soak::Outcome o =
        run_group_kill(soak_acr_config(/*tier=*/false), {1, 3}, 1e-5);
    parallel::set_global_threads(0);
    ASSERT_TRUE(o.summary.complete) << threads << " threads";
    digests.push_back(o.digest);
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], reference().digest);
}

}  // namespace
}  // namespace acr
