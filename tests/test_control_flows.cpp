// Fig. 5 control-flow tests: trace-level assertions that each scheme's
// recovery follows the paper's event sequence, not merely that it ends in
// the right state.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>

#include "acr/runtime.h"
#include "acr/stats.h"
#include "apps/jacobi3d.h"

namespace acr {
namespace {

apps::Jacobi3DConfig app_cfg() {
  apps::Jacobi3DConfig cfg;
  cfg.tasks_x = cfg.tasks_y = cfg.tasks_z = 2;
  cfg.block_x = cfg.block_y = cfg.block_z = 4;
  cfg.iterations = 40;
  cfg.slots_per_node = 2;
  cfg.seconds_per_point = 1e-5;
  return cfg;
}

struct DriverRun {
  std::unique_ptr<AcrRuntime> runtime;
  RunSummary summary;
};

DriverRun run_with_kill(ResilienceScheme scheme, double kill_at) {
  apps::Jacobi3DConfig j = app_cfg();
  AcrConfig ac;
  ac.scheme = scheme;
  ac.checkpoint_interval = 0.005;
  ac.heartbeat_period = 0.0005;
  ac.heartbeat_timeout = 0.002;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 2;
  DriverRun run;
  run.runtime = std::make_unique<AcrRuntime>(ac, cc);
  run.runtime->set_task_factory(j.factory());
  run.runtime->setup();
  run.runtime->engine().schedule_at(kill_at, [&rt_ = *run.runtime] {
    rt_.cluster().trace().record(rt_.engine().now(),
                                 rt::TraceKind::HardFailureInjected, 1, 1);
    rt_.cluster().kill_role(1, 1);
  });
  run.summary = run.runtime->run(100.0);
  return run;
}

/// First event of `kind` at or after time `t` (several protocol steps can
/// share a timestamp in virtual time).
const rt::TraceEvent* first_after(const rt::TraceLog& log, rt::TraceKind kind,
                                  double t) {
  for (const auto& e : log.events())
    if (e.kind == kind && e.time >= t) return &e;
  return nullptr;
}

double last_commit_before(const rt::TraceLog& log, double t) {
  double result = -1.0;
  for (const auto& e : log.events())
    if (e.kind == rt::TraceKind::CheckpointCommitted && e.time < t)
      result = e.time;
  return result;
}

TEST(ControlFlow, StrongRollsBackWithoutNewCheckpoint) {
  // Fig. 5b: the crashed replica restarts from the checkpoint at T1; no
  // recovery checkpoint is taken between detection and recovery-complete.
  DriverRun run = run_with_kill(ResilienceScheme::Strong, 0.012);
  ASSERT_TRUE(run.summary.complete);
  const auto& log = run.runtime->trace();
  const auto* detected =
      first_after(log, rt::TraceKind::HardFailureDetected, 0.012);
  ASSERT_NE(detected, nullptr);
  const auto* recovered =
      first_after(log, rt::TraceKind::RecoveryCompleted, detected->time);
  ASSERT_NE(recovered, nullptr);
  // No checkpoint request in (detected, recovered): strong reuses T1.
  const auto* req =
      first_after(log, rt::TraceKind::CheckpointRequested, detected->time);
  if (req != nullptr)
    EXPECT_GE(req->time, recovered->time)
        << "strong recovery must not take a fresh checkpoint";
  // A verified checkpoint existed before the failure to roll back to.
  EXPECT_GT(last_commit_before(log, detected->time), 0.0);
}

TEST(ControlFlow, MediumTakesImmediateRecoveryCheckpoint) {
  // Fig. 5c: detection triggers a (recovery) checkpoint right away, well
  // before the next periodic tick would have fired.
  DriverRun run = run_with_kill(ResilienceScheme::Medium, 0.012);
  ASSERT_TRUE(run.summary.complete);
  const auto& log = run.runtime->trace();
  const auto* detected =
      first_after(log, rt::TraceKind::HardFailureDetected, 0.012);
  ASSERT_NE(detected, nullptr);
  const auto* req =
      first_after(log, rt::TraceKind::CheckpointRequested, detected->time);
  ASSERT_NE(req, nullptr);
  EXPECT_NE(req->detail.find("recovery"), std::string::npos);
  EXPECT_LT(req->time - detected->time, 0.002)
      << "medium must checkpoint immediately on detection";
  const auto* recovered =
      first_after(log, rt::TraceKind::RecoveryCompleted, detected->time);
  ASSERT_NE(recovered, nullptr);
  EXPECT_GE(recovered->time, req->time);
}

TEST(ControlFlow, WeakWaitsForNextPeriodicCheckpoint) {
  // Fig. 5d: nothing happens at detection; recovery rides the next
  // periodic checkpoint (~interval after the last commit).
  DriverRun run = run_with_kill(ResilienceScheme::Weak, 0.012);
  ASSERT_TRUE(run.summary.complete);
  const auto& log = run.runtime->trace();
  const auto* detected =
      first_after(log, rt::TraceKind::HardFailureDetected, 0.012);
  ASSERT_NE(detected, nullptr);
  const auto* req =
      first_after(log, rt::TraceKind::CheckpointRequested, detected->time);
  ASSERT_NE(req, nullptr);
  // The recovery checkpoint is the next *scheduled* one: it fires no
  // sooner than ~40% of an interval after detection in this timing
  // arrangement (kill shortly after a periodic commit).
  EXPECT_GT(req->time - detected->time, 0.002)
      << "weak must not take an immediate checkpoint";
  const auto* recovered =
      first_after(log, rt::TraceKind::RecoveryCompleted, req->time);
  ASSERT_NE(recovered, nullptr);
}

TEST(ControlFlow, HardOnlyRecoversWithoutPeriodicCheckpoints) {
  // Fig. 5a: no periodic checkpointing at all; the failure triggers the
  // one and only (recovery) checkpoint.
  DriverRun run = run_with_kill(ResilienceScheme::HardOnly, 0.012);
  ASSERT_TRUE(run.summary.complete);
  const auto& log = run.runtime->trace();
  std::size_t requests = log.count(rt::TraceKind::CheckpointRequested);
  EXPECT_EQ(requests, 1u);  // exactly the recovery checkpoint
  const auto* req = first_after(log, rt::TraceKind::CheckpointRequested, 0.0);
  ASSERT_NE(req, nullptr);
  EXPECT_NE(req->detail.find("recovery"), std::string::npos);
  EXPECT_EQ(log.count(rt::TraceKind::RecoveryCompleted), 1u);
}

TEST(ControlFlow, RecoveryLatencyIsBoundedByDetectionPlusTransfer) {
  DriverRun run = run_with_kill(ResilienceScheme::Strong, 0.012);
  ASSERT_TRUE(run.summary.complete);
  TraceSummary ts = summarize_trace(run.runtime->trace());
  ASSERT_EQ(ts.recoveries.size(), 1u);
  // Detection took ~heartbeat_timeout; recovery itself (restore barrier)
  // is a few checkpoint-transfer latencies, well under one interval.
  EXPECT_LT(ts.mean_detection_latency, 0.004);
  EXPECT_LT(ts.recoveries[0].duration(), 0.005);
}

// ---------------------------------------------------------------------------
// Recovery-ladder entries the fault soaks do not reach.
// ---------------------------------------------------------------------------

TEST(ControlFlow, LinkFailureBetweenLiveNodesRestartsFromScratch) {
  // No node ever dies; lossy links with a small retry budget exhaust it
  // between two live endpoints. Per-link protocol state is unrecoverable,
  // so the manager degrades to a counted scratch restart.
  apps::Jacobi3DConfig j = app_cfg();
  AcrConfig ac;
  ac.checkpoint_interval = 0.005;
  ac.heartbeat_period = 0.0005;
  ac.heartbeat_timeout = 0.002;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 2;
  cc.seed = 3;
  cc.net_faults.drop_rate = 0.05;
  cc.reliable.retry_budget = 2;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  RunSummary s = runtime.run(0.05);
  EXPECT_EQ(s.hard_failures, 0u);
  EXPECT_GE(s.net_link_failures, 1u);
  ASSERT_GE(s.scratch_restarts, 1u);
  const auto& log = runtime.trace();
  EXPECT_EQ(log.count(rt::TraceKind::HardFailureDetected), 0u);
  // The first rollback is a scratch restart: the escalation of a link
  // failure traced at the same instant.
  const auto* restart = first_after(log, rt::TraceKind::Rollback, 0.0);
  ASSERT_NE(restart, nullptr);
  EXPECT_EQ(restart->detail, "restart from scratch");
  const auto* link = first_after(log, rt::TraceKind::LinkFailure, 0.0);
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->time, restart->time);
}

/// The driver's defaults under --net-loss 0.2 --net-retry-budget 1
/// --seed 2: the wire loses more frames than one retry covers, so links
/// keep failing between live nodes.
std::unique_ptr<AcrRuntime> link_storm_runtime() {
  apps::Jacobi3DConfig j;
  j.tasks_x = j.tasks_y = 2;
  j.tasks_z = 8;
  j.block_x = j.block_y = j.block_z = 4;
  j.slots_per_node = 4;  // 8 nodes per replica
  j.iterations = 60;
  j.seconds_per_point = 1e-5;
  AcrConfig ac;
  ac.checkpoint_interval = 0.004;
  ac.heartbeat_period = 0.0005;
  ac.heartbeat_timeout = 0.002;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 4;
  cc.seed = 2;
  cc.net_faults.drop_rate = 0.2;
  cc.reliable.retry_budget = 1;
  auto runtime = std::make_unique<AcrRuntime>(ac, cc);
  runtime->set_task_factory(j.factory());
  runtime->setup();
  return runtime;
}

TEST(ControlFlow, StaleLinkFailuresDoNotRelaunchTheJobAgain) {
  // Each scratch restart abandons every frame still in flight; their retry
  // budgets keep running out afterwards. A report about a frame sent
  // before the newest relaunch must not relaunch again — otherwise every
  // such report restarts the job, the restarts feed the next reports, and
  // pending events grow without bound (unchecked, this run passes 10 M
  // pending events and aborts).
  std::unique_ptr<AcrRuntime> runtime = link_storm_runtime();
  // Step by hand so a regression fails on the bound, not on memory.
  constexpr std::size_t kPendingBound = 20000;
  rt::Engine& engine = runtime->engine();
  while (engine.now() < 0.05 && !runtime->manager().job_complete() &&
         !runtime->manager().job_failed() && engine.step()) {
    ASSERT_LE(engine.pending(), kPendingBound)
        << "restart storm at t=" << engine.now() << " after "
        << runtime->manager().scratch_restarts() << " scratch restarts";
  }
  EXPECT_GE(runtime->cluster().net_counters().link_failures, 1u);
  EXPECT_GE(runtime->manager().scratch_restarts(), 1u);
}

TEST(ControlFlow, LinkFailureStormFailsTheJobInsteadOfRelaunchingForever) {
  // Every relaunch of the storm dies of another link failure before it can
  // commit. Without a give-up the job relaunched until the 600 s virtual
  // timeout, which took minutes of wall time and hundreds of MB; now it
  // ends FAILED after a bounded number of relaunches.
  std::unique_ptr<AcrRuntime> runtime = link_storm_runtime();
  auto t0 = std::chrono::steady_clock::now();
  RunSummary s = runtime->run(600.0);
  double wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  EXPECT_TRUE(s.failed);
  EXPECT_FALSE(s.complete);
  EXPECT_EQ(s.hard_failures, 0u);
  EXPECT_LT(s.finish_time, 1.0) << "virtual seconds";
  EXPECT_LT(wall, 30.0) << "wall seconds";
  const rt::TraceEvent* end = first_after(
      runtime->trace(), rt::TraceKind::JobComplete, 0.0);
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(end->detail, "FAILED: 5 link-failure relaunches without a commit");
}

TEST(ControlFlow, CheckpointlessNodeInEscalationGetsARoutedRestore) {
  // Hard-only scheme: replica 0 holds no checkpoint until a recovery
  // checkpoint of replica 1 is shipped over. (0,3) dies; replica 1 commits
  // epoch 1 and ships it. (0,1) died just after (0,3) and its detection
  // lands while those images are still in flight, so the manager escalates
  // and tells the live (0,0) and (0,2) to roll back to epoch 1 — which they
  // do not hold. They ask for a routed restore (kNeedBuddyRestore), and the
  // manager has their buddies ship their verified copies. Without that
  // route the escalated wave never completes.
  apps::Jacobi3DConfig j = app_cfg();
  AcrConfig ac;
  ac.scheme = ResilienceScheme::HardOnly;
  ac.heartbeat_period = 0.0001;
  ac.heartbeat_timeout = 0.0004;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 4;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  runtime.engine().schedule_at(0.012,
                               [&runtime] { runtime.cluster().kill_role(0, 3); });
  runtime.engine().schedule_at(0.01234,
                               [&runtime] { runtime.cluster().kill_role(0, 1); });
  // The precondition, checked the moment the escalation is traced: the
  // live replica-0 nodes hold no checkpoint to roll back to.
  bool escalated = false;
  bool checkpointless = false;
  std::function<void()> watch = [&] {
    if (runtime.trace().count(rt::TraceKind::Rollback) > 0) {
      escalated = true;
      checkpointless = !runtime.agent_at(0, 0).has_verified() &&
                       !runtime.agent_at(0, 2).has_verified();
      return;
    }
    if (runtime.engine().now() < 0.02)
      runtime.engine().schedule_after(1e-6, watch);
  };
  runtime.engine().schedule_at(0.012, watch);
  RunSummary s = runtime.run(10.0);
  ASSERT_TRUE(escalated);
  ASSERT_TRUE(checkpointless)
      << "the timing no longer reaches a checkpoint-less rollback";
  ASSERT_TRUE(s.complete) << "the escalated wave never completed";
  EXPECT_EQ(s.scratch_restarts, 0u);
  EXPECT_EQ(s.recoveries, 1u);
  const auto& log = runtime.trace();
  ASSERT_EQ(log.count(rt::TraceKind::Rollback), 1u);
  const auto* rollback = first_after(log, rt::TraceKind::Rollback, 0.0);
  EXPECT_NE(rollback->detail.find("escalated rollback to epoch=1"),
            std::string::npos);
  EXPECT_EQ(runtime.agent_at(0, 0).verified_epoch(), 1u);
  EXPECT_EQ(runtime.agent_at(0, 2).verified_epoch(), 1u);
}

}  // namespace
}  // namespace acr
