// Deterministic tests of the node-side Fig. 3 reductions (max progress,
// readiness, compare verdict) under an at-least-once transport: crafted
// tree messages are handed straight to the agents of one replica laid out
// as a root and two children, and whatever the root sends to the manager
// is recorded.
#include <gtest/gtest.h>

#include "acr/node_agent.h"
#include "rt/cluster.h"

namespace acr {
namespace {

/// One-slot task whose progress a test sets by hand.
class StepTask final : public rt::Task {
 public:
  void on_start() override {}
  void on_resume() override {}
  void on_message(const rt::Message&) override {}
  void pup(pup::Puper& p) override { p | iter_; }
  std::uint64_t progress() const override { return iter_; }

  void advance(std::uint64_t to) {
    iter_ = to;
    ctx->report_progress(iter_);
  }

 private:
  std::uint64_t iter_ = 0;
};

/// 3 nodes per replica (root 0, children 1 and 2), an agent on every node,
/// the manager replaced by a recorder.
struct TreeFixture {
  rt::Engine engine;
  rt::ClusterConfig cc;
  AcrConfig ac;
  std::unique_ptr<rt::Cluster> cluster;
  std::vector<rt::Message> to_manager;

  TreeFixture() {
    cc.nodes_per_replica = 3;
    cc.spare_nodes = 0;
    cluster = std::make_unique<rt::Cluster>(engine, cc);
    cluster->set_task_factory([](int, int) {
      std::vector<std::unique_ptr<rt::Task>> out;
      out.push_back(std::make_unique<StepTask>());
      return out;
    });
    cluster->populate();
    for (int r = 0; r < 2; ++r)
      for (int i = 0; i < cc.nodes_per_replica; ++i) {
        rt::Node& n = cluster->node_at(r, i);
        n.set_service(std::make_unique<NodeAgent>(
            AcrEnv{cluster.get(), &ac, nullptr}, n));
      }
    cluster->set_manager_hook(
        [this](const rt::Message& m) { to_manager.push_back(m); });
  }

  NodeAgent& agent(int r, int i) {
    return *static_cast<NodeAgent*>(cluster->node_at(r, i).service());
  }
  StepTask& task(int r, int i) {
    return static_cast<StepTask&>(cluster->node_at(r, i).task(0));
  }

  /// Hand `agent(dst_r, dst_i)` a service message as if `src_i` of
  /// `src_r` had sent it (src_i = -1: the manager).
  template <typename T>
  void deliver(int dst_r, int dst_i, int src_r, int src_i, int tag, T msg,
               buf::Buffer attachment = {}) {
    rt::Message m;
    m.tag = tag;
    m.src_replica = src_r;
    m.dst_replica = dst_r;
    m.src = rt::TaskAddr{src_i, rt::kServiceSlot};
    m.dst = rt::TaskAddr{dst_i, rt::kServiceSlot};
    m.payload = rt::pack_payload(msg);
    m.attachment = std::move(attachment);
    agent(dst_r, dst_i).on_service_message(m);
  }

  void request(int r, std::uint64_t epoch) {
    deliver(r, 0, -1, -1, wire::kCheckpointRequest,
            wire::CkptRequestMsg{epoch, 3});
  }

  std::vector<rt::Message> sent(int tag) {
    engine.run();
    std::vector<rt::Message> out;
    for (const rt::Message& m : to_manager)
      if (m.tag == tag) out.push_back(m);
    return out;
  }
};

TEST(ConsensusTree, EarlyChildProgressIsStashedAndReplayed) {
  TreeFixture f;
  // Child 1's report overtakes the root's own request: it is parked, not
  // dropped, and counts once the request lands.
  f.deliver(0, 0, 0, 1, wire::kTreeProgress, wire::ProgressMsg{1, 7});
  f.request(0, 1);
  EXPECT_TRUE(f.sent(wire::kReplicaQuiesced).empty());  // child 2 missing
  f.deliver(0, 0, 0, 2, wire::kTreeProgress, wire::ProgressMsg{1, 3});
  auto up = f.sent(wire::kReplicaQuiesced);
  ASSERT_EQ(up.size(), 1u);
  auto msg = rt::unpack_payload<wire::ProgressMsg>(up[0]);
  EXPECT_EQ(msg.epoch, 1u);
  EXPECT_EQ(msg.max_progress, 7u);
}

TEST(ConsensusTree, DuplicateProgressCountsOnce) {
  TreeFixture f;
  f.request(0, 1);
  f.deliver(0, 0, 0, 1, wire::kTreeProgress, wire::ProgressMsg{1, 5});
  f.deliver(0, 0, 0, 1, wire::kTreeProgress, wire::ProgressMsg{1, 5});
  EXPECT_TRUE(f.sent(wire::kReplicaQuiesced).empty());
  f.deliver(0, 0, 0, 2, wire::kTreeProgress, wire::ProgressMsg{1, 2});
  auto up = f.sent(wire::kReplicaQuiesced);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(rt::unpack_payload<wire::ProgressMsg>(up[0]).max_progress, 5u);
  // A late duplicate after the stage completed sends nothing more.
  f.deliver(0, 0, 0, 2, wire::kTreeProgress, wire::ProgressMsg{1, 2});
  EXPECT_EQ(f.sent(wire::kReplicaQuiesced).size(), 1u);
}

TEST(ConsensusTree, DuplicateReadyCountsOnce) {
  TreeFixture f;
  f.request(0, 1);
  f.task(0, 0).advance(1);  // pauses: the round is quiescing
  f.deliver(0, 0, -1, -1, wire::kIterationDecided, wire::IterationMsg{1, 1});
  f.deliver(0, 0, 0, 1, wire::kTreeReady, wire::EpochMsg{1});
  f.deliver(0, 0, 0, 1, wire::kTreeReady, wire::EpochMsg{1});
  EXPECT_TRUE(f.sent(wire::kReplicaReady).empty());  // child 2 missing
  f.deliver(0, 0, 0, 2, wire::kTreeReady, wire::EpochMsg{1});
  auto up = f.sent(wire::kReplicaReady);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(rt::unpack_payload<wire::EpochMsg>(up[0]).epoch, 1u);
}

TEST(ConsensusTree, ReadyWaitsForTheLocalTasks) {
  TreeFixture f;
  f.request(0, 1);
  f.deliver(0, 0, -1, -1, wire::kIterationDecided, wire::IterationMsg{1, 2});
  f.deliver(0, 0, 0, 1, wire::kTreeReady, wire::EpochMsg{1});
  f.deliver(0, 0, 0, 2, wire::kTreeReady, wire::EpochMsg{1});
  EXPECT_TRUE(f.sent(wire::kReplicaReady).empty());  // task short of 2
  f.task(0, 0).advance(2);
  EXPECT_EQ(f.sent(wire::kReplicaReady).size(), 1u);
}

TEST(ConsensusTree, DuplicateVerdictCountsOnce) {
  TreeFixture f;
  // Replica 1's root runs the compare: a round up to a packed candidate,
  // then the buddy's identical image.
  f.request(1, 1);
  f.task(1, 0).advance(1);
  f.deliver(1, 0, -1, -1, wire::kIterationDecided, wire::IterationMsg{1, 1});
  f.deliver(1, 0, -1, -1, wire::kPackCommand, wire::EpochMsg{1});
  f.task(0, 0).advance(1);
  pup::Checkpoint buddy = f.cluster->node_at(0, 0).pack_state();
  f.deliver(1, 0, 0, 0, wire::kBuddyCheckpoint,
            wire::CheckpointMsg{1, 1, 0, 0}, buddy.buffer());
  f.deliver(1, 0, 1, 1, wire::kTreeVerdict, wire::VerdictMsg{1, 0, 1});
  f.deliver(1, 0, 1, 1, wire::kTreeVerdict, wire::VerdictMsg{1, 0, 1});
  EXPECT_TRUE(f.sent(wire::kReplicaVerdict).empty());  // child 2 missing
  f.deliver(1, 0, 1, 2, wire::kTreeVerdict, wire::VerdictMsg{1, 1, 0});
  auto up = f.sent(wire::kReplicaVerdict);
  ASSERT_EQ(up.size(), 1u);
  auto v = rt::unpack_payload<wire::VerdictMsg>(up[0]);
  EXPECT_EQ(v.epoch, 1u);
  EXPECT_EQ(v.match, 0);  // child 1's mismatch, ANDed in once
  EXPECT_EQ(v.mismatched_nodes, 1u);  // summed once, not twice
}

TEST(ConsensusTree, StaleEpochContributionsAreIgnored) {
  TreeFixture f;
  f.request(0, 2);
  f.task(0, 0).advance(1);
  // Epoch-1 stragglers: none may count toward epoch 2 or be stashed.
  f.deliver(0, 0, 0, 1, wire::kTreeProgress, wire::ProgressMsg{1, 99});
  f.deliver(0, 0, 0, 2, wire::kTreeProgress, wire::ProgressMsg{1, 99});
  EXPECT_TRUE(f.sent(wire::kReplicaQuiesced).empty());
  f.deliver(0, 0, 0, 1, wire::kTreeProgress, wire::ProgressMsg{2, 4});
  f.deliver(0, 0, 0, 2, wire::kTreeProgress, wire::ProgressMsg{2, 3});
  auto up = f.sent(wire::kReplicaQuiesced);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(rt::unpack_payload<wire::ProgressMsg>(up[0]).max_progress, 4u);

  f.deliver(0, 0, -1, -1, wire::kIterationDecided, wire::IterationMsg{2, 1});
  f.deliver(0, 0, 0, 1, wire::kTreeReady, wire::EpochMsg{1});
  f.deliver(0, 0, 0, 2, wire::kTreeReady, wire::EpochMsg{1});
  EXPECT_TRUE(f.sent(wire::kReplicaReady).empty());
  f.deliver(0, 0, 0, 1, wire::kTreeReady, wire::EpochMsg{2});
  f.deliver(0, 0, 0, 2, wire::kTreeReady, wire::EpochMsg{2});
  EXPECT_EQ(f.sent(wire::kReplicaReady).size(), 1u);
}

TEST(ConsensusTree, StaleEpochVerdictsAreIgnored) {
  TreeFixture f;
  f.request(1, 2);
  f.task(1, 0).advance(1);
  f.deliver(1, 0, -1, -1, wire::kIterationDecided, wire::IterationMsg{2, 1});
  f.deliver(1, 0, -1, -1, wire::kPackCommand, wire::EpochMsg{2});
  f.task(0, 0).advance(1);
  pup::Checkpoint buddy = f.cluster->node_at(0, 0).pack_state();
  f.deliver(1, 0, 0, 0, wire::kBuddyCheckpoint,
            wire::CheckpointMsg{2, 1, 0, 0}, buddy.buffer());
  f.deliver(1, 0, 1, 1, wire::kTreeVerdict, wire::VerdictMsg{1, 0, 5});
  f.deliver(1, 0, 1, 2, wire::kTreeVerdict, wire::VerdictMsg{1, 0, 5});
  EXPECT_TRUE(f.sent(wire::kReplicaVerdict).empty());
  f.deliver(1, 0, 1, 1, wire::kTreeVerdict, wire::VerdictMsg{2, 1, 0});
  f.deliver(1, 0, 1, 2, wire::kTreeVerdict, wire::VerdictMsg{2, 1, 0});
  auto up = f.sent(wire::kReplicaVerdict);
  ASSERT_EQ(up.size(), 1u);
  auto v = rt::unpack_payload<wire::VerdictMsg>(up[0]);
  EXPECT_EQ(v.match, 1);
  EXPECT_EQ(v.mismatched_nodes, 0u);
}

}  // namespace
}  // namespace acr
