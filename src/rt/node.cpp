#include "rt/node.h"

#include "common/logging.h"
#include "rt/cluster.h"

namespace acr::rt {

/// One task slot: the task, the TaskContext it runs against (the record
/// itself, so the pause check on every app message reads a flag beside the
/// task pointer), and the node's consensus bookkeeping for it.
class TaskSlot final : public TaskContext {
 public:
  TaskSlot(Node& node, int slot, std::unique_ptr<Task> task)
      : node_(node), slot_(slot), task_(std::move(task)) {
    task_->ctx = this;
  }
  TaskSlot(const TaskSlot&) = delete;
  TaskSlot& operator=(const TaskSlot&) = delete;

  void send(TaskAddr dst, int tag, buf::Buffer payload) override {
    if (!node_.alive()) return;  // fail-stop: a dead node sends nothing
    node_.cluster().send_task(node_.replica(), self(), dst, tag,
                              std::move(payload));
  }

  void after_compute(double seconds, SmallFunction fn) override {
    if (!node_.alive()) return;
    std::uint64_t inc = node_.incarnation();
    Node* node = &node_;
    // The event captures only {node, incarnation, slot} and finds the
    // continuation parked here, so it fits the engine's inline storage.
    ACR_REQUIRE(!pending_ || pending_inc_ != inc,
                "a task may have one compute continuation in flight");
    pending_ = std::move(fn);  // a stale parked one can no longer fire
    pending_inc_ = inc;
    int slot = slot_;
    node->cluster().engine().schedule_after(seconds, [node, inc, slot]() {
      // A kill or rollback in the meantime invalidates the continuation
      // (create_tasks also replaces this record, so check first).
      if (!node->alive() || node->incarnation() != inc) return;
      node->slots_[static_cast<std::size_t>(slot)]->run_pending();
    });
  }

  void notify_done() override {
    done_ = true;
    if (node_.service() != nullptr) node_.service()->on_task_done(slot_);
  }

  ProgressDecision report_progress(std::uint64_t iters) override {
    progress_ = iters;
    ProgressDecision d = ProgressDecision::Continue;
    if (node_.service() != nullptr)
      d = node_.service()->on_progress(slot_, iters);
    if (d == ProgressDecision::Pause) paused_ = true;
    return d;
  }

  double now() const override { return node_.cluster().engine().now(); }
  TaskAddr self() const override { return TaskAddr{node_.node_index(), slot_}; }
  int replica() const override { return node_.replica(); }
  int num_nodes() const override { return node_.cluster().nodes_per_replica(); }
  bool paused() const override { return paused_; }

  Pcg32 make_app_rng(std::uint64_t salt) const override {
    // Seeded by logical position only: buddy tasks in the two replicas draw
    // identical streams, a prerequisite for bit-identical checkpoints.
    std::uint64_t seed = node_.cluster().master_seed();
    seed ^= 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(
               node_.node_index()) + 1);
    seed ^= 0xC2B2AE3D27D4EB4FULL * (static_cast<std::uint64_t>(slot_) + 1);
    seed ^= salt;
    return Pcg32(seed, 0x5bd1e995);
  }

 private:
  friend class Node;

  void run_pending() {
    SmallFunction fn = std::move(pending_);
    fn();
  }

  Node& node_;
  int slot_;
  std::unique_ptr<Task> task_;
  bool paused_ = false;  ///< held by the consensus until unpaused
  bool done_ = false;    ///< notify_done() since the last create/restore
  std::uint64_t progress_ = 0;  ///< last reported (or restored) iterations
  SmallFunction pending_;  ///< parked compute continuation
  std::uint64_t pending_inc_ = 0;
};

Node::Node(Cluster& cluster, int physical_id)
    : cluster_(cluster), physical_id_(physical_id) {}

Node::~Node() = default;

void Node::assign(int replica, int node_index) {
  replica_ = replica;
  node_index_ = node_index;
}

void Node::kill() {
  alive_ = false;
  ++incarnation_;
}

void Node::revive() {
  ACR_REQUIRE(!alive_, "revive() is only meaningful on a dead node");
  alive_ = true;
  gated_ = false;
  ++incarnation_;
}

void Node::create_tasks() {
  ACR_REQUIRE(assigned(), "cannot create tasks on an unassigned node");
  ACR_REQUIRE(cluster_.task_factory() != nullptr, "no task factory set");
  ++incarnation_;
  std::vector<std::unique_ptr<Task>> tasks =
      cluster_.task_factory()(replica_, node_index_);
  slots_.clear();
  slots_.reserve(tasks.size());
  for (auto& t : tasks)
    slots_.push_back(std::make_unique<TaskSlot>(
        *this, static_cast<int>(slots_.size()), std::move(t)));
}

Task& Node::task(int slot) { return *at(slot).task_; }
bool Node::task_paused(int slot) const { return at(slot).paused_; }
void Node::pause_task(int slot) { at(slot).paused_ = true; }
std::uint64_t Node::task_progress(int slot) const {
  return at(slot).progress_;
}
bool Node::task_done(int slot) const { return at(slot).done_; }

void Node::start_tasks() {
  std::uint64_t inc = incarnation_;
  for (const auto& slot : slots_) {
    Task* t = slot->task_.get();
    cluster_.engine().schedule_after(
        0.0,
        [this, t, inc]() {
          if (alive_ && incarnation_ == inc) t->on_start();
        });
  }
}

void Node::schedule_resume(TaskSlot& slot) {
  Task* t = slot.task_.get();
  std::uint64_t inc = incarnation_;
  cluster_.engine().schedule_after(
      0.0,
      [this, t, inc]() {
        if (alive_ && incarnation_ == inc) t->on_resume();
      });
}

void Node::unpause_task(int slot) {
  TaskSlot& s = at(slot);
  if (!s.paused_) return;
  s.paused_ = false;
  schedule_resume(s);
}

void Node::unpause_all() {
  for (int slot = 0; slot < num_tasks(); ++slot) unpause_task(slot);
}

pup::Checkpoint Node::pack_state(buf::Sink* digest_sink) {
  pup::Packer p(pack_builder_);
  p.tee(digest_sink);
  std::uint32_t count = static_cast<std::uint32_t>(slots_.size());
  p | count;
  for (const auto& slot : slots_) slot->task_->pup(p);
  return p.take();
}

void Node::restore_state(const pup::Checkpoint& c) {
  pup::Unpacker u(c);
  std::uint32_t count = 0;
  u | count;
  ACR_REQUIRE(count == slots_.size(),
              "checkpoint task count does not match node task set");
  for (const auto& slot : slots_) slot->task_->pup(u);
  ACR_REQUIRE(u.exhausted(), "node checkpoint has trailing bytes");
  ++incarnation_;  // stale continuations must not fire into restored state
  // The old progress and done flags describe a future that was rolled
  // back: re-read progress from the restored tasks, and let each task
  // re-issue notify_done from on_resume if it restored in a final state.
  for (const auto& slot : slots_) {
    slot->progress_ = slot->task_->progress();
    slot->done_ = false;
  }
}

void Node::resume_all_tasks() {
  for (const auto& slot : slots_) {
    slot->paused_ = false;
    schedule_resume(*slot);
  }
}

void Node::set_service(std::unique_ptr<NodeService> service) {
  service_ = std::move(service);
}

void Node::deliver(const Message& m) {
  if (!alive_) return;  // fail-stop: no responses, traffic disappears
  if (m.dst.slot == kServiceSlot) {
    if (service_) service_->on_service_message(m);
    return;
  }
  if (gated_) return;  // restart barrier: pre-resume app traffic is stale
  auto slot = static_cast<std::size_t>(m.dst.slot);
  if (slot >= slots_.size()) {
    log_warn("rt") << "dropping message for missing slot " << m.dst.slot
                   << " on node " << node_index_;
    return;
  }
  slots_[slot]->task_->on_message(m);
}

}  // namespace acr::rt
