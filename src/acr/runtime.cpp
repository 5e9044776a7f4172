#include "acr/runtime.h"

#include <algorithm>

#include "common/logging.h"
#include "failure/injector.h"

namespace acr {

namespace {
/// The cluster's checkpoint-group map exists exactly when the group-parity
/// scheme (rs) needs it; other schemes leave grouping disabled.
rt::ClusterConfig with_ckpt_groups(rt::ClusterConfig c,
                                   const AcrConfig& acr) {
  c.ckpt_group_size = acr.redundancy == ckpt::Scheme::Rs
                          ? acr.xor_group_size
                          : 0;
  // The durable tier's cost model lives in the cluster (per-node busy-until
  // pipes turned into DES events); mirror the ACR-level knobs into it.
  if (acr.tier.enabled()) {
    c.l2.bandwidth = acr.tier.bandwidth;
    c.l2.latency = acr.tier.latency;
  }
  return c;
}
}  // namespace

AcrRuntime::AcrRuntime(const AcrConfig& acr_config,
                       const rt::ClusterConfig& cluster_config)
    : acr_config_(acr_config),
      cluster_(std::make_unique<rt::Cluster>(
          engine_, with_ckpt_groups(cluster_config, acr_config))),
      fault_rng_(cluster_config.seed ^ 0xFA17ULL, 0xD15EA5E) {
  if (acr_config_.tier.enabled())
    tier_ = std::make_unique<ckpt::DurableTier>(
        2, cluster_config.nodes_per_replica);
}

AcrRuntime::~AcrRuntime() = default;

void AcrRuntime::set_task_factory(rt::Cluster::TaskFactory factory) {
  cluster_->set_task_factory(std::move(factory));
}

void AcrRuntime::set_predictor(const PredictorConfig& config) {
  ACR_REQUIRE(!fault_scheduled_,
              "set_predictor must precede set_fault_plan: warnings are "
              "decided when faults are scheduled");
  predictor_ = config;
  predictor_enabled_ = true;
}

void AcrRuntime::set_fault_plan(FaultPlan plan) {
  fault_plan_ = std::move(plan);
  if (setup_done_ && fault_plan_.arrivals)
    schedule_next_fault(engine_.now());
}

void AcrRuntime::set_burst_plan(const failure::BurstConfig& config) {
  burst_config_ = config;
  if (setup_done_ && burst_config_.enabled()) arm_burst_injection();
}

void AcrRuntime::arm_burst_injection() {
  if (burst_ != nullptr || !burst_config_.enabled()) return;
  burst_ = std::make_unique<failure::CorrelatedInjector>(
      burst_config_, cluster_->num_hardware_nodes(),
      cluster_->config().seed ^ 0xB0057ULL);
  // Lifecycle events (spare deaths, repairs, pool minima) only exist under
  // burst injection; enabling their trace here keeps burst-free runs
  // byte-identical to the pre-lifecycle framework.
  cluster_->enable_spare_lifecycle_trace();
  schedule_next_burst(engine_.now());
}

NodeAgent* AcrRuntime::install_agent(rt::Node& node) {
  // Agents are never replaced while their node lives — scheduled events
  // capture the agent pointer. Relaunches reset the existing agent.
  if (node.service() != nullptr) {
    auto* agent = static_cast<NodeAgent*>(node.service());
    // A repaired node may be promoted into a different role than the one
    // it died holding; the reused agent re-derives its tree position and
    // redundancy layout before the state reset.
    agent->rebind_role();
    agent->reset_for_restart();
    return agent;
  }
  AcrEnv env{cluster_.get(), &acr_config_, tier_.get()};
  auto agent = std::make_unique<NodeAgent>(env, node);
  NodeAgent* raw = agent.get();
  node.set_service(std::move(agent));
  raw->start();
  return raw;
}

void AcrRuntime::setup() {
  ACR_REQUIRE(!setup_done_, "setup() must be called once");
  cluster_->populate();
  for (int r = 0; r < 2; ++r)
    for (int i = 0; i < cluster_->nodes_per_replica(); ++i)
      install_agent(cluster_->node_at(r, i));
  manager_ = std::make_unique<Manager>(
      AcrEnv{cluster_.get(), &acr_config_, tier_.get()},
      [this](rt::Node& n) { return install_agent(n); });
  manager_->start();
  if (acr_config_.tier.enabled()) {
    // Tier protocol events only exist with the tier on; gating the trace
    // here keeps no-L2 traces byte-identical to the single-tier build.
    cluster_->enable_trace(rt::kTraceTier);
    if (acr_config_.halt_after > 0.0)
      engine_.schedule_at(acr_config_.halt_after,
                          [this]() { manager_->request_drain(); });
  }
  // Same discipline for the codec: its trace kinds only fire when a codec
  // stage is on, so codec-off traces stay byte-identical.
  if (acr_config_.codec.enabled()) cluster_->enable_trace(rt::kTraceCodec);
  cluster_->start_application();
  if (fault_plan_.arrivals) schedule_next_fault(0.0);
  if (burst_config_.enabled()) arm_burst_injection();
  setup_done_ = true;
}

void AcrRuntime::schedule_next_fault(double from_time) {
  fault_scheduled_ = true;
  double t = fault_plan_.arrivals->next_after(from_time, fault_rng_);
  if (fault_plan_.horizon > 0.0 && t > fault_plan_.horizon) return;
  // The fault's nature is decided at scheduling time so the failure
  // predictor can announce (only) hard failures ahead of their arrival.
  next_fault_is_sdc_ = fault_rng_.uniform() < fault_plan_.sdc_fraction;
  if (predictor_enabled_ && !next_fault_is_sdc_) {
    if (fault_rng_.uniform() < predictor_.recall) {
      double warn_at = std::max(engine_.now(), t - predictor_.lead_time);
      engine_.schedule_at(warn_at, [this]() {
        ++warnings_issued_;
        manager_->request_immediate_checkpoint();
      });
      // False alarms: (1-precision)/precision extra warnings per true one
      // (Bernoulli approximation; exact for precision >= 0.5).
      double false_ratio = (1.0 - predictor_.precision) / predictor_.precision;
      if (fault_rng_.uniform() < std::min(1.0, false_ratio)) {
        double bogus_at = engine_.now() + (t - engine_.now()) *
                                              fault_rng_.uniform();
        engine_.schedule_at(bogus_at, [this]() {
          ++warnings_issued_;
          manager_->request_immediate_checkpoint();
        });
      }
    }
  }
  engine_.schedule_at(t, [this]() { inject_fault(); });
}

void AcrRuntime::inject_fault() {
  if (manager_->job_complete() || manager_->job_failed()) return;
  // This firing's nature was fixed when it was scheduled; scheduling the
  // next fault overwrites next_fault_is_sdc_ with the *next* one's.
  bool sdc_now = next_fault_is_sdc_;
  schedule_next_fault(engine_.now());

  int replica = static_cast<int>(fault_rng_.bounded(2));
  int index = static_cast<int>(
      fault_rng_.bounded(static_cast<std::uint32_t>(
          cluster_->nodes_per_replica())));
  if (!cluster_->role_alive(replica, index)) return;  // already down

  bool sdc = sdc_now;
  rt::Node& node = cluster_->node_at(replica, index);
  if (sdc) {
    if (node.num_tasks() == 0) return;
    int slot = static_cast<int>(fault_rng_.bounded(
        static_cast<std::uint32_t>(node.num_tasks())));
    std::optional<failure::BitFlip> flip = failure::try_inject_sdc(
        node.task(slot), fault_rng_, fault_plan_.flip_policy);
    if (!flip) return;  // victim holds no eligible state (e.g. bare spare)
    ++sdc_injected_;
    cluster_->trace().record(engine_.now(), rt::TraceKind::SdcInjected,
                             replica, index,
                             "slot=" + std::to_string(slot) + " byte=" +
                                 std::to_string(flip->byte_offset) + " bit=" +
                                 std::to_string(flip->bit));
  } else {
    cluster_->trace().record(engine_.now(),
                             rt::TraceKind::HardFailureInjected, replica,
                             index);
    cluster_->kill_role(replica, index);
  }
}

void AcrRuntime::schedule_next_burst(double from_time) {
  double t = burst_->next_seed_after(from_time);
  engine_.schedule_at(t, [this]() { fire_burst(); });
}

void AcrRuntime::fire_burst() {
  if (manager_->job_complete() || manager_->job_failed()) return;
  schedule_next_burst(engine_.now());
  std::vector<int> alive = cluster_->alive_hardware();
  if (alive.empty()) return;
  ++burst_seeds_;
  int victim = burst_->pick_victim(alive);
  // Plan followers against the pre-seed membership: the seed's own death
  // must not affect who its domain peers are.
  std::vector<failure::FollowerEvent> followers =
      burst_->plan_followers(victim, alive);
  burst_kill(victim, "burst-seed");
  for (const failure::FollowerEvent& f : followers) {
    engine_.schedule_after(f.delay, [this, node = f.node]() {
      if (manager_->job_complete() || manager_->job_failed()) return;
      burst_kill(node, "burst-follower");
    });
  }
}

void AcrRuntime::burst_kill(int pid, const char* why) {
  if (!cluster_->physical_node(pid).alive()) return;  // already down
  bool was_spare = cluster_->is_pooled_spare(pid);
  ++burst_kills_;
  cluster_->kill_physical(pid, why);
  // Nothing heartbeats a pooled spare, so its death is reported to the
  // manager out of band (the RAS log) — the adaptive interval must see
  // correlated arrivals whether or not the victim held a role.
  if (was_spare) manager_->note_out_of_band_failure();
  schedule_repair(pid);
}

void AcrRuntime::schedule_repair(int pid) {
  if (burst_config_.repair_mean <= 0.0) return;
  double dt = burst_->sample_repair_time();
  engine_.schedule_after(dt, [this, pid]() {
    if (manager_->job_complete() || manager_->job_failed()) return;
    if (cluster_->repair_node(pid)) manager_->note_spare_available();
  });
}

RunSummary AcrRuntime::run(double max_virtual_time) {
  ACR_REQUIRE(setup_done_, "call setup() before run()");
  while (engine_.now() < max_virtual_time && !manager_->job_complete() &&
         !manager_->job_failed() && !manager_->job_drained()) {
    if (!engine_.step()) break;
  }
  RunSummary s;
  s.complete = manager_->job_complete();
  s.failed = manager_->job_failed();
  s.finish_time = engine_.now();
  s.checkpoints = manager_->checkpoints_committed();
  s.hard_failures = manager_->hard_failures_detected();
  s.sdc_injected = sdc_injected_;
  s.sdc_detected = manager_->sdc_rollbacks();
  s.recoveries = manager_->recoveries_completed();
  s.scratch_restarts = manager_->scratch_restarts();
  const failure::NetFaultCounters& nf = cluster_->net_fault_counters();
  const net::LinkStats& ls = cluster_->link_stats();
  const rt::Cluster::NetCounters& nc = cluster_->net_counters();
  s.net_frames = nf.frames;
  s.net_drops = nf.drops;
  s.net_duplicates = nf.duplicates;
  s.net_corruptions = nf.corruptions;
  s.net_retransmits = ls.retransmits;
  s.net_crc_drops = nc.crc_drops;
  s.net_stale_epoch_drops = nc.stale_epoch_drops;
  s.net_link_failures = nc.link_failures;
  s.ckpt_scheme = ckpt::scheme_name(acr_config_.redundancy);
  const rt::Cluster::SpareCounters& sc = cluster_->spare_counters();
  s.burst_seeds = burst_seeds_;
  s.burst_node_kills = burst_kills_;
  s.spare_promotions = sc.promotions;
  s.spare_failures = sc.spare_failures;
  s.spare_repairs = sc.repairs;
  s.spare_low_water = sc.low_water;
  s.roles_doubled = sc.roles_doubled;
  s.roles_undoubled = sc.roles_undoubled;
  s.drained = manager_->job_drained();
  if (tier_) {
    s.l2_flushes = tier_->publishes();
    s.l2_flush_bytes = tier_->bytes_published();
    s.l2_fetches = tier_->fetches();
    s.l2_fetch_waves = manager_->l2_fetch_waves();
    s.l2_scavenges = manager_->l2_scavenges();
    s.l2_newest_durable = manager_->l2_newest_durable();
  }
  for (int r = 0; r < 2; ++r) {
    for (int i = 0; i < cluster_->nodes_per_replica(); ++i) {
      // role_node, not node_at: on a failed run the repair path may have
      // left a role unmanned (its dead player was pooled again).
      rt::Node* n = cluster_->role_node(r, i);
      if (n == nullptr) continue;
      auto* svc = n->service();
      if (svc == nullptr) continue;
      const ckpt::RedundancyStats& rs =
          static_cast<NodeAgent*>(svc)->redundancy().stats();
      s.parity_chunks_sent += rs.parity_chunks_sent;
      s.parity_bytes_sent += rs.parity_bytes_sent;
      s.xor_rebuilds += rs.rebuilds_completed;
      s.parity_rebuild_pieces += rs.rebuild_pieces_sent;
      s.parity_rebuild_bytes += rs.rebuild_bytes_sent;
      s.parity_rebuilds_rejected += rs.rebuilds_rejected;
      s.parity_delta_chunks += rs.parity_delta_chunks_sent;
      s.parity_delta_bytes += rs.parity_delta_bytes_sent;
      s.parity_rounds_poisoned += rs.parity_rounds_poisoned;
      const NodeAgent::CodecStats& cs =
          static_cast<NodeAgent*>(svc)->codec_stats();
      s.codec_frames += cs.frames;
      s.codec_full_frames += cs.full_frames;
      s.codec_chunks_total += cs.chunks_total;
      s.codec_chunks_shipped += cs.chunks_shipped;
      s.codec_raw_bytes += cs.raw_bytes;
      s.codec_wire_bytes += cs.wire_bytes;
      s.codec_need_full += cs.need_full;
    }
  }
  if (tier_) s.l2_delta_blobs = tier_->delta_publishes();
  return s;
}

NodeAgent& AcrRuntime::agent_at(int replica, int node_index) {
  auto* svc = cluster_->node_at(replica, node_index).service();
  ACR_REQUIRE(svc != nullptr, "no agent installed");
  return *static_cast<NodeAgent*>(svc);
}

}  // namespace acr
