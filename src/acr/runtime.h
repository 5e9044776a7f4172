// AcrRuntime — the public facade of the framework.
//
// Usage (see examples/quickstart.cpp):
//
//   acr::AcrConfig acr_cfg;                   // scheme, detection, interval
//   acr::rt::ClusterConfig cluster_cfg;       // nodes, spares, latencies
//   acr::AcrRuntime runtime(acr_cfg, cluster_cfg);
//   runtime.set_task_factory(my_factory);     // builds each node's tasks
//   runtime.setup();
//   runtime.run(/*max_virtual_time=*/3600.0);
//
// The runtime owns the virtual cluster, installs an ACR agent on every
// node, runs the job manager, and (optionally) drives fault injection.
#pragma once

#include <memory>
#include <vector>

#include "acr/config.h"
#include "acr/manager.h"
#include "acr/node_agent.h"
#include "acr/predictor.h"
#include "failure/correlated.h"
#include "failure/distributions.h"
#include "failure/injector.h"
#include "rt/cluster.h"
#include "rt/engine.h"

namespace acr {

/// Fault-injection plan (§6.1): an arrival process plus the SDC/hard mix.
struct FaultPlan {
  std::shared_ptr<failure::ArrivalProcess> arrivals;
  /// Probability that an injected fault is an SDC bit flip (vs fail-stop).
  double sdc_fraction = 0.5;
  /// Stop injecting after this time (0 = no limit).
  double horizon = 0.0;
  /// Where flips may land. Default mirrors the paper: the floating point
  /// user data that dominates checkpoints. AnyPayload additionally strikes
  /// counters/indices — corruption the framework detects at the next
  /// comparison, but which can also derail the victim's control flow in
  /// ways no checkpoint-based scheme can mask.
  failure::FlipPolicy flip_policy = failure::FlipPolicy::FloatingPointOnly;
};

struct RunSummary {
  bool complete = false;
  bool failed = false;
  double finish_time = 0.0;          ///< virtual time of completion (or stop)
  std::uint64_t checkpoints = 0;
  std::uint64_t hard_failures = 0;
  std::uint64_t sdc_injected = 0;
  std::uint64_t sdc_detected = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t scratch_restarts = 0;
  // Network delivery counters (all zero unless network fault injection is
  // enabled — the reliable transport is bypassed on a clean network).
  std::uint64_t net_frames = 0;        ///< data frames put on the wire
  std::uint64_t net_drops = 0;         ///< frames lost by the injector
  std::uint64_t net_duplicates = 0;    ///< frames duplicated in flight
  std::uint64_t net_corruptions = 0;   ///< frames bit-flipped in flight
  std::uint64_t net_retransmits = 0;   ///< timer-driven re-sends
  std::uint64_t net_crc_drops = 0;     ///< frames failing CRC32C on arrival
  std::uint64_t net_stale_epoch_drops = 0;  ///< app msgs from stale epochs
  std::uint64_t net_link_failures = 0;      ///< retry budgets exhausted
  // Checkpoint redundancy (ckpt::RedundancyScheme). The parity counters
  // stay zero except under the rs scheme; they aggregate over the
  // agents alive at completion. Encode-side (steady-state parity exchange)
  // and rebuild-side (recovery waves) wire traffic are kept separate so
  // sweeps can report each scheme's cost structure accurately.
  const char* ckpt_scheme = "partner";
  std::uint64_t parity_chunks_sent = 0;  ///< encode: group parity chunks
  std::uint64_t parity_bytes_sent = 0;   ///< encode: bytes of those chunks
  /// Images rebuilt from group parity (rs, and so --ckpt-scheme=xor).
  /// The name predates rs; benchmarks and tools read it as is.
  std::uint64_t xor_rebuilds = 0;
  std::uint64_t parity_rebuild_pieces = 0;  ///< rebuild: pieces shipped
  std::uint64_t parity_rebuild_bytes = 0;   ///< rebuild: image+parity bytes
  std::uint64_t parity_rebuilds_rejected = 0;  ///< rebuilds failing the CRC
  // Correlated-burst injection and the spare-pool lifecycle (all zero, and
  // spare_low_water = configured spares, unless a burst plan is set).
  std::uint64_t burst_seeds = 0;       ///< burst seed failures fired
  std::uint64_t burst_node_kills = 0;  ///< nodes killed (seeds + followers)
  std::uint64_t spare_promotions = 0;  ///< spares promoted into roles
  std::uint64_t spare_failures = 0;    ///< pooled spares that died idle
  std::uint64_t spare_repairs = 0;     ///< dead hardware repaired into pool
  int spare_low_water = 0;             ///< minimum pool size observed
  std::uint64_t roles_doubled = 0;     ///< shrink-to-survive doublings
  std::uint64_t roles_undoubled = 0;   ///< doubled roles later relieved
  // Durable tier (all zero/false unless config.tier is enabled).
  bool drained = false;                ///< --halt-after drain completed
  std::uint64_t l2_flushes = 0;        ///< images published to L2
  std::uint64_t l2_flush_bytes = 0;    ///< encoded bytes of those images
  std::uint64_t l2_fetches = 0;        ///< images read back from L2
  std::uint64_t l2_fetch_waves = 0;    ///< whole-job restores served from L2
  std::uint64_t l2_scavenges = 0;      ///< urgent drain flushes published
  std::uint64_t l2_newest_durable = 0; ///< newest fully-flushed epoch
  // Codec pipeline (all zero unless --ckpt-delta/--ckpt-compress is on).
  // The frame counters cover the buddy transfer; the parity-delta ones the
  // parity exchange; l2_delta_blobs the durable tier.
  std::uint64_t codec_frames = 0;        ///< codec frames shipped to buddies
  std::uint64_t codec_full_frames = 0;   ///< frames carrying every chunk
  std::uint64_t codec_chunks_total = 0;  ///< chunks covered by those frames
  std::uint64_t codec_chunks_shipped = 0;  ///< chunks actually in payloads
  std::uint64_t codec_raw_bytes = 0;     ///< image bytes the frames stand for
  std::uint64_t codec_wire_bytes = 0;    ///< map+payload bytes on the wire
  std::uint64_t codec_need_full = 0;     ///< receiver-forced full fallbacks
  std::uint64_t parity_delta_chunks = 0;   ///< parity delta contributions sent
  std::uint64_t parity_delta_bytes = 0;    ///< parity diff payload bytes
  std::uint64_t parity_rounds_poisoned = 0;  ///< parity delta rounds abandoned
  std::uint64_t l2_delta_blobs = 0;      ///< v2 delta blobs published to L2
};

class AcrRuntime {
 public:
  AcrRuntime(const AcrConfig& acr_config, const rt::ClusterConfig& cluster_config);
  ~AcrRuntime();

  AcrRuntime(const AcrRuntime&) = delete;
  AcrRuntime& operator=(const AcrRuntime&) = delete;

  rt::Cluster& cluster() { return *cluster_; }
  rt::Engine& engine() { return engine_; }
  Manager& manager() { return *manager_; }
  rt::TraceLog& trace() { return cluster_->trace(); }
  const AcrConfig& config() const { return acr_config_; }

  void set_task_factory(rt::Cluster::TaskFactory factory);

  /// Optional fault injection; call any time before run().
  void set_fault_plan(FaultPlan plan);

  /// Optional correlated-burst injection (failure/correlated.h): seed
  /// failures strike any alive hardware node — pooled spares included —
  /// and recruit followers from the victim's failure domain; dead hardware
  /// re-enters the spare pool after a sampled repair time. Independent of
  /// (and composable with) set_fault_plan. Call any time before run().
  void set_burst_plan(const failure::BurstConfig& config);

  /// Enable the online failure predictor (§2.2): hard failures are
  /// announced `lead_time` in advance with the configured recall, and the
  /// manager schedules an immediate checkpoint on each warning (plus false
  /// alarms per the precision). Warnings are decided when each fault is
  /// scheduled, so this must be called before set_fault_plan().
  void set_predictor(const PredictorConfig& config);

  /// Populate the cluster, install agents, start the manager and the app.
  void setup();

  /// Run until the job completes, fails, the event queue drains, or the
  /// virtual clock passes `max_virtual_time`.
  RunSummary run(double max_virtual_time);

  /// Agent living on (replica, node_index) — for tests and stats.
  NodeAgent& agent_at(int replica, int node_index);

  /// The simulated durable tier, or nullptr when disabled — for tests.
  ckpt::DurableTier* tier() { return tier_.get(); }

  std::uint64_t sdc_injected() const { return sdc_injected_; }
  std::uint64_t warnings_issued() const { return warnings_issued_; }

 private:
  void schedule_next_fault(double from_time);
  void inject_fault();
  void arm_burst_injection();
  void schedule_next_burst(double from_time);
  void fire_burst();
  void burst_kill(int pid, const char* why);
  void schedule_repair(int pid);
  NodeAgent* install_agent(rt::Node& node);

  AcrConfig acr_config_;
  rt::Engine engine_;
  std::unique_ptr<rt::Cluster> cluster_;
  std::unique_ptr<ckpt::DurableTier> tier_;
  std::unique_ptr<Manager> manager_;
  FaultPlan fault_plan_;
  PredictorConfig predictor_;
  bool predictor_enabled_ = false;
  bool fault_scheduled_ = false;
  bool next_fault_is_sdc_ = false;
  Pcg32 fault_rng_;
  std::uint64_t sdc_injected_ = 0;
  std::uint64_t warnings_issued_ = 0;
  failure::BurstConfig burst_config_;
  std::unique_ptr<failure::CorrelatedInjector> burst_;
  std::uint64_t burst_seeds_ = 0;
  std::uint64_t burst_kills_ = 0;
  bool setup_done_ = false;
};

}  // namespace acr
