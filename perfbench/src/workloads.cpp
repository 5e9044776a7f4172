#include "workloads.h"

#include <memory>
#include <stdexcept>

#include "failure/distributions.h"
#include "tests/soak_util.h"

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// acr_driver's protocol defaults: strong scheme, 4 ms checkpoints.
acr::AcrConfig driver_protocol() {
  acr::AcrConfig ac;
  ac.scheme = acr::ResilienceScheme::Strong;
  ac.checkpoint_interval = 0.004;
  ac.heartbeat_period = 0.0005;
  ac.heartbeat_timeout = 0.002;
  return ac;
}

/// rs(2) over groups of 4, delta + LZ codec, L2 at 1 GB/s.
void enable_data_plane(acr::AcrConfig& ac) {
  ac.redundancy = acr::ckpt::Scheme::Rs;
  ac.xor_group_size = 4;
  ac.rs_parity = 2;
  ac.codec.delta = acr::ckpt::DeltaMode::On;
  ac.codec.compress = acr::ckpt::CompressMode::Lz;
  ac.tier.bandwidth = 1e9;
}

Workload ctl_scale(Scale scale) {
  Workload w;
  w.name = "ctl_scale";
  int nodes = scale == Scale::Full ? 1024 : 16;
  w.app.tasks_x = w.app.tasks_y = 2;
  w.app.tasks_z = nodes;
  w.app.block_x = w.app.block_y = w.app.block_z = 4;
  w.app.slots_per_node = 4;
  w.app.iterations = scale == Scale::Full ? 6 : 4;
  w.app.seconds_per_point = 1e-5;
  w.acr = driver_protocol();
  w.cluster.nodes_per_replica = w.app.nodes_needed();
  w.cluster.spare_nodes = 4;
  w.max_virtual_time = 600.0;
  w.jobs_per_pass = scale == Scale::Full ? 3 : 1;
  return w;
}

Workload data_plane(Scale scale) {
  Workload w;
  w.name = "data_plane";
  w.app = acr::soak::multi_chunk_app();  // 4 nodes per replica: one rs group
  if (scale == Scale::Small)
    w.app.block_x = w.app.block_y = w.app.block_z = 8;
  w.app.iterations = scale == Scale::Full ? 12 : 6;
  w.acr = acr::soak::base_acr_config();
  enable_data_plane(w.acr);
  w.cluster.nodes_per_replica = w.app.nodes_needed();
  w.cluster.spare_nodes = 2;
  w.jobs_per_pass = scale == Scale::Full ? 3 : 1;
  return w;
}

Workload recovery(Scale scale) {
  Workload w;
  w.name = "recovery";
  w.app = acr::soak::small_app();  // 8 nodes per replica: two rs groups
  if (scale == Scale::Small) w.app.iterations = 20;
  w.acr = acr::soak::base_acr_config();
  enable_data_plane(w.acr);
  w.acr.degrade = acr::DegradeMode::Shrink;
  w.cluster.nodes_per_replica = w.app.nodes_needed();
  w.cluster.spare_nodes = 4;
  w.cluster.net_faults.drop_rate = 0.02;
  w.cluster.net_faults.dup_rate = 0.01;
  w.cluster.net_faults.reorder_rate = 0.10;
  w.cluster.net_faults.corrupt_rate = 0.01;
  w.cluster.net_faults.reorder_max_extra = 1e-4;
  w.faults = true;
  // A job either meets no fault (fast) or falls into a long recovery storm,
  // so a run needs many jobs, most of them shared with every other run.
  w.jobs_per_pass = scale == Scale::Full ? 96 : 2;
  w.core_jobs = scale == Scale::Full ? 94 : 0;
  w.must_complete = false;
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ctl_scale", "data_plane",
                                                 "recovery"};
  return names;
}

Workload make_workload(const std::string& name, Scale scale) {
  if (name == "ctl_scale") return ctl_scale(scale);
  if (name == "data_plane") return data_plane(scale);
  if (name == "recovery") return recovery(scale);
  throw std::invalid_argument("unknown workload: " + name);
}

Workload fault_free(const Workload& w) {
  Workload f = w;
  f.faults = false;
  f.cluster.net_faults = {};
  return f;
}

void arm_faults(acr::AcrRuntime& runtime, const Workload& w,
                double nominal_finish) {
  if (!w.faults) return;
  // On average one Poisson fault per fault-free run time, 30% of them SDC.
  acr::FaultPlan plan;
  plan.arrivals = std::make_shared<acr::failure::RenewalProcess>(
      std::make_shared<acr::failure::Exponential>(nominal_finish));
  plan.sdc_fraction = 0.3;
  runtime.set_fault_plan(plan);
  runtime.set_burst_plan(acr::soak::default_burst_config(nominal_finish));
}

std::vector<std::uint64_t> job_seeds(const Workload& w, std::uint64_t seed) {
  std::uint64_t core = 0;
  for (char c : w.name) core = splitmix64(core ^ static_cast<unsigned char>(c));
  std::uint64_t tail = splitmix64(core ^ splitmix64(seed));
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < w.jobs_per_pass; ++i) {
    std::uint64_t& state = i < w.core_jobs ? core : tail;
    state = splitmix64(state);
    seeds.push_back(state);
  }
  return seeds;
}

}  // namespace perfbench
