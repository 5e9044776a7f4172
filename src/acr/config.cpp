#include "acr/config.h"

namespace acr {

const char* resilience_scheme_name(ResilienceScheme s) {
  switch (s) {
    case ResilienceScheme::HardOnly: return "hard-only";
    case ResilienceScheme::Strong: return "strong";
    case ResilienceScheme::Medium: return "medium";
    case ResilienceScheme::Weak: return "weak";
  }
  return "?";
}

const char* sdc_detection_name(SdcDetection d) {
  switch (d) {
    case SdcDetection::FullCompare: return "full-compare";
    case SdcDetection::Checksum: return "checksum";
  }
  return "?";
}

const char* degrade_mode_name(DegradeMode m) {
  switch (m) {
    case DegradeMode::Abort: return "abort";
    case DegradeMode::Shrink: return "shrink";
  }
  return "?";
}

const char* validate_redundancy_config(const AcrConfig& config,
                                       int nodes_per_replica) {
  switch (config.redundancy) {
    case ckpt::Scheme::Partner:
      return nullptr;
    case ckpt::Scheme::Local:
      // Medium/weak recovery IS the cross-replica candidate shipment; a
      // scheme that never ships cannot implement them.
      if (config.scheme == ResilienceScheme::Medium ||
          config.scheme == ResilienceScheme::Weak)
        return "local redundancy cannot serve the medium/weak resilience "
               "schemes (their recovery ships checkpoints cross-replica)";
      return nullptr;
    case ckpt::Scheme::Rs:
      if (config.scheme != ResilienceScheme::Strong)
        return "rs redundancy requires the strong resilience scheme (its "
               "group rebuild replaces the Fig. 4a buddy transfer)";
      if (config.xor_group_size < 2)
        return "rs group size must be at least 2 (a one-node group has no "
               "parity peers)";
      if (config.rs_parity < 1)
        return "rs parity must be at least 1";
      if (nodes_per_replica < 2)
        return "rs redundancy needs at least 2 nodes per replica";
      {
        // Every member needs at least one DATA chunk, in every group — and
        // GroupMap lets a trailing remainder of >= 2 nodes stand alone as a
        // smaller group, which is then the binding constraint.
        int rem = nodes_per_replica % config.xor_group_size;
        int min_group = rem >= 2 ? rem : config.xor_group_size;
        if (nodes_per_replica < min_group) min_group = nodes_per_replica;
        if (config.rs_parity >= min_group)
          return "rs parity must be smaller than every parity group's size "
                 "(note the trailing remainder group can be smaller than "
                 "--xor-group-size)";
      }
      // GroupMap merges a remainder group of one into its predecessor, so
      // a group can be one node wider than configured.
      if (config.xor_group_size + 1 + config.rs_parity > 256)
        return "rs group size + parity must fit the GF(256) label space";
      return nullptr;
  }
  return "unknown redundancy scheme";
}

const char* validate_tier_config(const AcrConfig& config) {
  const ckpt::TierConfig& t = config.tier;
  if (t.bandwidth < 0.0) return "l2 bandwidth must be >= 0 (0 disables)";
  if (!t.enabled()) {
    if (config.halt_after > 0.0)
      return "halt-after drains to the durable tier; it requires l2 "
             "bandwidth > 0";
    return nullptr;
  }
  if (t.latency < 0.0) return "l2 latency must be >= 0";
  if (t.chunk_bytes == 0) return "l2 flush chunk size must be >= 1 byte";
  if (t.flush_interval == 0)
    return "flush interval must be >= 1 (flush every k-th committed epoch)";
  if (config.halt_after < 0.0) return "halt-after must be >= 0 (0 = never)";
  return nullptr;
}

}  // namespace acr
