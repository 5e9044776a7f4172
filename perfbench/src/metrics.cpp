#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>

namespace perfbench {

namespace {

double per_job_median(const std::vector<JobResult>& jobs,
                      const std::function<double(const JobResult&)>& f) {
  std::vector<double> v;
  v.reserve(jobs.size());
  for (const JobResult& j : jobs) v.push_back(f(j));
  return median(std::move(v));
}

double sum(const std::vector<JobResult>& jobs,
           const std::function<double(const JobResult&)>& f) {
  double s = 0.0;
  for (const JobResult& j : jobs) s += f(j);
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

MetricValues end_to_end_metrics(const Workload& w,
                                const std::vector<JobResult>& jobs,
                                const std::vector<double>& setup_s,
                                std::uint64_t reference_digest,
                                double peak_rss_mb) {
  using J = const JobResult&;
  auto ok = [&](J j) { return job_ok(j, reference_digest); };
  double ok_jobs = sum(jobs, [&](J j) { return ok(j) ? 1.0 : 0.0; });
  double run_s = sum(jobs, [](J j) { return j.run_s; });
  // Means, not medians: a recovery job either meets no fault or falls into
  // a long recovery storm, and a median jumps between those two modes from
  // one seed list to the next. The other workloads' jobs are alike, so
  // there the two agree.
  MetricValues m;
  m["job_wall_s"] = ratio(run_s, static_cast<double>(jobs.size()));
  m["sim_iters_per_s"] =
      ratio(ok_jobs * static_cast<double>(w.task_iterations()), run_s);
  m["setup_s"] = median(setup_s);
  m["peak_rss_mb"] = peak_rss_mb;
  m["jobs_ok_frac"] = ratio(ok_jobs, static_cast<double>(jobs.size()));
  // Time to solution of the jobs that reached one; the virtual-time cap
  // when none did.
  m["virtual_finish_s"] =
      ok_jobs > 0.0
          ? sum(jobs, [&](J j) { return ok(j) ? j.summary.finish_time : 0.0; }) /
                ok_jobs
          : w.max_virtual_time;
  return m;
}

MetricValues per_layer_metrics(const std::vector<JobResult>& traced,
                               const std::vector<JobResult>& untraced,
                               std::uint64_t reference_digest) {
  using J = const JobResult&;
  auto med = [&](const std::function<double(J)>& f) {
    return per_job_median(traced, f);
  };
  auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<JobResult> replayed;
  for (J j : traced)
    if (j.trace.replayed) replayed.push_back(j);
  auto replay_med = [&](const std::function<double(const ReplayResult&)>& f) {
    return per_job_median(replayed, [&](J j) { return f(j.trace.replay); });
  };

  MetricValues m;
  m["rt.engine.events"] = med([&](J j) { return u(j.events); });
  m["rt.engine.events_per_s"] =
      med([&](J j) { return ratio(u(j.events), j.run_s); });
  m["rt.engine.step_us_median"] = med([](J j) { return j.trace.step_us_median; });
  m["rt.engine.pending_max"] =
      med([&](J j) { return u(j.trace.pending_max); });
  m["rt.engine.cancelled_backlog_max"] =
      med([&](J j) { return u(j.trace.cancelled_backlog_max); });
  m["rt.step.self_s"] = med([](J j) { return j.trace.step_self_s; });
  m["rt.step.coverage"] =
      ratio(sum(traced, [](J j) { return j.trace.step_total_s; }),
            sum(traced, [](J j) { return j.run_s; }));

  m["apps.on_message.calls"] =
      med([&](J j) { return u(j.trace.on_message_calls); });
  m["apps.on_message.s"] = med([](J j) { return j.trace.on_message_s; });
  m["apps.resume.s"] = med([](J j) { return j.trace.resume_s; });

  m["pup.pack.calls"] = med([&](J j) { return u(j.trace.pack_calls); });
  m["pup.pack.s"] = med([](J j) { return j.trace.pack_s; });
  m["pup.unpack.calls"] = med([&](J j) { return u(j.trace.unpack_calls); });
  m["pup.unpack.s"] = med([](J j) { return j.trace.unpack_s; });
  m["pup.compare_streams.mbps"] =
      replay_med([](const ReplayResult& r) { return r.compare_streams_mbps; });

  m["checksum.crc32c_chunks.mbps"] =
      replay_med([](const ReplayResult& r) { return r.crc32c_chunks_mbps; });
  m["checksum.fletcher64.mbps"] =
      replay_med([](const ReplayResult& r) { return r.fletcher64_mbps; });
  m["checksum.gf256_muladd.mbps"] =
      replay_med([](const ReplayResult& r) { return r.gf256_muladd_mbps; });

  m["ckpt.lz_compress.mbps"] =
      replay_med([](const ReplayResult& r) { return r.lz_compress_mbps; });
  m["ckpt.lz_decompress.mbps"] =
      replay_med([](const ReplayResult& r) { return r.lz_decompress_mbps; });
  m["ckpt.lz_ratio"] =
      replay_med([](const ReplayResult& r) { return r.lz_ratio; });
  m["ckpt.codec_encode.mbps"] =
      replay_med([](const ReplayResult& r) { return r.codec_encode_mbps; });
  m["ckpt.codec_decode.mbps"] =
      replay_med([](const ReplayResult& r) { return r.codec_decode_mbps; });
  m["ckpt.codec.raw_bytes"] =
      med([&](J j) { return u(j.summary.codec_raw_bytes); });
  m["ckpt.codec.wire_bytes"] =
      med([&](J j) { return u(j.summary.codec_wire_bytes); });
  // Chunks the delta stage left off the wire, out of the chunks covered.
  m["ckpt.codec.chunk_hit_ratio"] = ratio(
      sum(traced,
          [&](J j) {
            return u(j.summary.codec_chunks_total) -
                   u(j.summary.codec_chunks_shipped);
          }),
      sum(traced, [&](J j) { return u(j.summary.codec_chunks_total); }));
  m["ckpt.parity.bytes"] =
      med([&](J j) { return u(j.summary.parity_bytes_sent); });
  m["ckpt.rebuilds"] = med([&](J j) { return u(j.summary.xor_rebuilds); });
  m["ckpt.rebuilds_rejected"] =
      med([&](J j) { return u(j.summary.parity_rebuilds_rejected); });
  m["ckpt.tier.flush_bytes"] =
      med([&](J j) { return u(j.summary.l2_flush_bytes); });
  m["ckpt.tier.fetch_waves"] =
      med([&](J j) { return u(j.summary.l2_fetch_waves); });

  m["net.frames"] = med([&](J j) { return u(j.summary.net_frames); });
  m["net.retransmits"] = med([&](J j) { return u(j.summary.net_retransmits); });
  m["net.retransmit_ratio"] =
      ratio(sum(traced, [&](J j) { return u(j.summary.net_retransmits); }),
            sum(traced, [&](J j) { return u(j.summary.net_frames); }));
  m["net.crc_drops"] = med([&](J j) { return u(j.summary.net_crc_drops); });
  m["net.link_failures"] =
      med([&](J j) { return u(j.summary.net_link_failures); });

  m["acr.checkpoints"] = med([&](J j) { return u(j.summary.checkpoints); });
  m["acr.hard_failures"] = med([&](J j) { return u(j.summary.hard_failures); });
  m["acr.recoveries"] = med([&](J j) { return u(j.summary.recoveries); });
  m["acr.recovery_ratio"] =
      ratio(sum(traced, [&](J j) { return u(j.summary.recoveries); }),
            sum(traced, [&](J j) { return u(j.summary.hard_failures); }));
  m["acr.scratch_restarts"] =
      med([&](J j) { return u(j.summary.scratch_restarts); });
  m["acr.consensus_ms_virtual"] = med([](J j) { return j.consensus_ms_virtual; });
  m["acr.commit_ms_virtual"] = med([](J j) { return j.commit_ms_virtual; });
  m["failure.sdc_injected"] = med([&](J j) { return u(j.summary.sdc_injected); });
  m["failure.sdc_detected"] = med([&](J j) { return u(j.summary.sdc_detected); });
  m["jobs_failed_frac"] = ratio(
      sum(traced, [&](J j) { return job_ok(j, reference_digest) ? 0.0 : 1.0; }),
      static_cast<double>(traced.size()));

  double plain = per_job_median(untraced, [](J j) { return j.run_s; });
  double with_spans = med([](J j) { return j.run_s; });
  m["trace.overhead_frac"] = plain > 0.0 ? with_spans / plain - 1.0 : 0.0;
  return m;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricValues& values) {
  std::string metrics;
  char buf[128];
  for (const auto& [name, value] : values) {
    if (!std::isfinite(value))
      throw std::logic_error("metric not finite: " + name);
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g",
                  metrics.empty() ? "" : ", ", name.c_str(), value);
    metrics += buf;
  }
  std::snprintf(buf, sizeof buf,
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  return std::string(buf) + "\"values\": {" + metrics + "}}";
}

}  // namespace perfbench
