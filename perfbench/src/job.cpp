#include "job.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "acr/stats.h"
#include "proxy_task.h"
#include "tests/soak_util.h"

namespace perfbench {

namespace {

double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

acr::rt::Cluster::TaskFactory proxied(acr::rt::Cluster::TaskFactory inner,
                                      Tracer& tracer) {
  return [inner = std::move(inner), &tracer](int replica, int node_index) {
    std::vector<std::unique_ptr<acr::rt::Task>> tasks =
        inner(replica, node_index);
    for (auto& t : tasks) t = std::make_unique<ProxyTask>(std::move(t), tracer);
    return tasks;
  };
}

/// AcrRuntime::run's loop, with each engine step timed as a span.
void traced_step_loop(acr::AcrRuntime& runtime, double max_virtual_time,
                      Tracer& tracer, JobTrace& jt) {
  acr::rt::Engine& engine = runtime.engine();
  acr::Manager& manager = runtime.manager();
  std::vector<float> step_ns;
  while (engine.now() < max_virtual_time && !manager.job_complete() &&
         !manager.job_failed() && !manager.job_drained()) {
    std::int64_t t0 = now_ns();
    tracer.open(SpanName::Step, t0);
    bool fired = engine.step();
    std::int64_t t1 = now_ns();
    tracer.close(t1);
    step_ns.push_back(static_cast<float>(t1 - t0));
    jt.pending_max = std::max(jt.pending_max, engine.pending());
    jt.cancelled_backlog_max =
        std::max(jt.cancelled_backlog_max, engine.cancelled_backlog());
    if (!fired) break;
  }
  if (!step_ns.empty()) {
    auto mid = step_ns.begin() + static_cast<std::ptrdiff_t>(step_ns.size() / 2);
    std::nth_element(step_ns.begin(), mid, step_ns.end());
    jt.step_us_median = static_cast<double>(*mid) / 1e3;
  }
}

// Every RunSummary field, for the transparency check.
#define PERFBENCH_SUMMARY_FIELDS(X)                                          \
  X(complete) X(failed) X(finish_time) X(checkpoints) X(hard_failures)      \
  X(sdc_injected) X(sdc_detected) X(recoveries) X(scratch_restarts)         \
  X(net_frames) X(net_drops) X(net_duplicates) X(net_corruptions)           \
  X(net_retransmits) X(net_crc_drops) X(net_stale_epoch_drops)              \
  X(net_link_failures) X(parity_chunks_sent) X(parity_bytes_sent)           \
  X(xor_rebuilds) X(parity_rebuild_pieces) X(parity_rebuild_bytes)          \
  X(parity_rebuilds_rejected) X(burst_seeds) X(burst_node_kills)            \
  X(spare_promotions) X(spare_failures) X(spare_repairs)                    \
  X(spare_low_water) X(roles_doubled) X(roles_undoubled) X(drained)         \
  X(l2_flushes) X(l2_flush_bytes) X(l2_fetches) X(l2_fetch_waves)           \
  X(l2_scavenges) X(l2_newest_durable) X(codec_frames)                      \
  X(codec_full_frames) X(codec_chunks_total) X(codec_chunks_shipped)        \
  X(codec_raw_bytes) X(codec_wire_bytes) X(codec_need_full)                 \
  X(parity_delta_chunks) X(parity_delta_bytes) X(parity_rounds_poisoned)    \
  X(l2_delta_blobs)

}  // namespace

std::unique_ptr<acr::AcrRuntime> set_up_job(const Workload& w,
                                            std::uint64_t seed,
                                            double nominal_finish,
                                            Tracer* tracer) {
  acr::rt::ClusterConfig cc = w.cluster;
  cc.seed = seed;
  auto runtime = std::make_unique<acr::AcrRuntime>(w.acr, cc);
  runtime->set_task_factory(tracer != nullptr
                                ? proxied(w.app.factory(), *tracer)
                                : w.app.factory());
  runtime->setup();
  arm_faults(*runtime, w, nominal_finish);
  return runtime;
}

JobResult run_job(const Workload& w, std::uint64_t seed, double nominal_finish,
                  Tracer* tracer) {
  JobResult r;
  r.seed = seed;
  if (tracer != nullptr) {
    tracer->reset_totals();
    tracer->open(SpanName::Job, now_ns());
  }

  std::int64_t t0 = now_ns();
  if (tracer != nullptr) tracer->open(SpanName::Setup, t0);
  std::unique_ptr<acr::AcrRuntime> runtime =
      set_up_job(w, seed, nominal_finish, tracer);
  std::int64_t t1 = now_ns();
  if (tracer != nullptr) {
    tracer->close(t1);
    tracer->open(SpanName::Run, t1);
    traced_step_loop(*runtime, w.max_virtual_time, *tracer, r.trace);
  }
  r.summary = runtime->run(w.max_virtual_time);
  std::int64_t t2 = now_ns();
  r.setup_s = seconds(t1 - t0);
  r.run_s = seconds(t2 - t1);
  r.events = runtime->engine().events_processed();

  if (tracer != nullptr) {
    tracer->close(t2);
    JobTrace& jt = r.trace;
    const SpanTotals& step = tracer->totals(SpanName::Step);
    jt.step_total_s = seconds(step.total_ns);
    jt.step_self_s = seconds(step.self_ns);
    const SpanTotals& msg = tracer->totals(SpanName::TaskMessage);
    jt.on_message_calls = msg.calls;
    jt.on_message_s = seconds(msg.total_ns);
    jt.resume_s = seconds(tracer->totals(SpanName::TaskResume).total_ns);
    const SpanTotals& pack = tracer->totals(SpanName::PupPack);
    jt.pack_calls = pack.calls;
    jt.pack_s = seconds(pack.total_ns);
    const SpanTotals& unpack = tracer->totals(SpanName::PupUnpack);
    jt.unpack_calls = unpack.calls;
    jt.unpack_s = seconds(unpack.total_ns);
  }

  if (r.summary.complete) {
    // soak::run_and_digest's epilogue, kept apart from run() so that run_s
    // times run() alone: let the post-completion events settle, then digest.
    Scope drain(tracer, SpanName::Drain);
    runtime->engine().run_until(r.summary.finish_time + 0.05);
    r.digest = acr::soak::verified_digest(*runtime);
  }
  acr::TraceSummary ts = acr::summarize_trace(runtime->trace());
  r.consensus_ms_virtual = ts.consensus_latency_stats().mean() * 1e3;
  r.commit_ms_virtual = ts.commit_latency_stats().mean() * 1e3;

  if (tracer != nullptr) {
    if (r.summary.complete) {
      r.trace.replay = replay_images(*runtime, tracer);
      r.trace.replayed = true;
    }
    tracer->close(now_ns());
  }
  return r;
}

std::string same_outcome(const JobResult& a, const JobResult& b) {
#define PERFBENCH_COMPARE(f)                                                \
  if (a.summary.f != b.summary.f) return "RunSummary::" #f " differs";
  PERFBENCH_SUMMARY_FIELDS(PERFBENCH_COMPARE)
#undef PERFBENCH_COMPARE
  if (std::strcmp(a.summary.ckpt_scheme, b.summary.ckpt_scheme) != 0)
    return "RunSummary::ckpt_scheme differs";
  if (a.events != b.events) return "events_processed differs";
  if (a.digest != b.digest) return "answer digest differs";
  return {};
}

}  // namespace perfbench
