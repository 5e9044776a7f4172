// Wall-clock spans recorded from outside the simulator.
//
// The benchmark opens a span around each call it makes into a layer (a
// whole job, each engine step, each task handler, each replayed kernel).
// Spans nest: the innermost open span is the parent of the next one. Every
// span's duration is folded into per-name totals as it closes, together
// with its self time (duration minus the time its direct children cover),
// so ctl_scale's ~600k steps per job cost no memory beyond those totals.
// Spans are also kept whole for the Chrome trace-event export: every
// job-level span (job, setup, run, drain, each replayed kernel), and each
// job's first kMaxDetailSpansPerJob step and task spans.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  Job,
  Setup,
  Run,
  Step,
  Drain,
  TaskStart,
  TaskResume,
  TaskMessage,
  PupSizing,
  PupPack,
  PupUnpack,
  // Replayed data-plane kernels (replay.h).
  ReplayCompare,
  ReplayCrc32c,
  ReplayFletcher64,
  ReplayGf256,
  ReplayLzCompress,
  ReplayLzDecompress,
  ReplayCodecEncode,
  ReplayCodecDecode,
  kCount,
};

const char* span_name(SpanName n);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

struct StoredSpan {
  SpanName name;
  std::uint32_t job;
  std::int32_t parent;  ///< index into spans(), -1 for a root
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class Tracer {
 public:
  static constexpr std::size_t kMaxDetailSpansPerJob = 10000;

  /// Spans opened from now on belong to job `id` (their shared id).
  void set_job(std::uint32_t id) {
    job_ = id;
    detail_stored_ = 0;
  }

  /// Open a span at `t_ns`; it becomes the parent of spans opened before it
  /// closes.
  void open(SpanName name, std::int64_t t_ns);
  /// Close the innermost open span at `t_ns`.
  void close(std::int64_t t_ns);
  std::size_t depth() const { return stack_.size(); }

  const SpanTotals& totals(SpanName n) const {
    return totals_[static_cast<std::size_t>(n)];
  }
  /// Forget the per-name totals (stored spans are kept for the export).
  void reset_totals() { totals_ = {}; }

  const std::vector<StoredSpan>& spans() const { return spans_; }
  /// Step and task spans not stored (past their job's share).
  std::uint64_t dropped() const { return dropped_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds relative to
  /// the first stored span; one track per job; args carry the span's index,
  /// its parent's index and the job id). Perfetto opens it offline.
  std::string chrome_json() const;

 private:
  struct Frame {
    SpanName name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t stored;  ///< index into spans_, -1 when not stored
  };

  std::vector<Frame> stack_;
  std::array<SpanTotals, static_cast<std::size_t>(SpanName::kCount)> totals_{};
  std::vector<StoredSpan> spans_;
  std::uint64_t dropped_ = 0;
  std::uint32_t job_ = 0;
  std::size_t detail_stored_ = 0;  ///< step and task spans stored for job_
};

/// Opens a span on construction and closes it on destruction, reading the
/// steady clock both times. A null tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer* tracer, SpanName name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(name, now_ns());
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(now_ns());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
