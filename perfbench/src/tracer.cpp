#include "tracer.h"

#include <cstdio>

#include "common/require.h"

namespace perfbench {

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::Job: return "job";
    case SpanName::Setup: return "setup";
    case SpanName::Run: return "run";
    case SpanName::Step: return "rt.step";
    case SpanName::Drain: return "drain";
    case SpanName::TaskStart: return "apps.on_start";
    case SpanName::TaskResume: return "apps.on_resume";
    case SpanName::TaskMessage: return "apps.on_message";
    case SpanName::PupSizing: return "pup.sizing";
    case SpanName::PupPack: return "pup.pack";
    case SpanName::PupUnpack: return "pup.unpack";
    case SpanName::ReplayCompare: return "pup.compare_streams";
    case SpanName::ReplayCrc32c: return "checksum.crc32c_chunks";
    case SpanName::ReplayFletcher64: return "checksum.fletcher64";
    case SpanName::ReplayGf256: return "checksum.gf256_muladd";
    case SpanName::ReplayLzCompress: return "ckpt.lz_compress";
    case SpanName::ReplayLzDecompress: return "ckpt.lz_decompress";
    case SpanName::ReplayCodecEncode: return "ckpt.codec_encode";
    case SpanName::ReplayCodecDecode: return "ckpt.codec_decode";
    case SpanName::kCount: break;
  }
  return "?";
}

namespace {

/// Step and task spans: one job has hundreds of thousands of them.
bool is_detail(SpanName n) {
  switch (n) {
    case SpanName::Step:
    case SpanName::TaskStart:
    case SpanName::TaskResume:
    case SpanName::TaskMessage:
    case SpanName::PupSizing:
    case SpanName::PupPack:
    case SpanName::PupUnpack:
      return true;
    default:
      return false;
  }
}

}  // namespace

void Tracer::open(SpanName name, std::int64_t t_ns) {
  std::int32_t stored = -1;
  bool detail = is_detail(name);
  // A detail span's parent is a job-level span or a detail span stored
  // earlier in the same job, so a stored span's parent is always stored.
  if (!detail || detail_stored_ < kMaxDetailSpansPerJob) {
    if (detail) ++detail_stored_;
    std::int32_t parent = stack_.empty() ? -1 : stack_.back().stored;
    stored = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(StoredSpan{name, job_, parent, t_ns, t_ns});
  }
  stack_.push_back(Frame{name, t_ns, 0, stored});
}

void Tracer::close(std::int64_t t_ns) {
  ACR_REQUIRE(!stack_.empty(), "Tracer::close without an open span");
  Frame f = stack_.back();
  stack_.pop_back();
  std::int64_t dur = t_ns - f.start_ns;
  SpanTotals& tot = totals_[static_cast<std::size_t>(f.name)];
  ++tot.calls;
  tot.total_ns += dur;
  tot.self_ns += dur - f.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (f.stored >= 0)
    spans_[static_cast<std::size_t>(f.stored)].end_ns = t_ns;
  else
    ++dropped_;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const StoredSpan& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"job\":%u}}",
                  i == 0 ? "" : ",", span_name(s.name), s.job,
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, s.job);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
