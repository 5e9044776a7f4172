#include "replay.h"

#include <cstdint>
#include <utility>

#include "checksum/fletcher.h"
#include "checksum/gf256.h"
#include "checksum/kernels.h"
#include "ckpt/codec.h"
#include "pup/checker.h"

namespace perfbench {

namespace {

using Image = std::span<const std::byte>;

/// Runs `fn(i)` for every i < n, in whole passes of `pass_bytes` each,
/// until at least kReplayMinBytes went through it. Returns MB/s (1 MB = 1e6
/// bytes).
template <class Fn>
double replay_mbps(Tracer* tracer, SpanName name, std::size_t n,
                   double pass_bytes, Fn&& fn) {
  if (n == 0 || pass_bytes <= 0.0) return 0.0;
  double done = 0.0;
  std::int64_t t0 = now_ns();
  if (tracer != nullptr) tracer->open(name, t0);
  while (done < static_cast<double>(kReplayMinBytes)) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    done += pass_bytes;
  }
  std::int64_t t1 = now_ns();
  if (tracer != nullptr) tracer->close(t1);
  double s = static_cast<double>(t1 - t0) / 1e9;
  return s > 0.0 ? done / s / 1e6 : 0.0;
}

/// Keeps each replayed result observable so the call cannot be elided.
volatile std::uint64_t g_sink = 0;
void keep(std::uint64_t v) { g_sink = g_sink + v; }

}  // namespace

ReplayResult replay_images(acr::AcrRuntime& runtime, Tracer* tracer) {
  ReplayResult r;
  double bytes = 0.0;
  std::vector<Image> images;
  std::vector<std::pair<Image, Image>> twins;  // replica 0 and 1, same epoch
  double twin_bytes = 0.0;
  for (int i = 0; i < runtime.cluster().nodes_per_replica(); ++i) {
    const acr::NodeAgent& a = runtime.agent_at(0, i);
    const acr::NodeAgent& b = runtime.agent_at(1, i);
    if (!a.has_verified() || a.verified_image().empty()) continue;
    images.push_back(a.verified_image());
    bytes += static_cast<double>(a.verified_image().size());
    if (b.has_verified() && b.verified_epoch() == a.verified_epoch()) {
      twins.emplace_back(a.verified_image(), b.verified_image());
      twin_bytes += static_cast<double>(a.verified_image().size());
    }
  }
  if (images.empty()) return r;
  const std::size_t n = images.size();

  r.compare_streams_mbps = replay_mbps(
      tracer, SpanName::ReplayCompare, twins.size(), twin_bytes,
      [&](std::size_t i) {
        keep(acr::pup::compare_streams(twins[i].first, twins[i].second).match);
      });
  r.crc32c_chunks_mbps = replay_mbps(
      tracer, SpanName::ReplayCrc32c, n, bytes, [&](std::size_t i) {
        keep(acr::checksum::crc32c_chunk_digests(images[i]).back());
      });
  r.fletcher64_mbps = replay_mbps(
      tracer, SpanName::ReplayFletcher64, n, bytes,
      [&](std::size_t i) { keep(acr::checksum::fletcher64(images[i])); });
  {
    std::vector<std::byte> acc;
    r.gf256_muladd_mbps = replay_mbps(
        tracer, SpanName::ReplayGf256, n, bytes, [&](std::size_t i) {
          acc.assign(images[i].size(), std::byte{0});
          acr::checksum::gf256_muladd_chunked(acc, images[i], 0x53);
          keep(static_cast<std::uint64_t>(acc.back()));
        });
  }

  // The LZ block codec over each image's digest-chunk grid, as the codec
  // pipeline applies it.
  std::vector<Image> chunks;
  for (const Image& im : images) {
    for (std::size_t c = 0; c < acr::checksum::digest_chunk_count(im.size());
         ++c) {
      auto [b, e] = acr::checksum::digest_chunk_range(im.size(), c);
      chunks.push_back(im.subspan(b, e - b));
    }
  }
  std::vector<std::vector<std::byte>> packed;
  double packed_bytes = 0.0;
  for (const Image& c : chunks) {
    packed.push_back(acr::ckpt::lz_compress_block(c));
    packed_bytes += static_cast<double>(packed.back().size());
  }
  r.lz_ratio = packed_bytes / bytes;
  r.lz_compress_mbps = replay_mbps(
      tracer, SpanName::ReplayLzCompress, chunks.size(), bytes,
      [&](std::size_t i) {
        keep(acr::ckpt::lz_compress_block(chunks[i]).size());
      });
  r.lz_decompress_mbps = replay_mbps(
      tracer, SpanName::ReplayLzDecompress, chunks.size(), bytes,
      [&](std::size_t i) {
        keep(acr::ckpt::lz_decompress_block(packed[i], chunks[i].size())
                 .size());
      });

  // The staged codec with both stages on; full frames (no delta base).
  acr::ckpt::CodecConfig cfg;
  cfg.delta = acr::ckpt::DeltaMode::On;
  cfg.compress = acr::ckpt::CompressMode::Lz;
  const acr::ckpt::CodecPipeline codec(cfg);
  std::vector<acr::ckpt::CodecFrame> frames;
  for (const Image& im : images) frames.push_back(codec.encode_full(im));
  r.codec_encode_mbps = replay_mbps(
      tracer, SpanName::ReplayCodecEncode, n, bytes, [&](std::size_t i) {
        keep(codec.encode_full(images[i]).payload.size());
      });
  r.codec_decode_mbps = replay_mbps(
      tracer, SpanName::ReplayCodecDecode, n, bytes, [&](std::size_t i) {
        keep(acr::ckpt::CodecPipeline::decode(frames[i], {}).size());
      });
  return r;
}

}  // namespace perfbench
