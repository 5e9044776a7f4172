// Replays each data-plane layer's public function on a finished job's own
// verified checkpoint images, timed from outside. The figures are computed
// throughputs on real images, not measurements taken inside the job.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "acr/runtime.h"
#include "tracer.h"

namespace perfbench {

struct ReplayResult {
  double crc32c_chunks_mbps = 0.0;
  double fletcher64_mbps = 0.0;
  double gf256_muladd_mbps = 0.0;
  double lz_compress_mbps = 0.0;
  double lz_decompress_mbps = 0.0;
  double lz_ratio = 0.0;  ///< compressed bytes / raw bytes
  double codec_encode_mbps = 0.0;
  double codec_decode_mbps = 0.0;
  double compare_streams_mbps = 0.0;
};

/// Each kernel runs over every image, in passes, until at least this many
/// bytes went through it, so small images still give a measurable time.
inline constexpr std::size_t kReplayMinBytes = std::size_t{8} << 20;

/// Replay over the newest verified image of each node index in replica 0,
/// compared against replica 1's image of the same epoch. Each kernel's
/// replay is a Replay span of `tracer` when it is non-null.
ReplayResult replay_images(acr::AcrRuntime& runtime, Tracer* tracer);

}  // namespace perfbench
