// Staged checkpoint codec pipeline (pack → chunk-digest → delta →
// compress → redundancy-encode).
//
// The pre-codec data plane shipped every checkpoint as one monolithic
// Buffer: Packer → image → scheme. For iterative mini-apps most 256 KiB
// chunks of that image are bit-identical between epochs (the AutoCheck
// observation: the state that actually changes is far smaller than the
// address space), so the codec refactors the path into explicit stages on
// the checksum::kDigestChunk grid:
//
//   pack          pup::Packer, unchanged — its byte stream is a pure
//                 function of application state (chunk-stable boundaries,
//                 see pup.h), which is the invariant everything below
//                 leans on.
//   chunk-digest  checksum::crc32c_chunk_digests — one CRC32C per 256 KiB
//                 chunk, fanned across parallel::global().
//   delta         compare this epoch's digests against a BASE epoch's;
//                 only chunks whose digest changed are carried, described
//                 by a ChunkMap (full_bytes + per-chunk present flags).
//   compress      a deterministic LZ-class stage (per chunk, so it rides
//                 the same parallel traversal); a chunk that does not
//                 shrink is stored raw, flagged per chunk.
//   redundancy-   the schemes: partner ships the CodecFrame instead of the
//   encode        image, rs folds diff ranges into parity, the L2 tier
//                 stores the frame as a vault v2 delta blob.
//
// Determinism: chunk geometry depends only on the image SIZE, the LZ stage
// is seed-free and greedy, and every parallel fan-out merges in chunk
// order — encode(image) is bit-identical at any --kernel-threads. A frame
// is self-describing enough to invert given the base bytes, and every
// consumer falls back to full images whenever its base is unavailable
// (post-restart, post-shrink, scheme change) — delta is an optimization,
// never a correctness dependency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "buf/buffer.h"
#include "checksum/kernels.h"
#include "pup/pup.h"
#include "pup/stl.h"

namespace acr::ckpt {

enum class DeltaMode { Off, On };
enum class CompressMode { None, Lz };

const char* delta_mode_name(DeltaMode m);
const char* compress_mode_name(CompressMode m);

/// Codec policy, carried in AcrConfig. Both knobs default off, which keeps
/// every frame on the legacy full-image path byte-for-byte.
struct CodecConfig {
  DeltaMode delta = DeltaMode::Off;
  CompressMode compress = CompressMode::None;

  bool delta_on() const { return delta == DeltaMode::On; }
  bool compress_on() const { return compress == CompressMode::Lz; }
  bool enabled() const { return delta_on() || compress_on(); }
};

/// Which chunks of the checksum::kDigestChunk grid a frame carries.
struct ChunkMap {
  std::uint64_t full_bytes = 0;       ///< decoded image size
  std::vector<std::uint8_t> present;  ///< per chunk: 1 = carried in payload

  std::size_t chunks() const { return present.size(); }
  std::size_t present_chunks() const;
  bool all_present() const;
  /// Bytes the map itself occupies on the wire / in a vault blob.
  std::size_t map_bytes() const { return 16 + present.size(); }

  void pup(pup::Puper& p) {
    p | full_bytes;
    p | present;
  }
};

/// Per-chunk payload encodings. A compressed chunk that fails to shrink is
/// stored raw — decided per chunk, deterministically, by output size.
enum class ChunkEncoding : std::uint8_t { Raw = 0, Lz = 1 };

/// One encoded checkpoint frame: the chunk map plus the payload of the
/// present chunks. With encoding Raw and all chunks present the payload
/// aliases the source image (zero-copy); otherwise it is a fresh buffer of
/// [u8 chunk-encoding][u32 encoded-len][bytes] records in chunk order.
struct CodecFrame {
  ChunkMap map;
  std::uint8_t encoding = 0;  ///< 0 = raw concatenation, 1 = per-chunk records
  buf::Buffer payload;
  std::uint64_t raw_payload_bytes = 0;  ///< present-chunk bytes pre-compression

  /// Bytes this frame charges on the wire / against the L2 channel.
  std::uint64_t encoded_bytes() const { return map.map_bytes() + payload.size(); }
};

/// The staged encoder/decoder. Stateless apart from its config; one
/// instance per agent (and one inside the durable tier for blob decode).
class CodecPipeline {
 public:
  CodecPipeline() = default;
  explicit CodecPipeline(CodecConfig cfg) : cfg_(cfg) {}

  const CodecConfig& config() const { return cfg_; }

  /// Stage 2: per-chunk CRC32C digests of an image (chunk-parallel,
  /// thread-count invariant).
  static std::vector<std::uint32_t> digests(std::span<const std::byte> image) {
    return checksum::crc32c_chunk_digests(image);
  }

  /// Stages 3–4. `digests` must be digests(image). A null `base_digests`
  /// (or a base of a different size, or delta off) produces a full-map
  /// frame; otherwise chunks whose digest matches the base are dropped.
  /// The compress stage then encodes the surviving chunks when enabled.
  ///
  /// Same-epoch reuse: `reuse`, when non-null, must be a frame this
  /// pipeline's config encoded from an image bitwise equal to `image` (the
  /// caller proves the equality; the agent uses buf::Buffer::content_equals).
  /// Every carried chunk that `reuse` also carries copies its record
  /// (encoding byte, length, body) verbatim instead of compressing again.
  /// This is exact: a record is a pure function of the chunk's bytes (LZ
  /// is seed-free; raw-vs-LZ is decided by size alone), so the payload is
  /// byte-equal to encoding without `reuse`. A raw-encoded or other-sized
  /// `reuse` frame is ignored.
  CodecFrame encode(std::span<const std::byte> image,
                    std::span<const std::uint32_t> digests,
                    const std::vector<std::uint32_t>* base_digests,
                    std::uint64_t base_bytes,
                    const CodecFrame* reuse = nullptr) const;

  /// Convenience: full-map frame (no delta), compression per config.
  CodecFrame encode_full(std::span<const std::byte> image) const;

  /// Buffer-taking overloads. When the frame degenerates to "raw, every
  /// chunk present" the payload aliases `image` instead of copying it —
  /// this is what makes the codec-off and full-fallback paths zero-copy.
  CodecFrame encode(const buf::Buffer& image,
                    std::span<const std::uint32_t> digests,
                    const std::vector<std::uint32_t>* base_digests,
                    std::uint64_t base_bytes,
                    const CodecFrame* reuse = nullptr) const;
  CodecFrame encode_full(const buf::Buffer& image) const;

  /// Inverse of encode: reconstruct the full image. `base` supplies the
  /// bytes of absent chunks and must be exactly map.full_bytes long unless
  /// the frame is full-map (then it is ignored). Throws pup::StreamError
  /// on a malformed frame or base-size mismatch.
  static buf::Buffer decode(const CodecFrame& frame,
                            std::span<const std::byte> base);

 private:
  CodecConfig cfg_;
};

// ---------------------------------------------------------------------------
// Deterministic LZ block codec (the compress stage's inner loop).
//
// Greedy LZSS over a 64 KiB window: a single-entry hash table maps each
// position's 4-byte prefix to the most recent position with the same hash,
// and the one candidate it names is the only match tried. Tokens are
// literal bytes and (offset, length) copies, eight to a control byte.
// Seed-free and position-ordered, so output depends only on input bytes —
// identical across thread counts, kernel impls and machines. Checkpoint
// images of iterative codes are full of zero runs and repeated lattice
// values; offset-1 matches turn those into ~3 bytes per 259.
//
// The format is pinned (LzBlock.GoldenStreamsArePinned): frame bytes, and
// with them every virtual-time charge, depend on it. The coder is greedy
// and probes every position, so its speed is bounded by the format; faster
// kernels must emit the same bytes.
// ---------------------------------------------------------------------------

/// Compress one block. The output is self-delimiting given `in.size()`.
std::vector<std::byte> lz_compress_block(std::span<const std::byte> in);

/// lz_compress_block(in) when it is strictly shorter than `in`, else
/// nullopt — the raw-fallback rule of the compress stage and of rs parity
/// diffs. Stops coding as soon as the output reaches in.size(); output
/// only grows, so giving up early never changes the answer.
std::optional<std::vector<std::byte>> lz_compress_if_smaller(
    std::span<const std::byte> in);

/// Decompress a block produced by lz_compress_block into exactly
/// `out_len` bytes. Throws pup::StreamError on malformed input.
std::vector<std::byte> lz_decompress_block(std::span<const std::byte> in,
                                           std::size_t out_len);

}  // namespace acr::ckpt
