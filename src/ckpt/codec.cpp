#include "ckpt/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <optional>

#include "common/require.h"
#include "parallel/pool.h"

namespace acr::ckpt {

const char* delta_mode_name(DeltaMode m) {
  return m == DeltaMode::On ? "on" : "off";
}

const char* compress_mode_name(CompressMode m) {
  return m == CompressMode::Lz ? "lz" : "none";
}

std::size_t ChunkMap::present_chunks() const {
  std::size_t n = 0;
  for (std::uint8_t f : present) n += f != 0;
  return n;
}

bool ChunkMap::all_present() const {
  return present_chunks() == present.size();
}

// ---------------------------------------------------------------------------
// LZ block codec.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kLzWindow = 65535;  // 16-bit back-offsets
constexpr std::size_t kLzMinMatch = 4;
constexpr std::size_t kLzMaxMatch = 259;  // length-4 fits one byte
constexpr std::size_t kLzHashBits = 15;
/// Table entries hold pos + kLzSlotBias, so 0 means "empty" and an empty
/// slot decodes to an offset beyond the window: one range test rejects both.
constexpr std::size_t kLzSlotBias = kLzWindow + 1;

inline std::uint32_t load32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline std::uint64_t load64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline std::uint32_t lz_hash(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kLzHashBits);
}

/// Index of the first differing byte of two words loaded from memory.
inline std::size_t first_diff_byte(std::uint64_t x) {
  if constexpr (std::endian::native == std::endian::little)
    return static_cast<std::size_t>(std::countr_zero(x)) / 8;
  else
    return static_cast<std::size_t>(std::countl_zero(x)) / 8;
}

/// Length of the common prefix of `a` and `b`, known to be >= `len`, capped
/// at `limit`. Compares a word at a time; both ranges lie inside the input.
inline std::size_t match_length(const std::byte* a, const std::byte* b,
                                std::size_t len, std::size_t limit) {
  while (len + 8 <= limit) {
    std::uint64_t x = load64(a + len) ^ load64(b + len);
    if (x != 0) return len + first_diff_byte(x);
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

/// Worst-case output: every byte a literal, plus one control byte per 8.
inline std::size_t lz_bound(std::size_t n) { return n + n / 8 + 1; }

/// The greedy coder. Writes into `out` (at least lz_bound(n) bytes) and
/// returns the output length, or `limit` once the output has reached
/// `limit` (checked per control group) — output only grows, so the final
/// length would be >= `limit` too.
std::size_t lz_compress_into(std::span<const std::byte> in, std::byte* out,
                             std::size_t limit) {
  const std::size_t n = in.size();
  ACR_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max() - kLzSlotBias,
              "lz block too large for 32-bit match positions");
  // Single-entry hash table of 4-byte prefixes -> most recent position,
  // biased by kLzSlotBias (0 = empty). Per thread: encode fans chunks out
  // across the kernel pool.
  thread_local std::vector<std::uint32_t> table;
  table.assign(std::size_t{1} << kLzHashBits, 0);
  std::uint32_t* head = table.data();

  const std::byte* src = in.data();
  std::byte* o = out;
  // Positions below probe_end have a full 4-byte prefix to hash; the last
  // three bytes of a block can only be literals.
  const std::size_t probe_end = n >= kLzMinMatch ? n - kLzMinMatch + 1 : 0;
  std::size_t p = 0;
  while (p < n) {
    // One control byte and its (up to) eight items.
    std::byte* ctrl = o++;
    unsigned bits = 0;
    for (unsigned bit = 0; bit < 8 && p < n; ++bit) {
      std::size_t len = 0;
      std::size_t off = 0;
      if (p < probe_end) {
        std::uint32_t word = load32(src + p);
        std::uint32_t& slot = head[lz_hash(word)];
        off = p + kLzSlotBias - slot;
        slot = static_cast<std::uint32_t>(p + kLzSlotBias);
        if (off <= kLzWindow && load32(src + p - off) == word)
          len = match_length(src + p, src + p - off, kLzMinMatch,
                             std::min(kLzMaxMatch, n - p));
      }
      if (len != 0) {
        bits |= 1u << bit;
        o[0] = std::byte{static_cast<unsigned char>(off & 0xFF)};
        o[1] = std::byte{static_cast<unsigned char>(off >> 8)};
        o[2] = std::byte{static_cast<unsigned char>(len - kLzMinMatch)};
        o += 3;
        // Index the covered positions so later zero/lattice runs keep
        // finding nearby matches; skipping them would still be correct,
        // just weaker.
        std::size_t stop = std::min(p + len, probe_end);
        for (std::size_t q = p + 1; q < stop; ++q)
          head[lz_hash(load32(src + q))] =
              static_cast<std::uint32_t>(q + kLzSlotBias);
        p += len;
      } else {
        *o++ = src[p++];
      }
    }
    *ctrl = std::byte{static_cast<unsigned char>(bits)};
    if (static_cast<std::size_t>(o - out) >= limit) return limit;
  }
  return static_cast<std::size_t>(o - out);
}

/// Per-thread worst-case scratch for lz_compress_into.
std::byte* lz_scratch(std::size_t n) {
  thread_local std::vector<std::byte> scratch;
  if (scratch.size() < lz_bound(n)) scratch.resize(lz_bound(n));
  return scratch.data();
}

}  // namespace

std::vector<std::byte> lz_compress_block(std::span<const std::byte> in) {
  std::byte* out = lz_scratch(in.size());
  std::size_t len =
      lz_compress_into(in, out, std::numeric_limits<std::size_t>::max());
  return std::vector<std::byte>(out, out + len);
}

std::optional<std::vector<std::byte>> lz_compress_if_smaller(
    std::span<const std::byte> in) {
  std::byte* out = lz_scratch(in.size());
  std::size_t len = lz_compress_into(in, out, in.size());
  if (len >= in.size()) return std::nullopt;
  return std::vector<std::byte>(out, out + len);
}

std::vector<std::byte> lz_decompress_block(std::span<const std::byte> in,
                                           std::size_t out_len) {
  std::vector<std::byte> out(out_len);
  std::byte* dst = out.data();
  const std::byte* src = in.data();
  const std::size_t in_len = in.size();
  std::size_t o = 0;  // bytes produced
  std::size_t p = 0;  // bytes consumed
  unsigned ctrl = 0;
  int ctrl_left = 0;
  while (o < out_len) {
    if (ctrl_left == 0) {
      if (p >= in_len) throw pup::StreamError("lz block truncated");
      ctrl = static_cast<unsigned>(src[p++]);
      ctrl_left = 8;
      // Eight literals that fit both ends: the item loop below would take
      // the same bytes one at a time, with none of its checks failing.
      if (ctrl == 0 && out_len - o >= 8 && in_len - p >= 8) {
        std::memcpy(dst + o, src + p, 8);
        o += 8;
        p += 8;
        ctrl_left = 0;
        continue;
      }
    }
    bool is_match = (ctrl & 1u) != 0;
    ctrl >>= 1;
    --ctrl_left;
    if (is_match) {
      if (p + 3 > in_len) throw pup::StreamError("lz block truncated");
      std::size_t off = static_cast<std::size_t>(src[p]) |
                        (static_cast<std::size_t>(src[p + 1]) << 8);
      std::size_t len = static_cast<std::size_t>(src[p + 2]) + kLzMinMatch;
      p += 3;
      if (off == 0 || off > o || o + len > out_len)
        throw pup::StreamError("lz block has a bad match token");
      std::byte* d = dst + o;
      const std::byte* s = d - off;
      if (off >= len) {
        std::memcpy(d, s, len);
      } else if (off == 1) {
        std::memset(d, std::to_integer<int>(s[0]), len);
      } else if (off >= 8) {
        // Overlapping, but each 8-byte source word lies in earlier output.
        std::size_t i = 0;
        for (; i + 8 <= len; i += 8) std::memcpy(d + i, s + i, 8);
        for (; i < len; ++i) d[i] = s[i];
      } else {
        for (std::size_t i = 0; i < len; ++i) d[i] = s[i];
      }
      o += len;
    } else {
      if (p >= in_len) throw pup::StreamError("lz block truncated");
      dst[o++] = src[p++];
    }
  }
  if (p != in_len) throw pup::StreamError("lz block has trailing garbage");
  return out;
}

// ---------------------------------------------------------------------------
// Frame encode/decode.
// ---------------------------------------------------------------------------

namespace {

/// One encoding-1 payload record: [u8 encoding][u32 body length][body].
struct ChunkRecord {
  bool present = false;
  std::uint8_t enc = 0;
  std::span<const std::byte> body;
};

void append_record(buf::BufferBuilder& b, const ChunkRecord& r) {
  std::uint32_t len = static_cast<std::uint32_t>(r.body.size());
  b.write(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(&r.enc), 1));
  b.write(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(&len), sizeof len));
  b.write(r.body);
}

/// The records of a compressed frame of a `full_bytes`-byte image, indexed
/// by chunk. Empty when there is no such frame (null, raw-encoded, another
/// image size, or malformed) — then nothing is reused.
std::vector<ChunkRecord> frame_records(const CodecFrame* f,
                                       std::uint64_t full_bytes) {
  const std::size_t n = checksum::digest_chunk_count(full_bytes);
  if (f == nullptr || f->encoding != 1 || f->map.full_bytes != full_bytes ||
      f->map.present.size() != n)
    return {};
  std::vector<ChunkRecord> recs(n);
  std::span<const std::byte> payload = f->payload.bytes();
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!f->map.present[i]) continue;
    if (payload.size() - cursor < 5) return {};
    std::uint32_t len = 0;
    std::memcpy(&len, payload.data() + cursor + 1, sizeof len);
    if (payload.size() - cursor - 5 < len) return {};
    recs[i].present = true;
    recs[i].enc = static_cast<std::uint8_t>(payload[cursor]);
    recs[i].body = payload.subspan(cursor + 5, len);
    cursor += 5 + std::size_t{len};
  }
  return recs;
}

}  // namespace

/// Stages 1–3 sans payload: the chunk map and byte accounting.
static CodecFrame start_frame(const CodecConfig& cfg,
                              std::span<const std::byte> image,
                              std::span<const std::uint32_t> digests,
                              const std::vector<std::uint32_t>* base_digests,
                              std::uint64_t base_bytes) {
  const std::size_t n = checksum::digest_chunk_count(image.size());
  CodecFrame frame;
  frame.map.full_bytes = image.size();
  frame.map.present.assign(n, 1);

  bool delta = cfg.delta_on() && base_digests != nullptr &&
               base_bytes == image.size() && base_digests->size() == n &&
               digests.size() == n;
  if (delta)
    for (std::size_t i = 0; i < n; ++i)
      frame.map.present[i] = digests[i] != (*base_digests)[i] ? 1 : 0;

  for (std::size_t i = 0; i < n; ++i) {
    if (!frame.map.present[i]) continue;
    auto [begin, end] = checksum::digest_chunk_range(image.size(), i);
    frame.raw_payload_bytes += end - begin;
  }
  return frame;
}

CodecFrame CodecPipeline::encode(std::span<const std::byte> image,
                                 std::span<const std::uint32_t> digests,
                                 const std::vector<std::uint32_t>* base_digests,
                                 std::uint64_t base_bytes,
                                 const CodecFrame* reuse) const {
  CodecFrame frame =
      start_frame(cfg_, image, digests, base_digests, base_bytes);
  const std::size_t n = frame.map.present.size();
  std::vector<std::size_t> carried;
  carried.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (frame.map.present[i]) carried.push_back(i);

  if (!cfg_.compress_on()) {
    frame.encoding = 0;
    if (carried.size() == n) {
      frame.payload = buf::Buffer::copy_of(image);
    } else {
      buf::BufferBuilder b;
      b.reserve(frame.raw_payload_bytes);
      for (std::size_t i : carried) {
        auto [begin, end] = checksum::digest_chunk_range(image.size(), i);
        b.write(image.subspan(begin, end - begin));
      }
      frame.payload = b.take();
    }
    return frame;
  }

  // Compress stage: each carried chunk independently (the same traversal
  // shape as the digest stage), merged in chunk order. A chunk the reuse
  // frame already carries takes that record verbatim: LZ is a pure
  // function of the chunk bytes, and the caller vouches the bytes match.
  frame.encoding = 1;
  const std::vector<ChunkRecord> prior = frame_records(reuse, image.size());
  std::vector<ChunkRecord> recs(carried.size());
  std::vector<std::vector<std::byte>> packed(carried.size());
  auto pack_one = [&](std::size_t k) {
    std::size_t i = carried[k];
    if (!prior.empty() && prior[i].present) {
      recs[k] = prior[i];
      return;
    }
    auto [begin, end] = checksum::digest_chunk_range(image.size(), i);
    std::span<const std::byte> raw = image.subspan(begin, end - begin);
    recs[k].present = true;
    std::optional<std::vector<std::byte>> lz = lz_compress_if_smaller(raw);
    if (lz) {
      packed[k] = std::move(*lz);
      recs[k].enc = static_cast<std::uint8_t>(ChunkEncoding::Lz);
      recs[k].body = packed[k];
    } else {
      recs[k].enc = static_cast<std::uint8_t>(ChunkEncoding::Raw);
      recs[k].body = raw;
    }
  };
  parallel::Pool& pool = parallel::global();
  if (pool.threads() == 0 || carried.size() < 2) {
    for (std::size_t k = 0; k < carried.size(); ++k) pack_one(k);
  } else {
    pool.for_each_index(carried.size(), pack_one);
  }
  std::size_t total = 0;
  for (const ChunkRecord& r : recs) total += 5 + r.body.size();
  buf::BufferBuilder b;
  b.reserve(total);
  for (const ChunkRecord& r : recs) append_record(b, r);
  frame.payload = b.take();
  return frame;
}

CodecFrame CodecPipeline::encode_full(std::span<const std::byte> image) const {
  return encode(image, {}, nullptr, 0);
}

CodecFrame CodecPipeline::encode(const buf::Buffer& image,
                                 std::span<const std::uint32_t> digests,
                                 const std::vector<std::uint32_t>* base_digests,
                                 std::uint64_t base_bytes,
                                 const CodecFrame* reuse) const {
  if (!cfg_.compress_on()) {
    // The raw full-map degenerate case must not byte-copy the image; build
    // the map first and alias when every chunk is carried.
    CodecFrame frame =
        start_frame(cfg_, image.bytes(), digests, base_digests, base_bytes);
    if (frame.map.all_present()) {
      frame.encoding = 0;
      frame.payload = image;
      return frame;
    }
  }
  return encode(image.bytes(), digests, base_digests, base_bytes, reuse);
}

CodecFrame CodecPipeline::encode_full(const buf::Buffer& image) const {
  return encode(image, {}, nullptr, 0);
}

buf::Buffer CodecPipeline::decode(const CodecFrame& frame,
                                  std::span<const std::byte> base) {
  const std::uint64_t full = frame.map.full_bytes;
  const std::size_t n = checksum::digest_chunk_count(full);
  if (frame.map.present.size() != n)
    throw pup::StreamError("codec frame: chunk map does not match image size");
  if (!frame.map.all_present() && base.size() != full)
    throw pup::StreamError("codec frame: delta without a matching base image");

  std::span<const std::byte> payload = frame.payload.bytes();
  std::size_t cursor = 0;
  buf::BufferBuilder out;
  out.reserve(full);
  for (std::size_t i = 0; i < n; ++i) {
    auto [begin, end] = checksum::digest_chunk_range(full, i);
    std::size_t raw_len = end - begin;
    if (!frame.map.present[i]) {
      out.write(base.subspan(begin, raw_len));
      continue;
    }
    if (frame.encoding == 0) {
      if (cursor + raw_len > payload.size())
        throw pup::StreamError("codec frame: raw payload truncated");
      out.write(payload.subspan(cursor, raw_len));
      cursor += raw_len;
    } else {
      if (cursor + 5 > payload.size())
        throw pup::StreamError("codec frame: record header truncated");
      std::uint8_t e = static_cast<std::uint8_t>(payload[cursor]);
      std::uint32_t len = 0;
      std::memcpy(&len, payload.data() + cursor + 1, sizeof len);
      cursor += 5;
      if (cursor + len > payload.size())
        throw pup::StreamError("codec frame: record body truncated");
      std::span<const std::byte> body = payload.subspan(cursor, len);
      cursor += len;
      if (e == static_cast<std::uint8_t>(ChunkEncoding::Raw)) {
        if (body.size() != raw_len)
          throw pup::StreamError("codec frame: raw record length mismatch");
        out.write(body);
      } else if (e == static_cast<std::uint8_t>(ChunkEncoding::Lz)) {
        std::vector<std::byte> raw = lz_decompress_block(body, raw_len);
        out.write(raw);
      } else {
        throw pup::StreamError("codec frame: unknown chunk encoding");
      }
    }
  }
  if (cursor != payload.size())
    throw pup::StreamError("codec frame: payload has trailing bytes");
  return out.take();
}

}  // namespace acr::ckpt
