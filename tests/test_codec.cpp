// Unit and property tests for the staged checkpoint codec pipeline
// (ckpt/codec.h): the LZ block codec, frame encode/decode, thread-count
// invariance, vault v2 delta blobs, and the durable tier's delta chains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "buf/buffer.h"
#include "checksum/crc32c.h"
#include "checksum/kernels.h"
#include "ckpt/codec.h"
#include "ckpt/tier.h"
#include "ckpt/vault.h"
#include "common/rng.h"
#include "parallel/pool.h"

namespace acr::ckpt {
namespace {

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed, 11);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.bounded(256));
  return out;
}

/// Lattice-flavoured data: long runs of repeated doubles with sparse noise,
/// the shape checkpoint images of iterative codes actually have.
std::vector<std::byte> lattice_bytes(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed, 13);
  std::vector<double> vals(n / sizeof(double) + 1, 1.0);
  for (std::size_t i = 0; i < vals.size() / 50; ++i)
    vals[rng.next64() % vals.size()] = rng.uniform();
  std::vector<std::byte> out(n);
  std::memcpy(out.data(), vals.data(), n);
  return out;
}

CodecConfig config(bool delta, bool compress) {
  CodecConfig c;
  c.delta = delta ? DeltaMode::On : DeltaMode::Off;
  c.compress = compress ? CompressMode::Lz : CompressMode::None;
  return c;
}

// ---------------------------------------------------------------------------
// LZ block codec.
// ---------------------------------------------------------------------------

TEST(LzBlock, RoundTripsRandomData) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{4096}, std::size_t{70000}}) {
    std::vector<std::byte> in = random_bytes(n, 42 + n);
    std::vector<std::byte> packed = lz_compress_block(in);
    EXPECT_EQ(lz_decompress_block(packed, n), in) << "n=" << n;
  }
}

TEST(LzBlock, CompressesRunsAndLattices) {
  std::vector<std::byte> zeros(1 << 16, std::byte{0});
  std::vector<std::byte> packed = lz_compress_block(zeros);
  EXPECT_LT(packed.size(), zeros.size() / 20);
  EXPECT_EQ(lz_decompress_block(packed, zeros.size()), zeros);

  std::vector<std::byte> lat = lattice_bytes(1 << 17, 7);
  std::vector<std::byte> lp = lz_compress_block(lat);
  EXPECT_LT(lp.size(), lat.size());
  EXPECT_EQ(lz_decompress_block(lp, lat.size()), lat);
}

TEST(LzBlock, IncompressibleDataStillRoundTrips) {
  // Worst case: random bytes grow by the control-byte overhead (1/8), and
  // the codec's per-chunk raw fallback is what keeps frames bounded.
  std::vector<std::byte> in = random_bytes(1 << 15, 99);
  std::vector<std::byte> packed = lz_compress_block(in);
  EXPECT_LE(packed.size(), in.size() + in.size() / 8 + 8);
  EXPECT_EQ(lz_decompress_block(packed, in.size()), in);
}

TEST(LzBlock, TruncatedInputThrows) {
  std::vector<std::byte> in = lattice_bytes(4096, 3);
  std::vector<std::byte> packed = lz_compress_block(in);
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, packed.size() / 2,
                          packed.size() - 1}) {
    std::vector<std::byte> trunc(packed.begin(),
                                 packed.begin() + static_cast<long>(cut));
    EXPECT_THROW(lz_decompress_block(trunc, in.size()), pup::StreamError)
        << "cut=" << cut;
  }
}

TEST(LzBlock, TrailingGarbageThrows) {
  std::vector<std::byte> in = lattice_bytes(4096, 4);
  std::vector<std::byte> packed = lz_compress_block(in);
  packed.push_back(std::byte{0x5A});
  EXPECT_THROW(lz_decompress_block(packed, in.size()), pup::StreamError);
}

TEST(LzBlock, BadMatchTokenThrows) {
  // Hand-build a stream whose first item is a match: no prior output makes
  // any offset invalid.
  std::vector<std::byte> bad = {std::byte{0x01},   // ctrl: item 0 is a match
                                std::byte{0x01}, std::byte{0x00},  // offset 1
                                std::byte{0x00}};  // length 4
  EXPECT_THROW(lz_decompress_block(bad, 16), pup::StreamError);
}

TEST(LzBlock, AdversarialRandomStreamsNeverCrash) {
  // Decoding random bytes must either produce out_len bytes or throw —
  // never read out of bounds (ASan-checked in the sanitizer CI job).
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    std::vector<std::byte> junk = random_bytes(64 + seed % 128, 1000 + seed);
    try {
      std::vector<std::byte> out = lz_decompress_block(junk, 512);
      EXPECT_EQ(out.size(), 512u);
    } catch (const pup::StreamError&) {
      // expected for most seeds
    }
  }
}

/// A smooth double field (slowly varying lattice values, no noise), built
/// from integer arithmetic so its bytes are the same on every platform.
std::vector<std::byte> smooth_field(std::size_t n) {
  std::vector<double> vals(n / sizeof(double));
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = static_cast<double>((i * i) >> 12) / 65536.0;
  std::vector<std::byte> out(n);
  std::memcpy(out.data(), vals.data(), n);
  return out;
}

TEST(LzBlock, GoldenStreamsArePinned) {
  // Frame, parity-diff and L2 blob sizes — and with them every virtual
  // time — depend on the exact LZ bytes. These CRC32Cs and lengths were
  // taken from the original byte-loop coder; a faster kernel must keep
  // them.
  struct Golden {
    const char* name;
    std::vector<std::byte> in;
    std::uint32_t crc;
    std::size_t len;
  };
  auto abc = [](std::size_t n) {
    std::vector<std::byte> v(n);
    for (std::size_t i = 0; i < n; ++i)
      v[i] = static_cast<std::byte>(0x41 + i % 3);
    return v;
  };
  const std::vector<Golden> golden = {
      {"abc0", abc(0), 0x00000000u, 0},
      {"abc1", abc(1), 0x4271E96Du, 2},
      {"abc2", abc(2), 0x2C919042u, 3},
      {"abc3", abc(3), 0xA03A41C2u, 4},
      {"abc4", abc(4), 0xC37BA19Cu, 5},
      {"abc5", abc(5), 0x2D15767Cu, 6},
      {"abc6", abc(6), 0x3CA033B2u, 7},
      {"abc7", abc(7), 0x70FE0497u, 7},
      {"abc8", abc(8), 0x82958794u, 7},
      {"zeros64k", std::vector<std::byte>(1 << 16, std::byte{0}),
       0x4E1740E2u, 795},
      {"lattice", lattice_bytes(1 << 17, 7), 0xBFB8EDA0u, 6060},
      {"random", random_bytes(1 << 15, 99), 0x702B62ADu, 36864},
      {"smooth", smooth_field(1 << 18), 0xA4E81FA0u, 152015},
  };
  for (const Golden& g : golden) {
    std::vector<std::byte> out = lz_compress_block(g.in);
    EXPECT_EQ(out.size(), g.len) << g.name;
    EXPECT_EQ(checksum::crc32c(out), g.crc) << g.name;
    EXPECT_EQ(lz_decompress_block(out, g.in.size()), g.in) << g.name;
  }
}

// The original byte-at-a-time coder, kept as the oracle the fast kernel
// must match byte for byte (and throw for throw).
namespace reference {

constexpr std::size_t kWindow = 65535;
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 259;
constexpr std::size_t kHashBits = 15;

std::uint32_t hash(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

std::vector<std::byte> compress(std::span<const std::byte> in) {
  const std::size_t n = in.size();
  std::vector<std::byte> out;
  std::vector<std::int64_t> head(std::size_t{1} << kHashBits, -1);
  std::size_t ctrl_pos = 0;
  int ctrl_used = 8;
  auto begin_item = [&](bool is_match) {
    if (ctrl_used == 8) {
      ctrl_pos = out.size();
      out.push_back(std::byte{0});
      ctrl_used = 0;
    }
    if (is_match)
      out[ctrl_pos] |= std::byte{static_cast<unsigned char>(1u << ctrl_used)};
    ++ctrl_used;
  };
  std::size_t p = 0;
  while (p < n) {
    std::size_t best_len = 0;
    std::size_t best_off = 0;
    if (p + kMinMatch <= n) {
      std::uint32_t h = hash(in.data() + p);
      std::int64_t cand = head[h];
      head[h] = static_cast<std::int64_t>(p);
      if (cand >= 0) {
        std::size_t off = p - static_cast<std::size_t>(cand);
        if (off >= 1 && off <= kWindow) {
          const std::byte* a = in.data() + p;
          const std::byte* b = in.data() + static_cast<std::size_t>(cand);
          std::size_t limit = std::min(kMaxMatch, n - p);
          std::size_t len = 0;
          while (len < limit && a[len] == b[len]) ++len;
          if (len >= kMinMatch) {
            best_len = len;
            best_off = off;
          }
        }
      }
    }
    if (best_len > 0) {
      begin_item(true);
      out.push_back(std::byte{static_cast<unsigned char>(best_off & 0xFF)});
      out.push_back(std::byte{static_cast<unsigned char>(best_off >> 8)});
      out.push_back(
          std::byte{static_cast<unsigned char>(best_len - kMinMatch)});
      std::size_t stop = std::min(p + best_len, n - kMinMatch + 1);
      for (std::size_t q = p + 1; q < stop; ++q)
        head[hash(in.data() + q)] = static_cast<std::int64_t>(q);
      p += best_len;
    } else {
      begin_item(false);
      out.push_back(in[p]);
      ++p;
    }
  }
  return out;
}

std::vector<std::byte> decompress(std::span<const std::byte> in,
                                  std::size_t out_len) {
  std::vector<std::byte> out;
  std::size_t p = 0;
  std::uint8_t ctrl = 0;
  int ctrl_left = 0;
  while (out.size() < out_len) {
    if (ctrl_left == 0) {
      if (p >= in.size()) throw pup::StreamError("lz block truncated");
      ctrl = static_cast<std::uint8_t>(in[p++]);
      ctrl_left = 8;
    }
    bool is_match = (ctrl & 1u) != 0;
    ctrl >>= 1;
    --ctrl_left;
    if (is_match) {
      if (p + 3 > in.size()) throw pup::StreamError("lz block truncated");
      std::size_t off = static_cast<std::size_t>(in[p]) |
                        (static_cast<std::size_t>(in[p + 1]) << 8);
      std::size_t len = static_cast<std::size_t>(in[p + 2]) + kMinMatch;
      p += 3;
      if (off == 0 || off > out.size() || out.size() + len > out_len)
        throw pup::StreamError("lz block has a bad match token");
      std::size_t src = out.size() - off;
      for (std::size_t i = 0; i < len; ++i) out.push_back(out[src + i]);
    } else {
      if (p >= in.size()) throw pup::StreamError("lz block truncated");
      out.push_back(in[p++]);
    }
  }
  if (p != in.size()) throw pup::StreamError("lz block has trailing garbage");
  return out;
}

}  // namespace reference

/// A 300-byte phrase of nonzero bytes repeated `gap` bytes later, zeros
/// between (zero runs all hash to one slot, so the phrase's table entries
/// survive until the repeat), then `tail` random bytes.
std::vector<std::byte> window_edge_input(std::size_t gap, std::size_t tail) {
  std::vector<std::byte> v(gap + 300 + tail, std::byte{0});
  std::vector<std::byte> phrase = random_bytes(300, gap);
  for (auto& b : phrase) b |= std::byte{1};
  std::copy(phrase.begin(), phrase.end(), v.begin());
  std::copy(phrase.begin(), phrase.end(), v.begin() + gap);
  std::vector<std::byte> rest = random_bytes(tail, tail);
  std::copy(rest.begin(), rest.end(), v.begin() + gap + 300);
  return v;
}

/// Inputs that reach every branch of the coder: random and low-entropy
/// bytes, runs longer than the 259-byte match cap, lattices, repeats at
/// exactly the window edge (offsets 65535 and 65536), and every n < 4 tail.
std::vector<std::vector<std::byte>> oracle_inputs() {
  std::vector<std::vector<std::byte>> inputs;
  Pcg32 rng(2024, 17);
  for (std::size_t n = 0; n < 16; ++n) inputs.push_back(random_bytes(n, n));
  for (int i = 0; i < 1000; ++i) {
    std::size_t n = rng.bounded(3000);
    std::vector<std::byte> v(n);
    switch (i % 5) {
      case 0:  // uniform random: mostly literals
        for (auto& b : v) b = static_cast<std::byte>(rng.bounded(256));
        break;
      case 1:  // tiny alphabet: short matches and hash collisions
        for (auto& b : v) b = static_cast<std::byte>(rng.bounded(3));
        break;
      case 2:  // long runs broken by noise: max-length and tail matches
        for (std::size_t j = 0; j < n; ++j)
          v[j] = rng.bounded(300) == 0
                     ? static_cast<std::byte>(rng.bounded(256))
                     : std::byte{static_cast<unsigned char>(j / 700)};
        break;
      case 3:  // repeated period-k patterns, k in [1, 24]
      {
        std::size_t k = 1 + rng.bounded(24);
        for (std::size_t j = 0; j < n; ++j)
          v[j] = j < k ? static_cast<std::byte>(rng.bounded(256)) : v[j - k];
        if (n > 0)
          v[rng.bounded(static_cast<std::uint32_t>(n))] ^= std::byte{1};
        break;
      }
      default:
        v = lattice_bytes(n + 1, static_cast<std::uint64_t>(i));
        break;
    }
    inputs.push_back(std::move(v));
  }
  for (std::size_t gap : {std::size_t{65535}, std::size_t{65536}})
    for (std::size_t tail = 0; tail < 4; ++tail)
      inputs.push_back(window_edge_input(gap, tail));
  inputs.push_back(std::vector<std::byte>(70000, std::byte{0}));
  inputs.push_back(smooth_field(1 << 18));
  return inputs;
}

TEST(LzBlock, MatchesTheReferenceCoder) {
  std::vector<std::vector<std::byte>> inputs = oracle_inputs();
  ASSERT_GE(inputs.size(), 1000u);
  // The window edge is really exercised: offset 65535 matches the repeated
  // phrase, offset 65536 cannot.
  EXPECT_LT(reference::compress(window_edge_input(65535, 0)).size() + 200,
            reference::compress(window_edge_input(65536, 0)).size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::vector<std::byte>& in = inputs[i];
    std::vector<std::byte> want = reference::compress(in);
    ASSERT_EQ(lz_compress_block(in), want) << "input " << i;
    EXPECT_EQ(lz_decompress_block(want, in.size()), in) << "input " << i;
    std::optional<std::vector<std::byte>> smaller = lz_compress_if_smaller(in);
    if (want.size() < in.size()) {
      ASSERT_TRUE(smaller.has_value()) << "input " << i;
      EXPECT_EQ(*smaller, want) << "input " << i;
    } else {
      EXPECT_FALSE(smaller.has_value()) << "input " << i;
    }
  }
}

TEST(LzBlock, DecoderMatchesTheReferenceOnJunk) {
  // Random streams, bit-flipped real streams decoded to lengths on both
  // sides of the truth, and every prefix of real streams: the same
  // outcome, the same bytes, the same error message (so the same check
  // fired first).
  auto outcome = [](auto&& decode, std::span<const std::byte> in,
                    std::size_t out_len) -> std::pair<bool, std::string> {
    try {
      std::vector<std::byte> out = decode(in, out_len);
      return {true, std::string(reinterpret_cast<const char*>(out.data()),
                                out.size())};
    } catch (const pup::StreamError& e) {
      return {false, e.what()};
    }
  };
  auto fast = [](std::span<const std::byte> in, std::size_t n) {
    return lz_decompress_block(in, n);
  };
  auto slow = [](std::span<const std::byte> in, std::size_t n) {
    return reference::decompress(in, n);
  };
  Pcg32 rng(77, 19);
  std::vector<std::byte> real = lattice_bytes(2048, 5);
  std::vector<std::byte> packed = reference::compress(real);
  std::size_t successes = 0;
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::byte> junk;
    std::size_t out_len;
    if (i % 2 == 0) {
      junk = random_bytes(rng.bounded(96),
                          5000 + static_cast<std::uint64_t>(i));
      out_len = rng.bounded(160);
    } else {
      junk = packed;
      for (int flips = 1 + static_cast<int>(rng.bounded(3)); flips > 0; --flips)
        junk[rng.bounded(static_cast<std::uint32_t>(junk.size()))] ^=
            static_cast<std::byte>(1u << rng.bounded(8));
      if (rng.bounded(4) == 0)
        junk.resize(rng.bounded(static_cast<std::uint32_t>(junk.size())));
      out_len = real.size() - 8 + rng.bounded(17);
    }
    auto want = outcome(slow, junk, out_len);
    auto got = outcome(fast, junk, out_len);
    ASSERT_EQ(got.first, want.first) << "stream " << i;
    ASSERT_EQ(got.second, want.second) << "stream " << i;
    successes += want.first;
  }
  EXPECT_GT(successes, 0u)
      << "no junk stream decoded: the oracle saw only throws";

  // Truncation at every cut of literal-heavy, lattice and zero-run
  // streams: each shape ends inside a different kind of item.
  for (const std::vector<std::byte>& in :
       {random_bytes(600, 8), lattice_bytes(600, 9),
        std::vector<std::byte>(600, std::byte{0})}) {
    std::vector<std::byte> full = reference::compress(in);
    for (std::size_t cut = 0; cut <= full.size(); ++cut) {
      std::span<const std::byte> prefix(full.data(), cut);
      auto want = outcome(slow, prefix, in.size());
      auto got = outcome(fast, prefix, in.size());
      ASSERT_EQ(got.first, want.first) << "cut " << cut;
      ASSERT_EQ(got.second, want.second) << "cut " << cut;
    }
  }
}

// ---------------------------------------------------------------------------
// Frame encode/decode.
// ---------------------------------------------------------------------------

/// An image spanning several 256 KiB chunks, with a ragged tail.
buf::Buffer test_image(std::uint64_t seed, std::size_t chunks = 3) {
  return buf::Buffer::wrap(
      lattice_bytes(chunks * checksum::kDigestChunk + 1234, seed));
}

TEST(CodecFrame, FullRawFrameAliasesTheImage) {
  buf::Buffer img = test_image(1);
  CodecPipeline pipe(config(false, false));
  CodecFrame f = pipe.encode_full(img);
  EXPECT_TRUE(f.map.all_present());
  EXPECT_EQ(f.encoding, 0);
  EXPECT_TRUE(f.payload.aliases(img)) << "full raw frame must be zero-copy";
  EXPECT_EQ(f.raw_payload_bytes, img.size());
  buf::Buffer back = CodecPipeline::decode(f, {});
  EXPECT_TRUE(back.content_equals(img));
}

TEST(CodecFrame, DeltaCarriesOnlyDirtyChunks) {
  buf::Buffer base = test_image(2, 4);
  std::vector<std::byte> next(base.bytes().begin(), base.bytes().end());
  // Dirty exactly chunk 1 (one byte) and the ragged tail chunk.
  next[checksum::kDigestChunk + 17] ^= std::byte{0xFF};
  next[next.size() - 1] ^= std::byte{0x01};
  buf::Buffer img = buf::Buffer::wrap(std::move(next));

  std::vector<std::uint32_t> base_dig = CodecPipeline::digests(base.bytes());
  std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
  CodecPipeline pipe(config(true, false));
  CodecFrame f = pipe.encode(img, dig, &base_dig, base.size());

  ASSERT_EQ(f.map.chunks(), 5u);
  EXPECT_EQ(f.map.present_chunks(), 2u);
  EXPECT_EQ(f.map.present[1], 1);
  EXPECT_EQ(f.map.present[4], 1);
  EXPECT_LT(f.encoded_bytes(), img.size() / 2);

  buf::Buffer back = CodecPipeline::decode(f, base.bytes());
  EXPECT_TRUE(back.content_equals(img));
}

TEST(CodecFrame, DeltaWithNoChangesShipsNoChunks) {
  buf::Buffer img = test_image(3);
  std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
  CodecPipeline pipe(config(true, false));
  CodecFrame f = pipe.encode(img, dig, &dig, img.size());
  EXPECT_EQ(f.map.present_chunks(), 0u);
  EXPECT_EQ(f.payload.size(), 0u);
  buf::Buffer back = CodecPipeline::decode(f, img.bytes());
  EXPECT_TRUE(back.content_equals(img));
}

TEST(CodecFrame, MismatchedBaseFallsBackToFullMap) {
  buf::Buffer img = test_image(4);
  std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
  std::vector<std::uint32_t> short_dig(dig.begin(), dig.end() - 1);
  CodecPipeline pipe(config(true, false));
  // Base of a different size: every chunk must ship.
  CodecFrame f = pipe.encode(img, dig, &short_dig, img.size() - 5);
  EXPECT_TRUE(f.map.all_present());
}

TEST(CodecFrame, CompressedFrameRoundTrips) {
  buf::Buffer img = test_image(5);
  CodecPipeline pipe(config(false, true));
  CodecFrame f = pipe.encode_full(img);
  EXPECT_EQ(f.encoding, 1);
  EXPECT_LT(f.payload.size(), img.size());
  buf::Buffer back = CodecPipeline::decode(f, {});
  EXPECT_TRUE(back.content_equals(img));
}

TEST(CodecFrame, DeltaPlusCompressRoundTrips) {
  buf::Buffer base = test_image(6, 4);
  std::vector<std::byte> next(base.bytes().begin(), base.bytes().end());
  for (std::size_t i = 0; i < checksum::kDigestChunk / 2; i += 64)
    next[2 * checksum::kDigestChunk + i] ^= std::byte{0x3C};
  buf::Buffer img = buf::Buffer::wrap(std::move(next));
  std::vector<std::uint32_t> base_dig = CodecPipeline::digests(base.bytes());
  std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
  CodecPipeline pipe(config(true, true));
  CodecFrame f = pipe.encode(img, dig, &base_dig, base.size());
  EXPECT_EQ(f.map.present_chunks(), 1u);
  EXPECT_LT(f.encoded_bytes(), checksum::kDigestChunk);
  buf::Buffer back = CodecPipeline::decode(f, base.bytes());
  EXPECT_TRUE(back.content_equals(img));
}

TEST(CodecFrame, DecodeRejectsMalformedFrames) {
  buf::Buffer img = test_image(7, 2);
  CodecPipeline pipe(config(false, true));
  CodecFrame f = pipe.encode_full(img);

  // Truncated payload.
  CodecFrame cut = f;
  cut.payload = f.payload.slice(0, f.payload.size() - 3);
  EXPECT_THROW(CodecPipeline::decode(cut, {}), pup::StreamError);

  // Map/size mismatch.
  CodecFrame bad_map = f;
  bad_map.map.present.push_back(1);
  EXPECT_THROW(CodecPipeline::decode(bad_map, {}), pup::StreamError);

  // Delta frame without its base.
  std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
  std::vector<std::uint32_t> other = dig;
  other[0] ^= 1;  // chunk 0 clean per the fake base, so it is absent
  CodecPipeline dpipe(config(true, false));
  CodecFrame delta = dpipe.encode(img, dig, &other, img.size());
  ASSERT_FALSE(delta.map.all_present());
  EXPECT_THROW(CodecPipeline::decode(delta, {}), pup::StreamError);
}

TEST(CodecFrame, EncodeIsThreadCountInvariant) {
  buf::Buffer base = test_image(8, 6);
  std::vector<std::byte> next(base.bytes().begin(), base.bytes().end());
  for (std::size_t i = 0; i < next.size(); i += 100000)
    next[i] ^= std::byte{0x77};
  buf::Buffer img = buf::Buffer::wrap(std::move(next));
  std::vector<std::uint32_t> base_dig = CodecPipeline::digests(base.bytes());

  int before = parallel::global_threads();
  std::vector<std::byte> reference;
  for (int threads : {0, 1, 3, 7}) {
    parallel::set_global_threads(threads);
    std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
    CodecPipeline pipe(config(true, true));
    CodecFrame f = pipe.encode(img, dig, &base_dig, base.size());
    std::vector<std::byte> bytes(f.payload.bytes().begin(),
                                 f.payload.bytes().end());
    if (threads == 0)
      reference = std::move(bytes);
    else
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
  }
  parallel::set_global_threads(before);
}

TEST(CodecFrame, ReuseFrameYieldsAByteEqualPayload) {
  // Same-epoch reuse: the L2 flush encodes the image the buddy frame was
  // built from (or decoded to), against a different base. Copying the
  // frame's records must give exactly the payload fresh compression gives,
  // whichever chunks either frame carries.
  buf::Buffer base = test_image(10, 5);
  std::vector<std::byte> mid(base.bytes().begin(), base.bytes().end());
  mid[checksum::kDigestChunk + 5] ^= std::byte{0x11};
  std::vector<std::byte> next = mid;
  next[3 * checksum::kDigestChunk + 9] ^= std::byte{0x22};
  // Chunk 4 turns incompressible, so the frames carry a raw record too.
  std::vector<std::byte> noise = random_bytes(checksum::kDigestChunk, 31);
  std::memcpy(next.data() + 4 * checksum::kDigestChunk, noise.data(),
              noise.size());
  buf::Buffer img = buf::Buffer::wrap(std::move(next));
  buf::Buffer mid_img = buf::Buffer::wrap(std::move(mid));

  std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
  std::vector<std::uint32_t> base_dig = CodecPipeline::digests(base.bytes());
  std::vector<std::uint32_t> mid_dig = CodecPipeline::digests(mid_img.bytes());
  CodecPipeline pipe(config(true, true));
  // The buddy frame: a delta against `mid` (chunks 3 and 4 only).
  CodecFrame buddy = pipe.encode(img, dig, &mid_dig, mid_img.size());
  ASSERT_EQ(buddy.map.present_chunks(), 2u);
  CodecFrame full_buddy = pipe.encode_full(img);

  struct Case {
    const char* name;
    const std::vector<std::uint32_t>* base;
    const CodecFrame* reuse;
  };
  for (const Case& c : {Case{"delta/delta", &base_dig, &buddy},
                        Case{"full/delta", nullptr, &buddy},
                        Case{"delta/full", &base_dig, &full_buddy},
                        Case{"full/full", nullptr, &full_buddy}}) {
    CodecFrame fresh = pipe.encode(img, dig, c.base, base.size());
    CodecFrame reused = pipe.encode(img, dig, c.base, base.size(), c.reuse);
    EXPECT_EQ(reused.map.present, fresh.map.present) << c.name;
    EXPECT_EQ(reused.encoding, fresh.encoding) << c.name;
    EXPECT_TRUE(reused.payload.content_equals(fresh.payload)) << c.name;
    EXPECT_TRUE(CodecPipeline::decode(reused, base.bytes()).content_equals(img))
        << c.name;
  }
  // Frames that cannot serve are ignored: another image size (same chunk
  // count, so its records would parse), raw-encoded.
  CodecFrame other = pipe.encode_full(buf::Buffer::wrap(
      lattice_bytes(5 * checksum::kDigestChunk + 1000, 11)));
  ASSERT_EQ(other.map.chunks(), buddy.map.chunks());
  CodecFrame raw = CodecPipeline(config(true, false)).encode_full(img);
  for (const CodecFrame* ignored : {&other, &raw}) {
    CodecFrame reused = pipe.encode(img, dig, &base_dig, base.size(), ignored);
    EXPECT_TRUE(reused.payload.content_equals(
        pipe.encode(img, dig, &base_dig, base.size()).payload));
  }
}

// ---------------------------------------------------------------------------
// Vault v2 delta blobs.
// ---------------------------------------------------------------------------

TEST(VaultV2, DeltaBlobRoundTrips) {
  buf::Buffer base = test_image(9, 3);
  std::vector<std::byte> next(base.bytes().begin(), base.bytes().end());
  next[10] ^= std::byte{0x42};
  buf::Buffer img = buf::Buffer::wrap(std::move(next));
  std::vector<std::uint32_t> base_dig = CodecPipeline::digests(base.bytes());
  std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
  CodecPipeline pipe(config(true, true));

  DeltaBlob blob;
  blob.epoch = 5;
  blob.iteration = 50;
  blob.base_epoch = 4;
  blob.frame = pipe.encode(img, dig, &base_dig, base.size());
  std::vector<std::byte> bytes = encode_delta_image(blob);
  EXPECT_EQ(bytes.size(), encoded_delta_bytes(blob.frame));

  DecodedBlob decoded = decode_any_image(bytes);
  ASSERT_TRUE(decoded.is_delta);
  EXPECT_EQ(decoded.delta.epoch, 5u);
  EXPECT_EQ(decoded.delta.base_epoch, 4u);
  buf::Buffer back = CodecPipeline::decode(decoded.delta.frame, base.bytes());
  EXPECT_TRUE(back.content_equals(img));
}

TEST(VaultV2, DecodeAnyHandlesV1AndRejectsCorruption) {
  StoredImage img;
  img.epoch = 3;
  img.iteration = 30;
  img.image = pup::Checkpoint(test_image(10, 1));
  std::vector<std::byte> v1 = encode_stored_image(img);
  DecodedBlob d = decode_any_image(v1);
  ASSERT_FALSE(d.is_delta);
  EXPECT_EQ(d.full.epoch, 3u);
  EXPECT_EQ(d.full.iteration, 30u);
  EXPECT_TRUE(d.full.image.buffer().content_equals(img.image.buffer()));

  // A v2 (delta) blob of a one-byte change against the same image.
  std::vector<std::byte> next(img.image.bytes().begin(),
                              img.image.bytes().end());
  next[10] ^= std::byte{0x42};
  buf::Buffer changed = buf::Buffer::wrap(std::move(next));
  std::vector<std::uint32_t> base_dig =
      CodecPipeline::digests(img.image.bytes());
  DeltaBlob delta;
  delta.epoch = 4;
  delta.iteration = 40;
  delta.base_epoch = 3;
  delta.frame = CodecPipeline(config(true, false))
                    .encode(changed, CodecPipeline::digests(changed.bytes()),
                            &base_dig, img.image.size());
  std::vector<std::byte> v2 = encode_delta_image(delta);
  ASSERT_GE(delta.frame.payload.size(), 2u);
  ASSERT_TRUE(decode_any_image(v2).is_delta);

  // Truncation anywhere — inside the shared header, inside v2's chunk-map
  // header, or halfway through either payload — is rejected, never read
  // past the end.
  auto cut = [](const std::vector<std::byte>& blob, std::size_t n) {
    return std::vector<std::byte>(blob.begin(),
                                  blob.begin() + static_cast<long>(n));
  };
  constexpr std::size_t kTrailer = sizeof(std::uint64_t);
  std::size_t v1_payload_mid = v1.size() - kTrailer - img.image.size() / 2;
  std::size_t v2_payload_mid =
      v2.size() - kTrailer - delta.frame.payload.size() / 2;
  EXPECT_THROW(decode_any_image(cut(v1, 16)), pup::StreamError);
  EXPECT_THROW(decode_any_image(cut(v1, v1_payload_mid)), pup::StreamError);
  EXPECT_THROW(decode_any_image(cut(v2, 16)), pup::StreamError);
  EXPECT_THROW(decode_any_image(cut(v2, 40)), pup::StreamError);
  EXPECT_THROW(decode_any_image(cut(v2, v2_payload_mid)), pup::StreamError);

  // A length field claiming more bytes than the blob holds — large enough
  // that adding the header sizes to it wraps — is a truncation too. Byte
  // offsets: the shared header's payload length is at 24, v2's chunk
  // count at 48.
  auto with_length = [](std::vector<std::byte> blob, std::size_t at) {
    std::uint64_t huge = ~std::uint64_t{0} - 16;
    std::memcpy(blob.data() + at, &huge, sizeof huge);
    return blob;
  };
  EXPECT_THROW(decode_any_image(with_length(v1, 24)), pup::StreamError);
  EXPECT_THROW(decode_any_image(with_length(v2, 24)), pup::StreamError);
  EXPECT_THROW(decode_any_image(with_length(v2, 48)), pup::StreamError);

  v1[v1.size() / 2] ^= std::byte{0x01};
  EXPECT_THROW(decode_any_image(v1), pup::StreamError);
}

// ---------------------------------------------------------------------------
// Durable-tier delta chains.
// ---------------------------------------------------------------------------

/// Publish epochs 1..k for role (0,0): epoch 1 full, later epochs deltas
/// each dirtying one byte. Returns the final image.
buf::Buffer publish_chain(DurableTier& tier, int k, std::uint64_t seed) {
  CodecPipeline pipe(config(true, false));
  buf::Buffer first = test_image(seed, 2);
  std::vector<std::byte> cur(first.bytes().begin(), first.bytes().end());
  std::vector<std::uint32_t> prev_dig;
  for (int e = 1; e <= k; ++e) {
    buf::Buffer img = buf::Buffer::copy_of(cur);
    std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
    if (e == 1) {
      StoredImage full;
      full.epoch = 1;
      full.iteration = 10;
      full.image = pup::Checkpoint(img);
      tier.publish(0, 0, full);
    } else {
      DeltaBlob blob;
      blob.epoch = static_cast<std::uint64_t>(e);
      blob.iteration = static_cast<std::uint64_t>(e) * 10;
      blob.base_epoch = static_cast<std::uint64_t>(e - 1);
      blob.frame = pipe.encode(img, dig, &prev_dig, cur.size());
      tier.publish_blob(0, 0, blob.epoch, encode_delta_image(blob),
                        blob.base_epoch);
    }
    prev_dig = std::move(dig);
    cur[static_cast<std::size_t>(e) * 1000] ^= std::byte{0xA5};
  }
  // `cur` was mutated after the last publish; rebuild the published state.
  cur[static_cast<std::size_t>(k) * 1000] ^= std::byte{0xA5};
  return buf::Buffer::copy_of(cur);
}

TEST(TierChain, FetchReconstructsThroughDeltaChain) {
  DurableTier tier(1, 1);
  buf::Buffer expect = publish_chain(tier, 4, 20);
  EXPECT_EQ(tier.delta_publishes(), 3u);
  EXPECT_EQ(tier.chain_length(0, 0, 4), 4u);
  EXPECT_GT(tier.chain_bytes(0, 0, 4), tier.blob_bytes(0, 0, 4));

  std::optional<StoredImage> got = tier.fetch(0, 0, 4);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->epoch, 4u);
  EXPECT_EQ(got->iteration, 40u);
  EXPECT_TRUE(got->image.buffer().content_equals(expect));
}

TEST(TierChain, BrokenChainYieldsNulloptNotGarbage) {
  // A delta blob published into a tier that never saw its base epoch:
  // fetch must fail cleanly (pushing the wave to an older rung), never
  // fabricate an image.
  DurableTier no_base(1, 1);
  CodecPipeline pipe(config(true, true));
  buf::Buffer img = test_image(22, 1);
  DeltaBlob blob;
  blob.epoch = 2;
  blob.base_epoch = 1;
  std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
  std::vector<std::uint32_t> other = dig;
  other[0] ^= 1;
  blob.frame = pipe.encode(img, dig, &other, img.size());
  no_base.publish_blob(0, 0, 2, encode_delta_image(blob), 1);
  EXPECT_FALSE(no_base.fetch(0, 0, 2).has_value());
  EXPECT_EQ(no_base.chain_bytes(0, 0, 2), 0u);
}

TEST(TierChain, PruneKeepsAncestorsOfLiveDeltas) {
  DurableTier tier(1, 1);
  buf::Buffer expect = publish_chain(tier, 3, 23);
  tier.prune(3);  // would drop epochs 1 and 2 — but 3 needs them
  std::optional<StoredImage> got = tier.fetch(0, 0, 3);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->image.buffer().content_equals(expect));
}

}  // namespace
}  // namespace acr::ckpt
