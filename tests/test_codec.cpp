// Unit and property tests for the staged checkpoint codec pipeline
// (ckpt/codec.h): the LZ block codec, frame encode/decode, thread-count
// invariance, vault v2 delta blobs, and the durable tier's delta chains.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "buf/buffer.h"
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
