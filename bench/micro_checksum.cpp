// Microbenchmark (google-benchmark): the §4.2 checksum trade-off on real
// hardware. Sending the full checkpoint costs one pass over the data
// (copy into the message buffer, beta per byte on the wire); the checksum
// costs ~4 instructions per byte of compute but ships 8 bytes. The paper's
// criterion: checksum wins iff gamma < beta / 4 — which is exactly why the
// per-byte digest cost matters: the kernel-layer benches below pin the
// portable vs SSE4.2 CRC32C rates, the streaming FoldSink rate at the
// pack-tee's real 4 KiB write granularity, and the xor parity fold rate.
//
// Also measures the PUP pack / compare rates that calibrate the phase
// model, so the calibration is reproducible on the build machine, and the
// checkpoint codec's LZ compress / decompress rates.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "checksum/crc32c.h"
#include "checksum/fletcher.h"
#include "checksum/kernels.h"
#include "checksum/sink.h"
#include "ckpt/codec.h"
#include "common/rng.h"
#include "parallel/pool.h"
#include "pup/checker.h"
#include "pup/pup.h"

namespace {

std::vector<std::byte> make_buffer(std::size_t size) {
  std::vector<std::byte> buf(size);
  acr::Pcg32 rng(size, 3);
  for (auto& b : buf) b = static_cast<std::byte>(rng.bounded(256));
  return buf;
}

/// Pin the CRC32C kernel for the duration of one benchmark, then restore
/// auto-dispatch so the remaining benches measure the default config.
struct ScopedKernel {
  explicit ScopedKernel(acr::checksum::KernelImpl impl) {
    acr::checksum::set_kernel_impl(impl);
  }
  ~ScopedKernel() {
    acr::checksum::set_kernel_impl(acr::checksum::KernelImpl::Auto);
  }
};

void BM_Fletcher64(benchmark::State& state) {
  auto buf = make_buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(acr::checksum::fletcher64(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Fletcher64)->Range(1 << 10, 1 << 22);

void BM_MemcpyToMessageBuffer(benchmark::State& state) {
  auto buf = make_buffer(static_cast<std::size_t>(state.range(0)));
  std::vector<std::byte> out(buf.size());
  for (auto _ : state) {
    std::memcpy(out.data(), buf.data(), buf.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MemcpyToMessageBuffer)->Range(1 << 10, 1 << 22);

void BM_Crc32c(benchmark::State& state) {
  auto buf = make_buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(acr::checksum::crc32c(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Range(1 << 10, 1 << 22);

// --- kernel layer: dispatch, streaming sinks, parity fold -------------------

void BM_Crc32cPortable(benchmark::State& state) {
  ScopedKernel pin(acr::checksum::KernelImpl::Portable);
  auto buf = make_buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(acr::checksum::crc32c(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cPortable)->Range(1 << 10, 1 << 22);

void BM_Crc32cHw(benchmark::State& state) {
  if (!acr::checksum::hw_kernels_available()) {
    state.SkipWithError("SSE4.2 not available on this CPU");
    return;
  }
  ScopedKernel pin(acr::checksum::KernelImpl::Hw);
  auto buf = make_buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(acr::checksum::crc32c(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cHw)->Range(1 << 10, 1 << 22);

// Chunk-parallel digest of a large image; range(1) = kernel threads.
void BM_Crc32cChunked(benchmark::State& state) {
  auto buf = make_buffer(static_cast<std::size_t>(state.range(0)));
  acr::parallel::set_global_threads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(acr::checksum::crc32c_chunked(buf));
  }
  acr::parallel::set_global_threads(0);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cChunked)
    ->Args({1 << 22, 0})
    ->Args({1 << 22, 2})
    ->Args({1 << 22, 4});

// Streaming digest at the pack-tee's real access pattern: the PUP packer
// hands the FoldSink a run of small writes (records are 9-byte headers plus
// payload slabs), not one giant span. 4 KiB writes model the slab case;
// this is the rate the one-pass checksum epoch actually sees.
template <typename Sink>
void stream_fold(benchmark::State& state) {
  constexpr std::size_t kWrite = 4096;
  auto buf = make_buffer(static_cast<std::size_t>(state.range(0)));
  std::span<const std::byte> all(buf);
  for (auto _ : state) {
    Sink sink;
    for (std::size_t pos = 0; pos < all.size(); pos += kWrite)
      sink.write(all.subspan(pos, std::min(kWrite, all.size() - pos)));
    benchmark::DoNotOptimize(sink.digest());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_FoldSinkFletcher64_4KWrites(benchmark::State& state) {
  stream_fold<acr::checksum::Fletcher64Sink>(state);
}
BENCHMARK(BM_FoldSinkFletcher64_4KWrites)->Range(1 << 12, 1 << 22);

void BM_FoldSinkCrc32c_4KWrites(benchmark::State& state) {
  stream_fold<acr::checksum::Crc32cSink>(state);
}
BENCHMARK(BM_FoldSinkCrc32c_4KWrites)->Range(1 << 12, 1 << 22);

// The RAID-5 parity fold as the ckpt layer runs it: xor an arriving group
// chunk into the accumulating parity block, measured as used (same-length
// fold into an existing accumulator).
void BM_XorFold(benchmark::State& state) {
  auto add = make_buffer(static_cast<std::size_t>(state.range(0)));
  std::vector<std::byte> acc(add.size(), std::byte{0});
  for (auto _ : state) {
    acr::checksum::xor_fold(acc, add);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_XorFold)->Range(1 << 10, 1 << 22);

// The checkpoint codec's LZ stage (ckpt/codec.h) on one 256 KiB digest
// chunk of three shapes: a Jacobi field (the mini-app's smooth initial
// condition after a few relaxation sweeps — mostly literals, like the
// data-plane checkpoints), random bytes (incompressible: the raw-fallback
// case) and zeros (offset-1 runs).
enum LzInput : int { kLzJacobi = 0, kLzRandom = 1, kLzZeros = 2 };

const char* lz_input_name(int kind) {
  switch (kind) {
    case kLzJacobi: return "jacobi";
    case kLzRandom: return "random";
    default: return "zeros";
  }
}

std::vector<std::byte> lz_input(int kind) {
  constexpr std::size_t kN = 32;  // 32^3 doubles = one 256 KiB chunk
  if (kind == kLzRandom) return make_buffer(kN * kN * kN * sizeof(double));
  std::vector<double> u(kN * kN * kN, 0.0);
  if (kind == kLzJacobi) {
    auto at = [](std::size_t x, std::size_t y, std::size_t z) {
      return (z * kN + y) * kN + x;
    };
    for (std::size_t z = 0; z < kN; ++z)
      for (std::size_t y = 0; y < kN; ++y)
        for (std::size_t x = 0; x < kN; ++x)
          u[at(x, y, z)] = std::sin(0.13 * static_cast<double>(x)) *
                               std::cos(0.07 * static_cast<double>(y)) +
                           0.01 * static_cast<double>(z);
    std::vector<double> next = u;
    for (int sweep = 0; sweep < 4; ++sweep) {
      for (std::size_t z = 1; z + 1 < kN; ++z)
        for (std::size_t y = 1; y + 1 < kN; ++y)
          for (std::size_t x = 1; x + 1 < kN; ++x)
            next[at(x, y, z)] =
                (u[at(x - 1, y, z)] + u[at(x + 1, y, z)] +
                 u[at(x, y - 1, z)] + u[at(x, y + 1, z)] +
                 u[at(x, y, z - 1)] + u[at(x, y, z + 1)]) /
                6.0;
      u.swap(next);
    }
  }
  std::vector<std::byte> out(u.size() * sizeof(double));
  std::memcpy(out.data(), u.data(), out.size());
  return out;
}

void BM_LzCompress(benchmark::State& state) {
  std::vector<std::byte> in = lz_input(static_cast<int>(state.range(0)));
  std::size_t packed = 0;
  for (auto _ : state) {
    packed = acr::ckpt::lz_compress_block(in).size();
    benchmark::DoNotOptimize(packed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.size()));
  state.SetLabel(lz_input_name(static_cast<int>(state.range(0))));
  state.counters["ratio"] =
      static_cast<double>(packed) / static_cast<double>(in.size());
}
BENCHMARK(BM_LzCompress)->Arg(kLzJacobi)->Arg(kLzRandom)->Arg(kLzZeros);

void BM_LzDecompress(benchmark::State& state) {
  std::vector<std::byte> in = lz_input(static_cast<int>(state.range(0)));
  std::vector<std::byte> packed = acr::ckpt::lz_compress_block(in);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        acr::ckpt::lz_decompress_block(packed, in.size()).data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.size()));
  state.SetLabel(lz_input_name(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_LzDecompress)->Arg(kLzJacobi)->Arg(kLzRandom)->Arg(kLzZeros);

struct BigState {
  std::vector<double> a, b, c;
  void pup(acr::pup::Puper& p) {
    p | a;
    p | b;
    p | c;
  }
};

BigState make_state(std::size_t doubles) {
  BigState s;
  acr::Pcg32 rng(doubles, 5);
  s.a.resize(doubles / 3);
  s.b.resize(doubles / 3);
  s.c.resize(doubles - 2 * (doubles / 3));
  for (auto* v : {&s.a, &s.b, &s.c})
    for (auto& x : *v) x = rng.uniform();
  return s;
}

void BM_PupPack(benchmark::State& state) {
  BigState s = make_state(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    acr::pup::Packer p;
    p | s;
    benchmark::DoNotOptimize(p.bytes_written());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 8);
}
BENCHMARK(BM_PupPack)->Range(1 << 10, 1 << 20);

void BM_CheckerCompare(benchmark::State& state) {
  BigState s = make_state(static_cast<std::size_t>(state.range(0)));
  acr::pup::Checkpoint a = acr::pup::make_checkpoint(s);
  acr::pup::Checkpoint b = acr::pup::make_checkpoint(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(acr::pup::compare_checkpoints(a, b).match);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 8);
}
BENCHMARK(BM_CheckerCompare)->Range(1 << 10, 1 << 20);

}  // namespace

BENCHMARK_MAIN();
