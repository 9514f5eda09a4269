// Micro-benchmarks of the substrate (google-benchmark): compressor
// throughput by content class, each codec stage, the codec serially and on
// the host pool, sparse ByteImage operations, event-loop dispatch, record
// I/O over a simulated socket, CRC32 and chunk keys. These are
// host-side costs, not virtual-time results. The codec, CRC and key cases
// run at 16 KiB — the size of a CDC chunk, which is what the store
// actually feeds them — as well as at 1 MiB, so per-call set-up shows.
#include <benchmark/benchmark.h>

#include "ckptstore/chunk.h"
#include "compress/compressor.h"
#include "compress/huffman.h"
#include "compress/lz77.h"
#include "util/serialize.h"
#include "sim/byte_image.h"
#include "sim/event_loop.h"
#include "sim/kernel.h"
#include "sim/pctx.h"
#include "util/crc32.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace dsim;

std::vector<std::byte> make_data(const std::string& kind, size_t n) {
  std::vector<std::byte> data(n);
  Rng rng(42);
  if (kind == "zero") return data;
  if (kind == "rand") {
    for (auto& b : data) b = static_cast<std::byte>(rng.next_u64());
    return data;
  }
  // "text": structured, repetitive content.
  const char* words[] = {"checkpoint ", "restart ", "drain ", "socket "};
  size_t i = 0;
  while (i < n) {
    const char* w = words[rng.next_below(4)];
    for (const char* p = w; *p && i < n; ++p) data[i++] = std::byte(*p);
  }
  return data;
}

void BM_GzipishCompress(benchmark::State& state, const std::string& kind) {
  auto data = make_data(kind, 1 << 20);
  const auto& codec = compress::codec(compress::CodecKind::kGzipish);
  for (auto _ : state) {
    auto out = codec.compress(data);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * (1 << 20));
}
BENCHMARK_CAPTURE(BM_GzipishCompress, zero, std::string("zero"));
BENCHMARK_CAPTURE(BM_GzipishCompress, text, std::string("text"));
BENCHMARK_CAPTURE(BM_GzipishCompress, rand, std::string("rand"));

void BM_GzipishRoundTrip(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  auto data = make_data("text", n);
  const auto& codec = compress::codec(compress::CodecKind::kGzipish);
  for (auto _ : state) {
    auto out = codec.decompress(codec.compress(data));
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * n));
}
BENCHMARK(BM_GzipishRoundTrip)->Arg(16 << 10)->Arg(256 << 10);

// A generation's new chunks through the codec, one after another and on
// the host pool the incremental encode uses (util/parallel.h): the same
// 64 text chunks of 16 KiB each way. Timed on the wall clock, since the
// pool's work runs on other threads too.
void BM_GzipishPool(benchmark::State& state, bool pooled) {
  constexpr size_t kChunks = 64;
  constexpr size_t kChunkBytes = 16 << 10;
  const auto data = make_data("text", kChunks * kChunkBytes);
  const auto& codec = compress::codec(compress::CodecKind::kGzipish);
  std::vector<std::vector<std::byte>> out(kChunks);
  const std::function<void(size_t)> one = [&](size_t i) {
    out[i] = codec.compress(
        std::span(data).subspan(i * kChunkBytes, kChunkBytes));
  };
  for (auto _ : state) {
    if (pooled) {
      parallel_for(kChunks, one);
    } else {
      for (size_t i = 0; i < kChunks; ++i) one(i);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(
      static_cast<i64>(state.iterations() * kChunks * kChunkBytes));
  state.counters["threads"] = pooled ? pool_width() : 1;
}
BENCHMARK_CAPTURE(BM_GzipishPool, serial, false)->UseRealTime();
BENCHMARK_CAPTURE(BM_GzipishPool, pool, true)->UseRealTime();

// The gzip-class pipeline stage by stage, on the inputs each stage sees in
// it. Every rate is per byte of the original text, so the stages' times
// add up to the codec's.
void BM_Lz77Compress(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  auto data = make_data("text", n);
  for (auto _ : state) {
    auto tokens = compress::lz77_compress(data);
    benchmark::DoNotOptimize(tokens);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * n));
}
BENCHMARK(BM_Lz77Compress)->Arg(16 << 10)->Arg(1 << 20);

void BM_Lz77Decompress(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto tokens = compress::lz77_compress(make_data("text", n));
  for (auto _ : state) {
    auto out = compress::lz77_decompress(tokens, n);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * n));
}
BENCHMARK(BM_Lz77Decompress)->Arg(16 << 10)->Arg(1 << 20);

void BM_HuffmanEncode(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto tokens = compress::lz77_compress(make_data("text", n));
  for (auto _ : state) {
    auto out = compress::huffman_encode(tokens);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * n));
}
BENCHMARK(BM_HuffmanEncode)->Arg(16 << 10)->Arg(1 << 20);

void BM_HuffmanDecode(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto entropy =
      compress::huffman_encode(compress::lz77_compress(make_data("text", n)));
  for (auto _ : state) {
    auto out = compress::huffman_decode(entropy);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * n));
}
BENCHMARK(BM_HuffmanDecode)->Arg(16 << 10)->Arg(1 << 20);

void BM_ByteImageWrite(benchmark::State& state) {
  sim::ByteImage img(64 << 20);
  std::vector<std::byte> chunk(4096, std::byte{0x5a});
  u64 off = 0;
  for (auto _ : state) {
    img.write(off % (60 << 20), chunk);
    off += 4096;
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 4096);
}
BENCHMARK(BM_ByteImageWrite);

using dsim::ByteWriter;

void BM_ByteImageSerializeSparse(benchmark::State& state) {
  sim::ByteImage img(1ull << 30);  // 1 GB virtual, mostly pattern
  img.fill(0, 1ull << 30, sim::ExtentKind::kRand, 7);
  std::vector<std::byte> chunk(4096, std::byte{0x5a});
  img.write(4096, chunk);
  for (auto _ : state) {
    ByteWriter w;
    img.serialize(w);
    benchmark::DoNotOptimize(w.size());
  }
}
BENCHMARK(BM_ByteImageSerializeSparse);

// Post 1000 events and run them. With cancel_half set, every other post
// cancels the one before it, so half the posts never fire: the mix the
// suite's kernel replay measures. The rate counts posts.
void BM_EventLoopPostRun(benchmark::State& state) {
  const bool cancel_half = state.range(0) != 0;
  for (auto _ : state) {
    sim::EventLoop loop;
    sim::EventId prev = sim::kNoEvent;
    for (int i = 0; i < 1000; ++i) {
      const sim::EventId id = loop.post_in(i, [] {});
      if (cancel_half && i % 2 == 1) loop.cancel(prev);
      prev = id;
    }
    loop.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopPostRun)->ArgName("cancel_half")->Arg(0)->Arg(1);

// Two simulated processes on two nodes bounce a 48 KiB record, the size of
// an MG halo, through ProcessCtx::write_exact and read_exact: the host cost
// of moving MPI bytes over a simulated socket. Each iteration runs a fresh
// kernel through kSocketRoundTrips round trips.
constexpr u64 kSocketRecordBytes = 48 << 10;
constexpr int kSocketRoundTrips = 64;
constexpr u16 kSocketPort = 7000;

sim::Task<int> socket_echo(sim::ProcessCtx& ctx, bool server) {
  sim::MemSegment& seg =
      ctx.alloc("record", sim::MemKind::kHeap, kSocketRecordBytes);
  seg.data.write(0, make_data("text", kSocketRecordBytes));
  const sim::MemRef record{&seg, 0};
  Fd fd = co_await ctx.socket();
  if (server) {
    const bool bound = co_await ctx.bind(fd, kSocketPort);
    DSIM_CHECK(bound);
    co_await ctx.listen(fd);
    fd = co_await ctx.accept(fd);
  } else {
    while (!co_await ctx.connect(fd, sim::SockAddr{0, kSocketPort})) {
      co_await ctx.sleep(timeconst::kMillisecond);
    }
  }
  for (int i = 0; i < kSocketRoundTrips; ++i) {
    if (server) co_await ctx.read_exact(fd, record, kSocketRecordBytes, 0);
    co_await ctx.write_exact(fd, record, kSocketRecordBytes, 1);
    if (!server) co_await ctx.read_exact(fd, record, kSocketRecordBytes, 0);
  }
  co_return 0;
}

void BM_SocketExactRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    sim::KernelConfig cfg;
    cfg.num_nodes = 2;
    sim::Kernel k(cfg);
    sim::Program server{"echo_server", {}, {}};
    server.main = [](sim::ProcessCtx& ctx) { return socket_echo(ctx, true); };
    sim::Program client{"echo_client", {}, {}};
    client.main = [](sim::ProcessCtx& ctx) { return socket_echo(ctx, false); };
    k.programs().add(std::move(server));
    k.programs().add(std::move(client));
    k.spawn_process(0, "echo_server", {}, {});
    k.spawn_process(1, "echo_client", {}, {});
    k.loop().run();
    benchmark::DoNotOptimize(k.loop().now());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          kSocketRoundTrips * 2 * kSocketRecordBytes);
}
BENCHMARK(BM_SocketExactRoundTrip);

void BM_Crc32(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  auto data = make_data("rand", n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * n));
}
BENCHMARK(BM_Crc32)->Arg(16 << 10)->Arg(1 << 20);

void BM_ContentKey(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  auto data = make_data("rand", n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ckptstore::content_key(data));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations() * n));
}
BENCHMARK(BM_ContentKey)->Arg(16 << 10)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
