// Kernel replay: one timed pass of each layer's public kernel over the
// workload's own final image bytes, plus a synthetic event-loop mix and a
// fixed calibration loop. Runs after the measured phase, so none of it is
// inside host_s; it says which kernel a host-time change came from.
#include <algorithm>

#include "ckptstore/cdc.h"
#include "ckptstore/erasure.h"
#include "ckptstore/manifest.h"
#include "compress/compressor.h"
#include "sim/event_loop.h"
#include "suite.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace dsim::suite {
namespace {

/// Share of posted events the simulator cancels before they fire, as
/// gprof counted it under mpi_full (2.73 M cancels per 5.42 M posts over
/// nine episodes and the reference run).
constexpr double kCancelShare = 0.50;
constexpr int kEventBatches = 1000;
constexpr int kEventsPerBatch = 1000;
constexpr int kManifestReps = 31;
constexpr int kProbeReps = 21;

template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

Metric mb_s(double bytes, double secs) {
  return {bytes / 1e6 / std::max(secs, 1e-9), "MB/s", 1};
}

/// Post/cancel/fire in batches, so the queue stays as short as the
/// simulator's; closures capture enough to leave std::function's small
/// buffer, as the simulator's do. Returns ns per posted event and checks
/// that exactly the events not cancelled fired.
double eventloop_ns_per_event(u64 seed, Episode& e) {
  sim::EventLoop loop;
  Rng rng(seed);
  u64 fired = 0, cancelled = 0, mix = 0;
  std::vector<sim::EventId> batch;
  std::vector<bool> gone;
  const double secs = timed([&] {
    for (int b = 0; b < kEventBatches; ++b) {
      batch.clear();
      gone.assign(kEventsPerBatch, false);
      for (int i = 0; i < kEventsPerBatch; ++i) {
        const u64 a = rng.next_u64(), c = rng.next_u64();
        batch.push_back(loop.post_in(
            static_cast<SimTime>(rng.next_below(100'000)),
            [&fired, &mix, a, c] {
              ++fired;
              mix ^= a + c;
            }));
        if (rng.next_double() < kCancelShare) {
          const u64 victim = rng.next_below(batch.size());
          loop.cancel(batch[victim]);
          cancelled += !gone[victim];
          gone[victim] = true;
        }
      }
      loop.run_until(loop.now() + 100'000);
    }
    loop.run();
  });
  g_sink = mix;
  e.check(fired + cancelled == u64{kEventBatches} * kEventsPerBatch,
          "event loop fires exactly the events not cancelled");
  return secs * 1e9 / (kEventBatches * kEventsPerBatch);
}

}  // namespace

void replay_kernels(const std::vector<std::byte>& corpus, u64 seed,
                    Episode& e) {
  Ledger& L = e.layers;
  const double n = static_cast<double>(corpus.size());
  const std::span<const std::byte> data(corpus);
  L["host.replay_bytes"] = {n, "B", 1};

  u32 crc = 0;
  L["host.util.crc32_mb_s"] = mb_s(n, timed([&] { crc = crc32(data); }));

  sim::ByteImage real(corpus.size());
  real.write(0, data);
  ckptstore::ChunkingParams cdc;
  cdc.mode = ckptstore::ChunkingMode::kCdc;
  cdc.min_bytes = 4 * 1024;
  cdc.avg_bytes = 16 * 1024;
  cdc.max_bytes = 64 * 1024;
  std::vector<ckptstore::ChunkSpan> spans;
  L["host.ckptstore.cdc_scan_mb_s"] = mb_s(
      n, timed([&] { spans = ckptstore::scan_chunks_cdc(real, cdc); }));

  ckptstore::SegmentManifest seg;
  seg.name = "replay";
  seg.size = corpus.size();
  L["host.ckptstore.content_key_mb_s"] = mb_s(n, timed([&] {
    for (const auto& s : spans) {
      seg.chunks.push_back({ckptstore::content_key(data.subspan(s.off, s.len)),
                            s.len, 0});
    }
  }));

  const auto& codec = compress::codec(compress::CodecKind::kGzipish);
  std::vector<std::vector<std::byte>> containers;
  L["host.compress.compress_mb_s"] = mb_s(n, timed([&] {
    for (const auto& s : spans) {
      containers.push_back(codec.compress(data.subspan(s.off, s.len)));
    }
  }));
  std::vector<std::vector<std::byte>> restored;
  L["host.compress.decompress_mb_s"] = mb_s(n, timed([&] {
    for (const auto& c : containers) restored.push_back(codec.decompress(c));
  }));

  L["host.sim.materialize_real_mb_s"] =
      mb_s(n, timed([&] { (void)real.materialize(0, real.size()); }));
  sim::ByteImage rand(corpus.size());
  rand.fill(0, rand.size(), sim::ExtentKind::kRand, seed);
  L["host.sim.materialize_rand_mb_s"] =
      mb_s(n, timed([&] { (void)rand.materialize(0, rand.size()); }));

  // Erasure kernels over the compressed containers, (4,2) as store_restart
  // stripes them; reconstruct with two data fragments missing.
  double container_bytes = 0;
  for (const auto& c : containers) {
    container_bytes += static_cast<double>(c.size());
  }
  std::vector<std::vector<std::vector<std::byte>>> stripes;
  L["host.ckptstore.erasure_encode_mb_s"] =
      mb_s(container_bytes, timed([&] {
        for (const auto& c : containers) {
          stripes.push_back(ckptstore::erasure::encode(c, 4, 2));
        }
      }));
  std::vector<std::vector<std::pair<int, std::vector<std::byte>>>> survivors;
  for (auto& frags : stripes) {
    survivors.emplace_back();
    for (int i = 2; i < 6; ++i) {
      survivors.back().emplace_back(i,
                                    std::move(frags[static_cast<size_t>(i)]));
    }
  }
  std::vector<std::vector<std::byte>> rebuilt;
  L["host.ckptstore.erasure_reconstruct_mb_s"] =
      mb_s(container_bytes, timed([&] {
        for (size_t i = 0; i < survivors.size(); ++i) {
          rebuilt.push_back(ckptstore::erasure::reconstruct(
              survivors[i], 4, 2, containers[i].size()));
        }
      }));

  // A manifest describing the corpus' chunks, as restart decodes them.
  ckptstore::Manifest mf;
  mf.owner = "t0/replay";
  mf.chunking = cdc;
  mf.codec = static_cast<u8>(compress::CodecKind::kGzipish);
  mf.segments.push_back(seg);
  std::vector<double> enc_us, dec_us;
  std::vector<std::byte> blob;
  for (int r = 0; r < kManifestReps; ++r) {
    enc_us.push_back(timed([&] { blob = mf.encode(); }) * 1e6);
    dec_us.push_back(
        timed([&] { (void)ckptstore::Manifest::decode(blob); }) * 1e6);
  }
  L["host.ckptstore.manifest_encode_us"] = {median(enc_us), "us",
                                           enc_us.size()};
  L["host.ckptstore.manifest_decode_us"] = {median(dec_us), "us",
                                           dec_us.size()};

  L["host.sim.eventloop_ns_per_event"] = {eventloop_ns_per_event(seed, e),
                                          "ns", 1};
  std::vector<double> probes;
  for (int r = 0; r < kProbeReps; ++r) probes.push_back(probe_seconds());
  L["host.calib_s"] = {median(probes), "s", probes.size()};

  bool round_trips = rebuilt == containers &&
                     crc == crc32(real.materialize(0, real.size()));
  for (size_t i = 0; i < spans.size() && round_trips; ++i) {
    const auto want = data.subspan(spans[i].off, spans[i].len);
    round_trips = std::equal(want.begin(), want.end(), restored[i].begin(),
                             restored[i].end());
  }
  e.check(round_trips, "kernel replay round-trips its corpus");
}

}  // namespace dsim::suite
