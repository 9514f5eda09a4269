// The async COW checkpoint pipeline (src/ckptasync/): app-visible pause
// vs sync encode, the drain's per-chunk encodes on the writer's core pool,
// backpressure policies (block and skip), COW page accounting while the
// drain overlaps computation, manifest byte-identity between sync and
// async rounds, and the new option surface.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "ckptasync/pipeline.h"
#include "ckptstore/service.h"
#include "compress/compressor.h"
#include "core/launch.h"
#include "obs/trace.h"
#include "sim/cluster.h"
#include "sim/model_params.h"
#include "tests/testprogs.h"
#include "tests/testutil.h"
#include "util/rng.h"

namespace dsim::test {
namespace {

using core::DmtcpControl;
using core::DmtcpOptions;

struct World {
  sim::Cluster cluster;
  DmtcpControl ctl;
  World(int nodes, DmtcpOptions opts, u64 seed = 0x5eed)
      : cluster([&] {
          auto cfg = sim::Cluster::lab_cluster(nodes);
          cfg.seed = seed;
          return cfg;
        }()),
        ctl(cluster.kernel(), opts) {
    register_test_programs(cluster.kernel());
  }
  sim::Kernel& k() { return cluster.kernel(); }
  bool run_until_results(std::initializer_list<const char*> names,
                         SimTime deadline = 300 * timeconst::kSecond) {
    return ctl.run_until(
        [&] {
          for (const char* n : names) {
            if (read_result(k(), n).empty()) return false;
          }
          return true;
        },
        k().loop().now() + deadline);
  }
  bool drain_pipeline(SimTime deadline = 120 * timeconst::kSecond) {
    auto pipe = ctl.shared().async_pipeline;
    if (pipe == nullptr) return true;
    return ctl.run_until([&] { return pipe->idle(); },
                         k().loop().now() + deadline);
  }
};

DmtcpOptions async_opts(bool async, compress::CodecKind codec =
                                        compress::CodecKind::kGzipish) {
  DmtcpOptions o;
  o.incremental = true;
  o.ckpt_async = async;
  o.codec = codec;
  o.chunking = ckptstore::ChunkingMode::kCdc;
  o.cdc_min_bytes = 2 * 1024;
  o.cdc_avg_bytes = 8 * 1024;
  o.cdc_max_bytes = 32 * 1024;
  o.dedup_scope = core::DedupScope::kCluster;
  o.chunk_replicas = 1;
  o.store_shards = 1;
  o.store_node = 2;
  return o;
}

void add_ballast(World& w, Pid pid, u64 bytes, u64 seed) {
  sim::Process* p = w.k().find_process(pid);
  ASSERT_NE(p, nullptr);
  auto& seg = p->mem().add("ballast", sim::MemKind::kHeap, bytes);
  seg.data.fill(0, bytes, sim::ExtentKind::kRand, seed);
}

/// Compressible *real* bytes (run-length structure, seeded per rank so the
/// ranks don't dedup against each other): unlike pattern extents, these are
/// host-compressed by the encoder, so codec choice shows up in the ratio.
void add_compressible_ballast(World& w, Pid pid, u64 bytes, u64 seed) {
  sim::Process* p = w.k().find_process(pid);
  ASSERT_NE(p, nullptr);
  auto& seg = p->mem().add("ballast", sim::MemKind::kHeap, bytes);
  std::vector<std::byte> data(bytes);
  Rng rng(seed);
  size_t i = 0;
  while (i < bytes) {
    const auto v = static_cast<std::byte>(rng.next_below(4));
    const size_t run = 1 + rng.next_below(300);
    for (size_t j = 0; j < run && i < bytes; ++j) data[i++] = v;
  }
  seg.data.write(0, data);
}

/// One seeded round over a 4MB-per-rank world; returns the app-visible
/// pause and leaves the world usable for manifest/restart inspection.
double one_round_pause(World& w) {
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 4 * 1024 * 1024, 0xAA);
  add_ballast(w, pb, 4 * 1024 * 1024, 0xBB);
  return w.ctl.checkpoint_now().total_seconds();
}

TEST(CkptAsync, PauseBeatsSyncEncodeAndManifestsAreByteIdentical) {
  World sync_w(4, async_opts(false));
  const double sync_pause = one_round_pause(sync_w);
  const auto sync_manifests = plan_manifests(sync_w.k(), sync_w.ctl);

  World async_w(4, async_opts(true));
  const double async_pause = one_round_pause(async_w);
  ASSERT_TRUE(async_w.drain_pipeline());
  const auto async_manifests = plan_manifests(async_w.k(), async_w.ctl);

  // The app only pays fork/COW; encode+store CPU moved behind its back.
  EXPECT_LT(async_pause, 0.5 * sync_pause)
      << "sync " << sync_pause << "s vs async " << async_pause << "s";

  // Moving the *charging* off the critical path must not move a byte:
  // the background round writes the identical manifests.
  ASSERT_EQ(async_manifests.size(), sync_manifests.size());
  for (size_t i = 0; i < sync_manifests.size(); ++i) {
    EXPECT_EQ(async_manifests[i], sync_manifests[i]) << "manifest " << i;
  }

  const auto& r = async_w.ctl.stats().rounds.back();
  EXPECT_GT(r.delta.counter("async.queued_bytes"), 0u);
  EXPECT_GT(r.store_raw_new_bytes, 0u);
  EXPECT_GT(r.compress_ratio, 0.0);
  EXPECT_LE(r.compress_ratio, 1.01);  // pattern-rand ballast: ~1:1 + header
  EXPECT_GT(r.dirty_page_fraction, 0.9);  // generation 0: everything new

  // And the checkpoint actually restarts.
  async_w.ctl.kill_computation();
  const auto& rr = async_w.ctl.restart();
  EXPECT_FALSE(rr.needs_restore);
  EXPECT_EQ(rr.procs, 2);
  ASSERT_TRUE(async_w.run_until_results({"a", "b"}));
}

TEST(CkptAsync, DrainEncodesEachNewChunkOnTheWritersPool) {
  // The drain runs the synchronous write's store sequence: each new chunk's
  // encode is its own job on the writer's core pool, priced at
  // --compress-bw per core, and its Store leaves when the encode ends.
  const auto opts = async_opts(true);
  World w(4, opts);
  auto tracer = std::make_shared<obs::Tracer>();
  w.k().loop().set_tracer(tracer.get());
  w.ctl.shared().tracer = tracer;
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 4 * 1024 * 1024, 0xAA);
  w.ctl.checkpoint_now();
  ASSERT_TRUE(w.drain_pipeline());

  const auto& pipe = *w.ctl.shared().async_pipeline;
  const auto [serial_seconds, chunks] = first_round_serial_encode(
      w.ctl, opts.codec, 1, 0, sim::params::kGzipDataBw / pipe.compress_bw());
  const core::CkptRound& r = w.ctl.stats().rounds.back();
  ASSERT_GT(chunks, 2u * sim::params::kCoresPerNode);
  EXPECT_EQ(r.new_chunks, chunks);
  EXPECT_EQ(r.encode_jobs, chunks);
  // Per-chunk shares sum to the whole-image compress charge.
  EXPECT_NEAR(r.encode_cpu_seconds, serial_seconds, 1e-9 * serial_seconds);
  EXPECT_EQ(r.peak_encode_jobs, sim::params::kCoresPerNode);

  // One serial stage would take the chunk stage plus all the encode CPU;
  // the pool overlaps the encodes with each other and with the Stores.
  double chunk_stage = 0;
  for (const auto& s : tracer->spans()) {
    if (std::string_view(s.name) == "async.chunk") {
      chunk_stage = to_seconds(s.end - s.begin);
    }
  }
  ASSERT_GT(chunk_stage, 0.0);
  EXPECT_LT(pipe.stats().max_drain_seconds,
            chunk_stage + 0.5 * r.encode_cpu_seconds);
}

TEST(CkptAsync, CompressedAndUncompressedRestartsAgree) {
  for (const auto codec :
       {compress::CodecKind::kNone, compress::CodecKind::kLz77,
        compress::CodecKind::kGzipish}) {
    World w(4, async_opts(true, codec));
    const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
    const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
    w.ctl.run_for(20 * timeconst::kMillisecond);
    add_compressible_ballast(w, pa, 2 * 1024 * 1024, 0xAA);
    add_compressible_ballast(w, pb, 2 * 1024 * 1024, 0xBB);
    w.ctl.checkpoint_now();
    ASSERT_TRUE(w.drain_pipeline());
    const auto& r = w.ctl.stats().rounds.back();
    if (codec != compress::CodecKind::kNone) {
      EXPECT_LT(r.compress_ratio, 1.0) << compress::codec_name(codec);
    }
    w.ctl.kill_computation();
    const auto& rr = w.ctl.restart();
    EXPECT_FALSE(rr.needs_restore) << compress::codec_name(codec);
    EXPECT_EQ(rr.procs, 2);
    ASSERT_TRUE(w.run_until_results({"a", "b"}));
  }
}

TEST(CkptAsync, BlockPolicyStallsTheNextRoundUntilTheDrainFinishes) {
  auto opts = async_opts(true);
  opts.compress_bw = 2 * 1000 * 1000;  // a slow background compressor
  World w(4, opts);
  one_round_pause(w);
  // Round 2 starts while round 1's jobs are still draining: the block
  // policy holds write_image until the pipeline frees the rank's slot.
  ASSERT_FALSE(w.ctl.shared().async_pipeline->idle());
  w.ctl.checkpoint_now();
  const auto& r2 = w.ctl.stats().rounds.back();
  EXPECT_GT(r2.delta.sum("async.blocked_seconds"), 0.0);
  EXPECT_EQ(r2.async_skipped_procs, 0u);
  EXPECT_GT(w.ctl.shared().async_pipeline->stats().blocked_seconds, 0.0);
}

TEST(CkptAsync, SkipPolicyDropsTheRoundAndRestartsOffThePreviousImage) {
  auto opts = async_opts(true);
  opts.compress_bw = 2 * 1000 * 1000;
  opts.async_backpressure = core::AsyncBackpressure::kSkip;
  World w(4, opts);
  one_round_pause(w);
  ASSERT_FALSE(w.ctl.shared().async_pipeline->idle());
  w.ctl.checkpoint_now();
  const auto& r2 = w.ctl.stats().rounds.back();
  EXPECT_GT(r2.async_skipped_procs, 0u);
  EXPECT_EQ(r2.delta.sum("async.blocked_seconds"), 0.0);
  // The previous generation's manifests (same path every round) still
  // restart the computation.
  ASSERT_TRUE(w.drain_pipeline());
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  EXPECT_FALSE(rr.needs_restore);
  EXPECT_EQ(rr.procs, 2);
  ASSERT_TRUE(w.run_until_results({"a", "b"}));
}

TEST(CkptAsync, CowPagesAreCountedWhenTheAppWritesDuringTheDrain) {
  auto opts = async_opts(true);
  opts.compress_bw = 1 * 1000 * 1000;  // stretch the drain window
  World w(4, opts);
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 4 * 1024 * 1024, 0xAA);
  w.ctl.checkpoint_now();
  ASSERT_FALSE(w.ctl.shared().async_pipeline->idle());

  // The app dirties pages mid-drain: each first touch costs one page copy.
  sim::Process* p = w.k().find_process(pa);
  ASSERT_NE(p, nullptr);
  sim::MemSegment* seg = p->mem().find("ballast");
  ASSERT_NE(seg, nullptr);
  const u64 touch = 16 * sim::params::kCowPageBytes;
  seg->data.fill(0, touch, sim::ExtentKind::kRand, 0xD1);
  w.ctl.run_for(10 * timeconst::kMillisecond);

  const auto& ps = w.ctl.shared().async_pipeline->stats();
  EXPECT_GE(ps.cow_pages_copied, 16u);
  EXPECT_GT(ps.cow_copy_seconds, 0.0);
  // Re-touching the same pages is free: the COW copy happened already.
  const u64 copied = ps.cow_pages_copied;
  seg->data.fill(0, touch, sim::ExtentKind::kRand, 0xD2);
  EXPECT_EQ(w.ctl.shared().async_pipeline->stats().cow_pages_copied, copied);

  ASSERT_TRUE(w.drain_pipeline());
  EXPECT_EQ(ps.jobs_completed, ps.jobs_started);
}

TEST(CkptAsync, OptionSurfaceParsesAndValidates) {
  DmtcpOptions o;
  std::vector<std::string> argv{"--incremental",  "--dedup-scope",
                                "cluster",        "--ckpt-async",
                                "--compress",     "lz77+huffman",
                                "--async-backpressure", "skip",
                                "--compress-bw",  "30000000"};
  EXPECT_EQ(o.apply_flags(argv), "");
  EXPECT_TRUE(argv.empty());
  EXPECT_TRUE(o.ckpt_async);
  EXPECT_EQ(o.codec, compress::CodecKind::kGzipish);
  EXPECT_EQ(o.async_backpressure, core::AsyncBackpressure::kSkip);
  EXPECT_EQ(o.compress_bw, 30000000.0);

  DmtcpOptions plain;
  std::vector<std::string> no_incr{"--ckpt-async"};
  EXPECT_NE(plain.apply_flags(no_incr), "");  // requires --incremental

  DmtcpOptions forked;
  forked.incremental = true;
  forked.ckpt_async = true;
  forked.forked_checkpointing = true;
  EXPECT_NE(forked.validate(), "");  // the two pipelines conflict

  DmtcpOptions rle;
  std::vector<std::string> rle_flag{"--compress", "rle"};
  EXPECT_EQ(rle.apply_flags(rle_flag), "");
  EXPECT_EQ(rle.codec, compress::CodecKind::kRle);

  DmtcpOptions bad_codec;
  std::vector<std::string> zstd{"--compress", "zstd"};
  const std::string codec_err = bad_codec.apply_flags(zstd);
  EXPECT_NE(codec_err, "");
  for (const char* name :
       {"'none'", "'rle'", "'lz77'", "'huffman'", "'lz77+huffman'", "'gzip'"}) {
    EXPECT_NE(codec_err.find(name), std::string::npos) << name;
  }

  DmtcpOptions bad_policy;
  std::vector<std::string> pol{"--async-backpressure", "shrug"};
  EXPECT_NE(bad_policy.apply_flags(pol), "");
}

}  // namespace
}  // namespace dsim::test
