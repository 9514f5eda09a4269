// Async COW checkpoint pipeline vs synchronous encode+store.
//
// Four measurements over the same distributed workload (one desktop app
// per rank node, pattern ballast dirtied between generations, chunks
// draining through the sharded chunk-store service):
//
//   1. App-visible pause per generation, sync vs --ckpt-async: the async
//      world pays fork/COW only, the encode+store CPU runs behind the
//      app's back (gate: >= 5x total-pause speedup), and the drain encodes
//      new chunks on the writer's core pool (gate: peak_encode_jobs > 1).
//   2. Byte identity: generation-0 manifests are CRC-compared sync vs
//      async, and restored ballast content is CRC-compared across
//      --compress=none and --compress=lz77+huffman (gates: equal).
//   3. Failover during the background drain: a shard endpoint dies while
//      jobs are in flight; the heal-forwarding store path plus R=2 must
//      lose nothing, and the revived node gets its shard back (gate:
//      lost_chunks == 0, restart_ok).
//   4. kCompressBw sweep: background compression trades per-core encode
//      CPU for store/NIC bytes; a slow compressor loses the drain race,
//      a fast one wins it (gates: loses at 8 MB/s, wins at 480 MB/s).
//
// Emits BENCH_async.json. Knobs: DSIM_ASYNC_GENS (4),
// DSIM_ASYNC_BALLAST_MB (16), DSIM_ASYNC_DIRTY_PCT (50),
// DSIM_ASYNC_RANKS (2).
#include <algorithm>
#include <fstream>
#include <vector>

#include "bench/bench_util.h"
#include "ckptasync/pipeline.h"
#include "ckptstore/service.h"
#include "util/crc32.h"
#include "util/rng.h"

using namespace dsim;
using namespace dsim::bench;

namespace {

core::DmtcpOptions async_opts(bool async, compress::CodecKind codec,
                              int ranks, int replicas = 1) {
  core::DmtcpOptions o;
  o.incremental = true;
  o.ckpt_async = async;
  o.codec = codec;
  o.chunking = ckptstore::ChunkingMode::kCdc;
  o.cdc_min_bytes = 16 * 1024;
  o.cdc_avg_bytes = 64 * 1024;
  o.cdc_max_bytes = 256 * 1024;
  o.dedup_scope = core::DedupScope::kCluster;
  o.chunk_replicas = replicas;
  o.store_shards = 2;
  o.store_node = ranks;  // first spare node
  return o;
}

sim::MemSegment* add_pattern_ballast(World& w, Pid pid, u64 bytes, u64 seed) {
  sim::Process* p = w.k().find_process(pid);
  auto& seg = p->mem().add("ballast", sim::MemKind::kHeap, bytes);
  seg.data.fill(0, bytes, sim::ExtentKind::kRand, seed);
  return &seg;
}

/// Compressible real bytes (run-length structure, seeded per rank): unlike
/// pattern extents these are host-compressed, so codec choice moves both
/// the stored bytes and the drain time.
std::vector<std::byte> runs_content(u64 bytes, u64 seed) {
  std::vector<std::byte> data(bytes);
  Rng rng(seed);
  size_t i = 0;
  while (i < bytes) {
    const auto v = static_cast<std::byte>(rng.next_below(4));
    const size_t run = 1 + rng.next_below(300);
    for (size_t j = 0; j < run && i < bytes; ++j) data[i++] = v;
  }
  return data;
}

bool drain_pipeline(World& w) {
  auto pipe = w.ctl->shared().async_pipeline;
  if (pipe == nullptr) return true;
  return w.ctl->run_until([&] { return pipe->idle(); },
                          w.k().loop().now() + 600 * timeconst::kSecond);
}

/// CRC over every manifest of the current restart plan, in plan order.
u32 manifest_crc(World& w) {
  u32 crc = 0;
  const core::RestartPlan plan = w.ctl->read_restart_plan();
  for (const auto& host : plan.hosts) {
    for (const auto& img : host.images) {
      auto inode = w.k().fs_for(host.host, img).lookup(img);
      if (inode == nullptr) return 0;
      const auto bytes = inode->data.materialize(0, inode->data.size());
      crc = crc32_update(crc, bytes);
    }
  }
  return crc;
}

/// CRCs of every live process's "ballast" segment, ascending by virtual
/// pid. Real pids follow the order in which hosts finish restarting, which
/// depends on the codec; virtual pids name the same rank in every world.
std::vector<u32> restored_ballast_crcs(World& w) {
  std::vector<u32> out;
  for (const auto& [vpid, pid] : w.ctl->shared().vpid_map) {
    sim::Process* p = w.k().find_process(pid);
    if (p == nullptr || p->state() != sim::ProcState::kRunning) continue;
    const sim::MemSegment* seg = p->mem().find("ballast");
    if (seg == nullptr) continue;
    out.push_back(crc32(seg->data.materialize(0, seg->data.size())));
  }
  return out;
}

const char* b2s(bool b) { return b ? "true" : "false"; }

}  // namespace

int main() {
  const int gens = env_int("DSIM_ASYNC_GENS", 4);
  const u64 ballast =
      static_cast<u64>(env_int("DSIM_ASYNC_BALLAST_MB", 16)) * 1024 * 1024;
  const int dirty_pct = env_int("DSIM_ASYNC_DIRTY_PCT", 50);
  const int ranks = env_int("DSIM_ASYNC_RANKS", 2);
  const int nodes = ranks + 2;  // spares host the shard endpoints
  const u64 dirty_bytes = ballast * static_cast<u64>(dirty_pct) / 100;
  const std::string prof = apps::desktop_profiles().front().name;

  auto launch_ranks = [&](World& w) {
    std::vector<Pid> pids;
    for (int i = 0; i < ranks; ++i) {
      std::string tag = "r";
      tag += std::to_string(i);
      pids.push_back(w.ctl->launch(i, "desktop_app", {prof, "0", tag}));
    }
    w.ctl->run_for(50 * timeconst::kMillisecond);
    return pids;
  };

  // --- 1. pause: sync vs async over generations ----------------------------
  std::vector<double> sync_pause, async_pause;
  u32 crc_sync = 0, crc_async = 0;
  u64 queued_bytes = 0, cow_pages = 0;
  double max_drain = 0;
  int peak_encode_jobs = 0;
  for (const bool async : {false, true}) {
    World w(nodes, async_opts(async, compress::CodecKind::kGzipish, ranks),
            0xA51C);
    const auto pids = launch_ranks(w);
    std::vector<sim::MemSegment*> segs;
    for (int i = 0; i < ranks; ++i) {
      segs.push_back(add_pattern_ballast(w, pids[static_cast<size_t>(i)],
                                         ballast, 0xB0 + static_cast<u64>(i)));
    }
    for (int g = 0; g < gens; ++g) {
      if (g > 0) {
        for (int i = 0; i < ranks; ++i) {
          segs[static_cast<size_t>(i)]->data.fill(
              0, dirty_bytes, sim::ExtentKind::kRand,
              0xB0 + 16 * static_cast<u64>(g) + static_cast<u64>(i));
        }
      }
      const double pause = w.ctl->checkpoint_now().total_seconds();
      (async ? async_pause : sync_pause).push_back(pause);
      if (g == 0) (async ? crc_async : crc_sync) = manifest_crc(w);
      if (async) {
        queued_bytes +=
            w.ctl->stats().last_round().delta.counter("async.queued_bytes");
        drain_pipeline(w);
      }
    }
    if (async) {
      const auto& ps = w.ctl->shared().async_pipeline->stats();
      cow_pages = ps.cow_pages_copied;
      max_drain = ps.max_drain_seconds;
      for (const auto& r : w.ctl->stats().rounds) {
        peak_encode_jobs = std::max(peak_encode_jobs, r.peak_encode_jobs);
      }
    }
  }
  double sync_total = 0, async_total = 0;
  for (const double s : sync_pause) sync_total += s;
  for (const double s : async_pause) async_total += s;
  const double speedup = async_total > 0 ? sync_total / async_total : 0;
  const bool manifests_match = crc_sync != 0 && crc_sync == crc_async;

  // --- 2. compression bytes + restored-content identity ---------------------
  u64 raw_new = 0, compressed_new = 0;
  bool restored_match = true;
  std::vector<u32> restored_ref;
  for (const auto codec :
       {compress::CodecKind::kNone, compress::CodecKind::kGzipish}) {
    World w(nodes, async_opts(true, codec, ranks), 0xC0DE);
    const auto pids = launch_ranks(w);
    for (int i = 0; i < ranks; ++i) {
      sim::Process* p = w.k().find_process(pids[static_cast<size_t>(i)]);
      auto& seg = p->mem().add("ballast", sim::MemKind::kHeap,
                               4 * 1024 * 1024);
      seg.data.write(0, runs_content(4 * 1024 * 1024,
                                     0xC0 + static_cast<u64>(i)));
    }
    w.ctl->checkpoint_now();
    drain_pipeline(w);
    if (codec == compress::CodecKind::kGzipish) {
      const auto& ps = w.ctl->shared().async_pipeline->stats();
      raw_new = ps.raw_new_bytes;
      compressed_new = ps.compressed_new_bytes;
    }
    w.ctl->kill_computation();
    w.ctl->restart();
    const auto crcs = restored_ballast_crcs(w);
    if (restored_ref.empty()) {
      restored_ref = crcs;
    } else if (crcs != restored_ref) {
      restored_match = false;
    }
    if (crcs.size() != static_cast<size_t>(ranks)) restored_match = false;
  }
  const bool compressed_lt_raw = compressed_new > 0 && compressed_new < raw_new;
  const double compress_ratio =
      raw_new > 0
          ? static_cast<double>(compressed_new) / static_cast<double>(raw_new)
          : 0;

  // --- 3. endpoint death during the background drain ------------------------
  u64 lost_chunks = 1;
  u64 rehomed_back = 0;
  bool failover_restart_ok = false;
  {
    auto opts = async_opts(true, compress::CodecKind::kGzipish, ranks,
                           /*replicas=*/2);
    opts.compress_bw = 4 * 1000 * 1000;  // stretch the drain window
    World w(nodes, opts, 0xFA17);
    const auto pids = launch_ranks(w);
    for (int i = 0; i < ranks; ++i) {
      add_pattern_ballast(w, pids[static_cast<size_t>(i)], 4 * 1024 * 1024,
                          0xF0 + static_cast<u64>(i));
    }
    auto& svc = *w.ctl->shared().store_service;
    w.ctl->checkpoint_now();
    // Jobs are still compressing: kill shard 0's endpoint mid-drain. The
    // background store path must heal forward onto live holders.
    svc.fail_node(static_cast<NodeId>(ranks));
    drain_pipeline(w);
    w.ctl->run_for(500 * timeconst::kMillisecond);  // heal daemon settles
    lost_chunks = svc.placement().lost_chunks();
    svc.revive_node(static_cast<NodeId>(ranks));
    w.ctl->checkpoint_now();  // round boundary re-homes the shard back
    drain_pipeline(w);
    rehomed_back = svc.stats().rehomed_back_shards;
    w.ctl->kill_computation();
    const auto& rr = w.ctl->restart();
    failover_restart_ok = !rr.needs_restore && rr.procs == ranks;
  }

  // --- 4. compress-bandwidth sweep: drain race, gzip vs none ----------------
  auto measure_drain = [&](compress::CodecKind codec, double bw) {
    auto opts = async_opts(true, codec, ranks);
    opts.compress_bw = bw;
    World w(nodes, opts, 0x5EEB);
    const auto pids = launch_ranks(w);
    for (int i = 0; i < ranks; ++i) {
      sim::Process* p = w.k().find_process(pids[static_cast<size_t>(i)]);
      auto& seg = p->mem().add("ballast", sim::MemKind::kHeap,
                               4 * 1024 * 1024);
      seg.data.write(0, runs_content(4 * 1024 * 1024,
                                     0xD0 + static_cast<u64>(i)));
    }
    w.ctl->checkpoint_now();
    drain_pipeline(w);
    return w.ctl->shared().async_pipeline->stats().max_drain_seconds;
  };
  const std::vector<double> bws = {8e6, 30e6, 120e6, 480e6};
  const double none_drain = measure_drain(compress::CodecKind::kNone, 30e6);
  std::vector<double> gzip_drains;
  for (const double bw : bws) {
    gzip_drains.push_back(measure_drain(compress::CodecKind::kGzipish, bw));
  }
  const bool loses_slow = gzip_drains.front() > none_drain;
  const bool wins_fast = gzip_drains.back() < none_drain;

  // --- report ---------------------------------------------------------------
  Table t({"gen", "sync_pause_s", "async_pause_s", "speedup"});
  for (size_t g = 0; g < sync_pause.size(); ++g) {
    t.add_row({Table::fmt(static_cast<double>(g), 0),
               Table::fmt(sync_pause[g]), Table::fmt(async_pause[g]),
               Table::fmt(sync_pause[g] / async_pause[g], 1)});
  }
  t.print("Async COW pipeline vs sync encode (" + std::to_string(dirty_pct) +
          "% dirty per generation)");
  std::printf("speedup %.1fx  compress ratio %.3f  lost %llu  "
              "drain none %.3fs gzip@8MB/s %.3fs gzip@480MB/s %.3fs\n",
              speedup, compress_ratio,
              static_cast<unsigned long long>(lost_chunks), none_drain,
              gzip_drains.front(), gzip_drains.back());

  std::ofstream json("BENCH_async.json");
  json << "{\n  \"config\": {\"generations\": " << gens
       << ", \"ballast_bytes\": " << ballast
       << ", \"dirty_pct\": " << dirty_pct << ", \"ranks\": " << ranks
       << ", \"nodes\": " << nodes
       << ", \"default_compress_bw\": " << sim::params::kCompressBw
       << "},\n  \"pause\": {\"generations\": [\n";
  for (size_t g = 0; g < sync_pause.size(); ++g) {
    json << "    {\"gen\": " << g << ", \"sync_seconds\": " << sync_pause[g]
         << ", \"async_seconds\": " << async_pause[g] << "}"
         << (g + 1 < sync_pause.size() ? "," : "") << "\n";
  }
  json << "  ], \"sync_seconds\": " << sync_total
       << ", \"async_seconds\": " << async_total
       << ", \"speedup\": " << speedup
       << ", \"async_queued_bytes\": " << queued_bytes
       << ", \"cow_pages_copied\": " << cow_pages
       << ", \"max_drain_seconds\": " << max_drain
       << ", \"peak_encode_jobs\": " << peak_encode_jobs
       << "},\n  \"identity\": {\"manifests_match\": " << b2s(manifests_match)
       << ", \"manifest_crc_sync\": " << crc_sync
       << ", \"manifest_crc_async\": " << crc_async
       << ", \"restored_match\": " << b2s(restored_match)
       << "},\n  \"compression\": {\"raw_new_bytes\": " << raw_new
       << ", \"compressed_new_bytes\": " << compressed_new
       << ", \"ratio\": " << compress_ratio
       << "},\n  \"failover\": {\"lost_chunks\": " << lost_chunks
       << ", \"rehomed_back_shards\": " << rehomed_back
       << ", \"restart_ok\": " << b2s(failover_restart_ok)
       << "},\n  \"sweep\": [\n";
  for (size_t i = 0; i < bws.size(); ++i) {
    json << "    {\"compress_bw\": " << bws[i]
         << ", \"gzip_drain_seconds\": " << gzip_drains[i]
         << ", \"none_drain_seconds\": " << none_drain
         << ", \"compression_wins\": " << b2s(gzip_drains[i] < none_drain)
         << "}" << (i + 1 < bws.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"summary\": {\"pause_speedup\": " << speedup
       << ", \"compressed_lt_raw\": " << b2s(compressed_lt_raw)
       << ", \"compress_ratio\": " << compress_ratio
       << ", \"lost_chunks\": " << lost_chunks
       << ", \"restart_ok\": " << b2s(failover_restart_ok)
       << ", \"manifests_match\": " << b2s(manifests_match)
       << ", \"restored_match\": " << b2s(restored_match)
       << ", \"compress_loses_at_slow_cpu\": " << b2s(loses_slow)
       << ", \"compress_wins_at_fast_cpu\": " << b2s(wins_fast) << "}\n}\n";
  std::printf("wrote BENCH_async.json\n");
  return 0;
}
