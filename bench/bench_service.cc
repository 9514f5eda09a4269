// The remote chunk-store service under load: RPC-fabric lookups, sharded
// queues, replica placement, failover and background re-replication.
//
// Part A (contention sweep): N ranks on N nodes checkpoint into the
// cluster-scope store over the RPC fabric, sweeping ranks x {replicas,
// shards}. Each rank carries a private ballast (unique chunks — every
// submission is a Lookup RPC and most are Stores) plus a shared library
// ballast (dedup'd through the same path). The headline curves:
//   - per-lookup wait vs rank count at one shard — the Fig.-5b contention
//     shape moved from the SAN to the store service;
//   - the same load at --store-shards=4 — four independent queues move the
//     knee right (avg wait strictly below the one-shard point);
//   - RPC network bytes/waits per point — requests really cross the NIC.
// One extra point at max ranks runs --lookup-batch=8: K keys per RPC cut
// the RPC count ~K-fold while per-key wait absorbs the batch round-trip.
//
// Part B (failover + heal): a 4-rank world checkpoints, node 1 fails.
// With --chunk-replicas=2 the background re-replication daemon restores
// every degraded chunk to two copies before the next round completes, and
// the restart (host 1 migrated) reads only surviving replicas. With 1 the
// pre-flight reports the forced re-store (needs_restore) instead of
// restarting into missing chunks.
//
// Part C (rewrite): two worlds of one seed run two generations. Before
// generation 1 both write fresh bytes into a quarter of each rank's
// private pages; the control world also rewrites every page in place. A
// chunk that repeats a page the process did not write needs no Lookup, so
// the first world probes only what was written and pauses shorter, while
// the control probes every chunk. Both commit byte-identical manifests.
//
// The headline point (max ranks, one replica, one shard) also reports who
// stored its shared library: the chunks every rank maps go to whichever
// rank's Lookup their shard serves first, each stored once, not all by
// the rank scanned first.
//
// Emits BENCH_service.json (checked by the CI bench-smoke job).
//
// Knobs: DSIM_SVC_MAX_RANKS (16), DSIM_SVC_LIB_MB (4), DSIM_SVC_PRIV_MB (1).
#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "ckptstore/manifest.h"
#include "ckptstore/service.h"
#include "tests/testutil.h"

using namespace dsim;
using namespace dsim::bench;

namespace {

/// Service nodes are dedicated (stdchk runs its storage service on its own
/// machines): worlds get `ranks + kStoreNodes` nodes, ranks compute on the
/// first `ranks`, and `--store-node ranks` pins shard endpoints onto the
/// extra ones. Co-locating an endpoint with a rank couples the metric this
/// bench sweeps to an unrelated effect — the rank's store payload burst
/// delaying service responses on the shared NIC.
constexpr int kStoreNodes = 4;

core::DmtcpOptions service_opts(int ranks, int replicas, int shards = 1,
                                int lookup_batch = 1) {
  core::DmtcpOptions opts;
  opts.incremental = true;
  opts.codec = compress::CodecKind::kNone;  // exact byte accounting
  opts.chunking = ckptstore::ChunkingMode::kCdc;
  // Fine chunks: more probes per MB, so the lookup path (the thing this
  // bench sweeps) dominates over per-image constants.
  opts.cdc_min_bytes = 4 * 1024;
  opts.cdc_avg_bytes = 16 * 1024;
  opts.cdc_max_bytes = 64 * 1024;
  opts.dedup_scope = core::DedupScope::kCluster;
  opts.chunk_replicas = replicas;
  opts.store_node = ranks;  // first dedicated store node
  opts.store_shards = shards;
  opts.lookup_batch = lookup_batch;
  return opts;
}

/// Launch `ranks` desktop processes, one per node, with a shared library
/// ballast (identical chunks everywhere) and a private per-rank ballast.
std::vector<Pid> launch_ranks(World& w, int ranks, u64 lib_bytes,
                              u64 priv_bytes) {
  const std::string prof = apps::desktop_profiles().front().name;
  std::vector<Pid> pids;
  for (int n = 0; n < ranks; ++n) {
    std::string tag = "p";
    tag += std::to_string(n);
    pids.push_back(w.ctl->launch(n, "desktop_app", {prof, "0", tag}));
  }
  w.ctl->run_for(50 * timeconst::kMillisecond);
  for (int n = 0; n < ranks; ++n) {
    sim::Process* p = w.k().find_process(pids[static_cast<size_t>(n)]);
    auto& lib = p->mem().add("libshared", sim::MemKind::kLib, lib_bytes);
    lib.data.fill(0, lib_bytes, sim::ExtentKind::kRand, 0x11B);
    auto& priv = p->mem().add("private", sim::MemKind::kHeap, priv_bytes);
    priv.data.fill(0, priv_bytes, sim::ExtentKind::kRand,
                   0xB0 + static_cast<u64>(n));
  }
  return pids;
}

u64 cluster_written_bytes(World& w) {
  u64 total = 0;
  for (int n = 0; n < w.k().num_nodes(); ++n) {
    total += w.k().node(n).storage().cache().total_written_bytes();
  }
  return total;
}

struct SweepPoint {
  int ranks = 0;
  int replicas = 0;
  int shards = 0;
  int lookup_batch = 1;
  u64 lookups = 0;
  u64 rpcs = 0;
  u64 rpc_net_bytes = 0;
  double rpc_net_wait_ms = 0;
  double avg_wait_ms = 0;
  double max_wait_ms = 0;
  double ckpt_seconds = 0;
  u64 stored_bytes = 0;          // new chunks + manifests (one copy)
  u64 device_written_bytes = 0;  // replica copies included
  u64 lib_keys = 0;              // distinct shared library chunks
  std::vector<u64> lib_stores;   // of them, the ones each rank stored
  u64 claimed_resident = 0;
};

/// The distinct chunks of every rank's "libshared" segment, and how many
/// of them each rank's Stores carried in `round`.
void library_stores(World& w, const core::CkptRound& round, int ranks,
                    SweepPoint& pt) {
  const std::set<ckptstore::ChunkKey> lib =
      test::segment_keys(w.k(), *w.ctl, "libshared");
  pt.lib_keys = lib.size();
  pt.lib_stores.assign(static_cast<size_t>(ranks), 0);
  for (const auto& [node, keys] : round.stored_keys) {
    if (node >= ranks) continue;
    pt.lib_stores[static_cast<size_t>(node)] = static_cast<u64>(
        std::count_if(keys.begin(), keys.end(),
                      [&lib](const auto& key) { return lib.count(key); }));
  }
}

SweepPoint run_point(int ranks, int replicas, int shards, int lookup_batch,
                     u64 lib_bytes, u64 priv_bytes) {
  World w(ranks + kStoreNodes,
          service_opts(ranks, replicas, shards, lookup_batch),
          0x5e21 + static_cast<u64>(ranks));
  launch_ranks(w, ranks, lib_bytes, priv_bytes);
  const core::CkptRound round = w.ctl->checkpoint_now();
  SweepPoint pt;
  pt.ranks = ranks;
  pt.replicas = replicas;
  pt.shards = shards;
  pt.lookup_batch = lookup_batch;
  pt.lookups = round.delta.counter("store.lookup_requests");
  pt.rpcs = round.delta.counter("rpc.calls");
  pt.rpc_net_bytes = round.delta.counter("rpc.net_bytes");
  pt.rpc_net_wait_ms = round.delta.sum("rpc.net_wait_seconds") * 1e3;
  // The world's only round: its delta copies the histogram, so max() is
  // the exact largest wait.
  const obs::Histogram& wait = round.delta.histogram("store.lookup_wait");
  pt.avg_wait_ms = wait.mean() * 1e3;
  pt.max_wait_ms = wait.max() * 1e3;
  pt.ckpt_seconds = round.total_seconds();
  pt.stored_bytes = round.total_compressed;
  pt.device_written_bytes = cluster_written_bytes(w);
  pt.claimed_resident = round.delta.counter("ckpt.claimed_resident");
  library_stores(w, round, ranks, pt);
  return pt;
}

struct FailoverResult {
  bool r2_restart_ok = false;
  double r2_restart_seconds = 0;
  u64 r2_restart_chunk_refs = 0;
  u64 r2_restart_decode_jobs = 0;
  u64 r2_restart_node_keys = 0;
  u64 r2_rereplicated_chunks = 0;
  u64 r2_degraded_after_heal = 0;
  bool r1_needs_restore = false;
  u64 r1_lost_chunks = 0;
};

/// The distinct (target node, chunk key) pairs a restart under `host_map`
/// reads, from the restart plan's manifests: the decode jobs a restart that
/// reads each key once per node runs.
u64 restart_node_keys(World& w, const std::map<NodeId, NodeId>& host_map) {
  std::set<std::pair<NodeId, ckptstore::ChunkKey>> pairs;
  for (const auto& host : w.ctl->read_restart_plan().hosts) {
    const auto mapped = host_map.find(host.host);
    const NodeId target =
        mapped == host_map.end() ? host.host : mapped->second;
    for (const auto& img : host.images) {
      auto inode = w.k().fs_for(host.host, img).lookup(img);
      const auto mf = ckptstore::Manifest::decode(
          inode->data.materialize(0, inode->data.size()));
      for (const auto& key : mf.all_keys()) pairs.emplace(target, key);
    }
  }
  return pairs.size();
}

FailoverResult run_failover(u64 lib_bytes, u64 priv_bytes) {
  FailoverResult fr;
  {
    World w(4 + kStoreNodes, service_opts(4, /*replicas=*/2), 0xfa11);
    launch_ranks(w, 4, lib_bytes, priv_bytes);
    w.ctl->checkpoint_now();
    auto& svc = *w.ctl->shared().store_service;
    svc.fail_node(1);
    // Membership detects the death (~misses x interval of silence), the
    // service kicks its background re-replication daemon, and the
    // heal drains while the computation keeps running; the restart then
    // reads only survivors. (bench_failover measures the mid-round kill —
    // here the heal itself is the subject.)
    w.ctl->run_for(150 * timeconst::kMillisecond);
    w.ctl->checkpoint_now();
    fr.r2_rereplicated_chunks = svc.stats().rereplicated_chunks;
    fr.r2_degraded_after_heal = svc.placement().degraded_count();
    w.ctl->kill_computation();
    const std::map<NodeId, NodeId> host_map{{1, 2}};
    fr.r2_restart_node_keys = restart_node_keys(w, host_map);
    const auto& rr = w.ctl->restart(host_map);
    fr.r2_restart_ok = !rr.needs_restore && rr.procs == 4;
    fr.r2_restart_seconds = rr.total_seconds();
    fr.r2_restart_chunk_refs = rr.chunk_refs;
    fr.r2_restart_decode_jobs = rr.decode_jobs;
  }
  {
    World w(4 + kStoreNodes, service_opts(4, /*replicas=*/1), 0xfa11);
    launch_ranks(w, 4, lib_bytes, priv_bytes);
    w.ctl->checkpoint_now();
    w.ctl->shared().store_service->fail_node(1);
    w.ctl->kill_computation();
    const auto& rr = w.ctl->restart({{1, 2}});
    fr.r1_needs_restore = rr.needs_restore;
    fr.r1_lost_chunks = rr.lost_chunks;
  }
  return fr;
}

struct RewriteResult {
  u64 total_chunks = 0;
  u64 new_chunks = 0;
  u64 lookups = 0;
  u64 control_lookups = 0;
  double ckpt_seconds = 0;
  double control_ckpt_seconds = 0;
  bool manifests_identical = false;
};

constexpr int kRewriteRanks = 4;
constexpr u64 kRewritePageBytes = 64 * 1024;

/// Generation 1 of a world whose ranks wrote fresh bytes into a quarter of
/// their private pages — every page rewritten in place as well in the
/// control world.
RewriteResult run_rewrite(u64 lib_bytes, u64 priv_bytes) {
  RewriteResult r;
  std::vector<std::vector<std::byte>> manifests[2];
  for (const bool control : {false, true}) {
    World w(kRewriteRanks + kStoreNodes, service_opts(kRewriteRanks, 1),
            0x2e7e);
    const std::vector<Pid> pids =
        launch_ranks(w, kRewriteRanks, lib_bytes, priv_bytes);
    w.ctl->checkpoint_now();
    Rng rng(0x9A6E);
    const u64 pages = priv_bytes / kRewritePageBytes;
    for (const Pid pid : pids) {
      auto* priv = w.k().find_process(pid)->mem().find("private");
      for (u64 i = 0; i < pages; i += 4) {
        const u64 page = i + rng.next_below(std::min<u64>(4, pages - i));
        priv->data.write(page * kRewritePageBytes,
                         test::pseudo_bytes(kRewritePageBytes, rng.next_u64()));
      }
      if (control) rewrite_in_place(w.k(), pid);
    }
    const core::CkptRound round = w.ctl->checkpoint_now();
    const u64 lookups = round.delta.counter("store.lookup_requests");
    if (control) {
      r.control_lookups = lookups;
      r.control_ckpt_seconds = round.total_seconds();
    } else {
      r.total_chunks = round.total_chunks;
      r.new_chunks = round.new_chunks;
      r.lookups = lookups;
      r.ckpt_seconds = round.total_seconds();
    }
    manifests[control] = test::plan_manifests(w.k(), *w.ctl);
  }
  r.manifests_identical = manifests[0] == manifests[1];
  return r;
}

}  // namespace

int main() {
  const int max_ranks = env_int("DSIM_SVC_MAX_RANKS", 16);
  const u64 lib_bytes =
      static_cast<u64>(env_int("DSIM_SVC_LIB_MB", 4)) * 1024 * 1024;
  const u64 priv_bytes =
      static_cast<u64>(env_int("DSIM_SVC_PRIV_MB", 1)) * 1024 * 1024;

  std::vector<int> rank_points;
  for (int r = 2; r <= max_ranks; r *= 2) rank_points.push_back(r);
  if (rank_points.empty()) {
    // DSIM_SVC_MAX_RANKS=1: a single-point run (no growth ratio, so the
    // knee summary degenerates — useful only for eyeballing one config).
    rank_points.push_back(std::max(1, max_ranks));
  }

  // Sweep configurations: the one-queue baseline, its replicated variant
  // (device write amplification), and the four-shard variant (the knee
  // moves right).
  struct Config {
    int replicas, shards;
  };
  const std::vector<Config> configs{{1, 1}, {2, 1}, {1, 4}};

  Table t({"ranks", "replicas", "shards", "lookups", "rpcs", "avg_wait_ms",
           "max_wait_ms", "net_MB", "ckpt_s", "stored_MB", "dev_written_MB"});
  std::vector<SweepPoint> sweep;
  for (int ranks : rank_points) {
    for (const Config& c : configs) {
      const SweepPoint pt = run_point(ranks, c.replicas, c.shards, 1,
                                      lib_bytes, priv_bytes);
      sweep.push_back(pt);
      t.add_row({Table::fmt(ranks, 0), Table::fmt(c.replicas, 0),
                 Table::fmt(c.shards, 0),
                 Table::fmt(static_cast<double>(pt.lookups), 0),
                 Table::fmt(static_cast<double>(pt.rpcs), 0),
                 Table::fmt(pt.avg_wait_ms, 3), Table::fmt(pt.max_wait_ms, 3),
                 mb(pt.rpc_net_bytes), Table::fmt(pt.ckpt_seconds),
                 mb(pt.stored_bytes), mb(pt.device_written_bytes)});
    }
  }
  t.print("Chunk-store service: lookup contention vs ranks x replicas x "
          "shards");

  // Sweep summaries. Knee: per-lookup wait at max vs min ranks (replicas=1,
  // shards=1). Shard knee shift: one-shard vs four-shard wait at max ranks.
  double wait_min_ranks = 0, wait_max_ranks = 0, wait_shards4 = 0;
  u64 rpcs_batch1 = 0;
  SweepPoint headline;
  u64 dev_r1 = 0, dev_r2 = 0;
  for (const auto& pt : sweep) {
    if (pt.replicas == 1 && pt.shards == 1) {
      if (pt.ranks == rank_points.front()) wait_min_ranks = pt.avg_wait_ms;
      if (pt.ranks == rank_points.back()) {
        wait_max_ranks = pt.avg_wait_ms;
        rpcs_batch1 = pt.rpcs;
        headline = pt;
      }
    }
    if (pt.ranks == rank_points.back()) {
      if (pt.replicas == 1 && pt.shards == 4) wait_shards4 = pt.avg_wait_ms;
      if (pt.shards == 1 && pt.replicas == 1) dev_r1 = pt.device_written_bytes;
      if (pt.shards == 1 && pt.replicas == 2) dev_r2 = pt.device_written_bytes;
    }
  }

  // The batching trade-off at the most contended point: K keys per RPC cut
  // the RPC count, per-key wait absorbs the batch round-trip.
  const SweepPoint batch = run_point(rank_points.back(), 1, 1, 8, lib_bytes,
                                     priv_bytes);
  std::printf("lookup-batch=8 at %d ranks: %llu RPCs (vs %llu at batch=1), "
              "avg wait %.3f ms\n",
              rank_points.back(),
              static_cast<unsigned long long>(batch.rpcs),
              static_cast<unsigned long long>(rpcs_batch1),
              batch.avg_wait_ms);

  const FailoverResult fr = run_failover(lib_bytes, priv_bytes);
  std::printf("failover: R=2 restart %s (%.3f s, %llu decode jobs for %llu "
              "(node, chunk) pairs and %llu chunk references, %llu chunks "
              "re-replicated, %llu still degraded); R=1 needs_restore=%s "
              "(%llu chunks lost)\n",
              fr.r2_restart_ok ? "ok" : "FAILED", fr.r2_restart_seconds,
              static_cast<unsigned long long>(fr.r2_restart_decode_jobs),
              static_cast<unsigned long long>(fr.r2_restart_node_keys),
              static_cast<unsigned long long>(fr.r2_restart_chunk_refs),
              static_cast<unsigned long long>(fr.r2_rereplicated_chunks),
              static_cast<unsigned long long>(fr.r2_degraded_after_heal),
              fr.r1_needs_restore ? "true" : "false",
              static_cast<unsigned long long>(fr.r1_lost_chunks));

  u64 lib_stored = 0, max_writer = 0;
  std::string per_writer;
  for (const u64 n : headline.lib_stores) {
    lib_stored += n;
    max_writer = std::max(max_writer, n);
    per_writer += (per_writer.empty() ? "" : ", ") + std::to_string(n);
  }
  std::printf("shared library at %d ranks: %llu chunks, %llu stores, per "
              "rank [%s], %llu taken on by a rank that found them resident\n",
              headline.ranks, static_cast<unsigned long long>(headline.lib_keys),
              static_cast<unsigned long long>(lib_stored), per_writer.c_str(),
              static_cast<unsigned long long>(headline.claimed_resident));

  const RewriteResult rw = run_rewrite(lib_bytes, priv_bytes);
  std::printf("rewrite: %llu of %llu chunks new; %llu Lookups (control, "
              "every page rewritten: %llu); ckpt %.4f s (control %.4f s); "
              "manifests %s\n",
              static_cast<unsigned long long>(rw.new_chunks),
              static_cast<unsigned long long>(rw.total_chunks),
              static_cast<unsigned long long>(rw.lookups),
              static_cast<unsigned long long>(rw.control_lookups),
              rw.ckpt_seconds, rw.control_ckpt_seconds,
              rw.manifests_identical ? "identical" : "DIFFER");

  const double wait_growth =
      wait_min_ranks > 0 ? wait_max_ranks / wait_min_ranks : 0;
  const double shard_speedup =
      wait_shards4 > 0 ? wait_max_ranks / wait_shards4 : 0;
  const double write_amplification =
      dev_r1 > 0 ? static_cast<double>(dev_r2) / static_cast<double>(dev_r1)
                 : 0;
  const double batch_rpc_reduction =
      batch.rpcs > 0 ? static_cast<double>(rpcs_batch1) /
                           static_cast<double>(batch.rpcs)
                     : 0;

  std::ofstream json("BENCH_service.json");
  json << "{\n  \"config\": {\"max_ranks\": " << max_ranks
       << ", \"lib_bytes\": " << lib_bytes
       << ", \"priv_bytes\": " << priv_bytes << "},\n  \"sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const auto& pt = sweep[i];
    json << "    {\"ranks\": " << pt.ranks
         << ", \"replicas\": " << pt.replicas << ", \"shards\": " << pt.shards
         << ", \"lookups\": " << pt.lookups << ", \"rpcs\": " << pt.rpcs
         << ", \"rpc_net_bytes\": " << pt.rpc_net_bytes
         << ", \"rpc_net_wait_ms\": " << pt.rpc_net_wait_ms
         << ", \"avg_lookup_wait_ms\": " << pt.avg_wait_ms
         << ", \"max_lookup_wait_ms\": " << pt.max_wait_ms
         << ", \"ckpt_seconds\": " << pt.ckpt_seconds
         << ", \"stored_bytes\": " << pt.stored_bytes
         << ", \"device_written_bytes\": " << pt.device_written_bytes << "}"
         << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"batch\": {\"lookup_batch\": 8, \"ranks\": "
       << rank_points.back() << ", \"rpcs\": " << batch.rpcs
       << ", \"rpcs_batch1\": " << rpcs_batch1
       << ", \"avg_lookup_wait_ms\": " << batch.avg_wait_ms
       << ", \"rpc_net_bytes\": " << batch.rpc_net_bytes
       << "},\n  \"failover\": {\"r2_restart_ok\": "
       << (fr.r2_restart_ok ? "true" : "false")
       << ", \"r2_restart_seconds\": " << fr.r2_restart_seconds
       << ", \"r2_restart_chunk_refs\": " << fr.r2_restart_chunk_refs
       << ", \"r2_restart_decode_jobs\": " << fr.r2_restart_decode_jobs
       << ", \"r2_restart_node_keys\": " << fr.r2_restart_node_keys
       << ", \"r2_rereplicated_chunks\": " << fr.r2_rereplicated_chunks
       << ", \"r2_degraded_after_heal\": " << fr.r2_degraded_after_heal
       << ", \"r1_needs_restore\": "
       << (fr.r1_needs_restore ? "true" : "false")
       << ", \"r1_lost_chunks\": " << fr.r1_lost_chunks
       << "},\n  \"shared\": {\"ranks\": " << headline.ranks
       << ", \"lib_keys\": " << headline.lib_keys
       << ", \"lib_stores\": " << lib_stored
       << ", \"stores_per_writer\": [" << per_writer << "]"
       << ", \"max_writer_stores\": " << max_writer
       << ", \"claimed_resident\": " << headline.claimed_resident
       << "},\n  \"rewrite\": {\"ranks\": " << kRewriteRanks
       << ", \"total_chunks\": " << rw.total_chunks
       << ", \"new_chunks\": " << rw.new_chunks
       << ", \"lookups\": " << rw.lookups
       << ", \"control_lookups\": " << rw.control_lookups
       << ", \"ckpt_seconds\": " << rw.ckpt_seconds
       << ", \"control_ckpt_seconds\": " << rw.control_ckpt_seconds
       << ", \"manifests_identical\": "
       << (rw.manifests_identical ? "true" : "false")
       << "},\n  \"summary\": {\"wait_ms_at_min_ranks\": " << wait_min_ranks
       << ", \"wait_ms_at_max_ranks\": " << wait_max_ranks
       << ", \"wait_ms_shards4_at_max_ranks\": " << wait_shards4
       << ", \"wait_growth\": " << wait_growth
       << ", \"shard_speedup\": " << shard_speedup
       << ", \"contention_knee_visible\": "
       << (wait_growth > 1.5 ? "true" : "false")
       << ", \"shard_knee_shifted\": "
       << (shard_speedup > 1.0 ? "true" : "false")
       << ", \"batch_rpc_reduction\": " << batch_rpc_reduction
       << ", \"replica_write_amplification\": " << write_amplification
       << ", \"r2_restart_ok\": " << (fr.r2_restart_ok ? "true" : "false")
       << ", \"r1_needs_restore\": "
       << (fr.r1_needs_restore ? "true" : "false") << "}\n}\n";

  std::printf("wrote BENCH_service.json\n");
  return 0;
}
