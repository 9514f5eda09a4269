// Erasure-coded chunk storage vs replication: the byte-economics sweep.
//
// Part A (overhead): the same workload checkpoints into two stores — (k,m)
// Reed-Solomon striping and R=2 replication — over identically-seeded
// clusters. The physical footprint (sum of per-node stored bytes) must show
// striping's (k+m)/k factor beating replication's 2x: 1.5x at (4,2), an
// overhead ratio of 0.75.
//
// Part B (restart sweep): a fresh erasure world per point loses 0..m nodes
// *immediately* before restart — no heal window — so every read through a
// dead fragment is a degraded read: parity substitutes, decode CPU lands on
// the restart path. Every point must complete with zero lost chunks.
//
// Part C (rebuild traffic): one node dies under each scheme and the heal
// daemon runs to full strength. Replication re-stores full containers
// (read + ship + write = 3x the chunk bytes per heal at F=1); the erasure
// healer rebuilds only the dead fragments from k survivors
// ((2k + 2F - 1) x frag_bytes = 2.25x at (4,2), F=1). Compared per healed
// chunk, since a dead node touches more erasure chunks (k+m homes each)
// than replication chunks (2 homes each).
//
// Part D (tiering): with --cold-erasure armed, generations falling out of
// the --hot-generations window re-stripe to the wider cold profile in the
// background; the demotion count and re-striped bytes are reported.
//
// Emits BENCH_erasure.json (checked by the CI bench-smoke job).
//
// Knobs: DSIM_ER_RANKS (8), DSIM_ER_LIB_MB (8), DSIM_ER_PRIV_MB (4),
// DSIM_ER_K (4), DSIM_ER_M (2).
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ckptstore/service.h"

using namespace dsim;
using namespace dsim::bench;

namespace {

core::DmtcpOptions base_opts(int ranks) {
  core::DmtcpOptions opts;
  opts.incremental = true;
  opts.codec = compress::CodecKind::kNone;  // exact byte accounting
  opts.chunking = ckptstore::ChunkingMode::kCdc;
  opts.cdc_min_bytes = 4 * 1024;
  opts.cdc_avg_bytes = 16 * 1024;
  opts.cdc_max_bytes = 64 * 1024;
  opts.dedup_scope = core::DedupScope::kCluster;
  (void)ranks;
  return opts;
}

core::DmtcpOptions erasure_opts(int ranks, int k, int m) {
  auto opts = base_opts(ranks);
  opts.erasure_k = k;
  opts.erasure_m = m;
  return opts;
}

core::DmtcpOptions replication_opts(int ranks) {
  auto opts = base_opts(ranks);
  opts.chunk_replicas = 2;
  return opts;
}

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
                   0xE0 + static_cast<u64>(n));
  }
  return pids;
}

u64 stored_bytes(core::DmtcpControl& ctl) {
  u64 total = 0;
  for (u64 b : ctl.shared().store_service->placement().bytes_per_node()) {
    total += b;
  }
  return total;
}

/// Run the heal daemon to completion after `victim` dies; returns rounds of
/// 250 ms the drain took (bounded — a stuck daemon must not hang the bench).
int heal_to_full_strength(World& w) {
  auto& svc = *w.ctl->shared().store_service;
  int waits = 0;
  while (svc.placement().degraded_count() > 0 && waits < 40) {
    w.ctl->run_for(250 * timeconst::kMillisecond);
    ++waits;
  }
  return waits;
}

struct OverheadResult {
  u64 erasure_stored = 0;
  u64 replication_stored = 0;
  u64 logical_bytes = 0;  // unique container bytes, from the R=2 footprint
  double erasure_factor = 0;      // stored / logical, expect (k+m)/k
  double replication_factor = 0;  // expect 2.0
  double overhead_ratio = 0;      // erasure_stored / replication_stored
};

struct SweepPoint {
  int losses = 0;
  double restart_seconds = 0;
  u64 lost_chunks = 0;
  bool restart_ok = false;
};

struct RebuildResult {
  u64 moved_bytes = 0;
  u64 healed_chunks = 0;
  u64 rebuilt_fragments = 0;
  double moved_per_chunk = 0;
  int drain_waits = 0;
  u64 lost_chunks = 0;
};

struct TieringResult {
  u64 demoted_chunks = 0;
  u64 demoted_bytes = 0;
  u64 stored_after = 0;
  bool restart_ok = false;
};

}  // namespace

int main() {
  const int ranks = env_int("DSIM_ER_RANKS", 8);
  const int k = env_int("DSIM_ER_K", 4);
  const int m = env_int("DSIM_ER_M", 2);
  const u64 lib_bytes =
      static_cast<u64>(env_int("DSIM_ER_LIB_MB", 8)) * 1024 * 1024;
  const u64 priv_bytes =
      static_cast<u64>(env_int("DSIM_ER_PRIV_MB", 4)) * 1024 * 1024;
  // Every fragment needs its own node, plus headroom to survive m losses
  // and still have k+m alive homes for the rebuilt fragments.
  const int nodes = std::max(ranks, k + m + m);

  // --- Part A: stored-byte overhead, erasure vs R=2 ------------------------
  OverheadResult ov;
  {
    World we(nodes, erasure_opts(ranks, k, m), 0xE5A5);
    launch_ranks(we, ranks, lib_bytes, priv_bytes);
    we.ctl->checkpoint_now();
    ov.erasure_stored = stored_bytes(*we.ctl);

    World wr(nodes, replication_opts(ranks), 0xE5A5);
    launch_ranks(wr, ranks, lib_bytes, priv_bytes);
    wr.ctl->checkpoint_now();
    ov.replication_stored = stored_bytes(*wr.ctl);

    ov.logical_bytes = ov.replication_stored / 2;
    ov.erasure_factor = ov.logical_bytes == 0
                            ? 0
                            : static_cast<double>(ov.erasure_stored) /
                                  static_cast<double>(ov.logical_bytes);
    ov.replication_factor = 2.0;
    ov.overhead_ratio = ov.replication_stored == 0
                            ? 0
                            : static_cast<double>(ov.erasure_stored) /
                                  static_cast<double>(ov.replication_stored);
    std::printf(
        "overhead: erasure(%d,%d) %s MB vs R=2 %s MB (%.3fx vs 2.0x "
        "logical; ratio %.3f)\n",
        k, m, mb(ov.erasure_stored).c_str(), mb(ov.replication_stored).c_str(),
        ov.erasure_factor, ov.overhead_ratio);
  }

  // --- Part B: restart with 0..m node losses (degraded reads) --------------
  std::vector<SweepPoint> sweep;
  for (int losses = 0; losses <= m; ++losses) {
    World w(nodes, erasure_opts(ranks, k, m), 0xE5A5);
    launch_ranks(w, ranks, lib_bytes, priv_bytes);
    w.ctl->checkpoint_now();
    auto& svc = *w.ctl->shared().store_service;
    // Kill the highest non-rank nodes back to back: no heal window, the
    // restart must read through parity.
    for (int f = 0; f < losses; ++f) {
      svc.fail_node(nodes - 1 - f);
    }
    SweepPoint pt;
    pt.losses = losses;
    pt.lost_chunks = svc.placement().lost_chunks();
    w.ctl->kill_computation();
    const auto& rr = w.ctl->restart();
    pt.restart_seconds = rr.total_seconds();
    pt.restart_ok = !rr.needs_restore && rr.procs == ranks;
    sweep.push_back(pt);
    std::printf("restart with %d lost node(s): %.3f s, %llu lost chunks, %s\n",
                losses, pt.restart_seconds,
                static_cast<unsigned long long>(pt.lost_chunks),
                pt.restart_ok ? "ok" : "FAILED");
  }

  // --- Part C: rebuild traffic after one node death ------------------------
  const auto rebuild_run = [&](core::DmtcpOptions opts) {
    RebuildResult rb;
    World w(nodes, opts, 0xE5A5);
    launch_ranks(w, ranks, lib_bytes, priv_bytes);
    w.ctl->checkpoint_now();
    auto& svc = *w.ctl->shared().store_service;
    svc.fail_node(nodes - 1);
    rb.drain_waits = heal_to_full_strength(w);
    rb.moved_bytes = svc.stats().heal_moved_bytes;
    rb.healed_chunks = svc.stats().rereplicated_chunks;
    rb.rebuilt_fragments = svc.stats().rebuilt_fragments;
    rb.moved_per_chunk = rb.healed_chunks == 0
                             ? 0
                             : static_cast<double>(rb.moved_bytes) /
                                   static_cast<double>(rb.healed_chunks);
    rb.lost_chunks = svc.placement().lost_chunks();
    return rb;
  };
  const RebuildResult rbe = rebuild_run(erasure_opts(ranks, k, m));
  const RebuildResult rbr = rebuild_run(replication_opts(ranks));
  const double rebuild_ratio =
      rbr.moved_per_chunk == 0 ? 0 : rbe.moved_per_chunk / rbr.moved_per_chunk;
  std::printf(
      "rebuild: erasure moved %s MB over %llu chunks (%.0f B/chunk), R=2 "
      "moved %s MB over %llu chunks (%.0f B/chunk); per-chunk ratio %.3f\n",
      mb(rbe.moved_bytes).c_str(),
      static_cast<unsigned long long>(rbe.healed_chunks), rbe.moved_per_chunk,
      mb(rbr.moved_bytes).c_str(),
      static_cast<unsigned long long>(rbr.healed_chunks), rbr.moved_per_chunk,
      rebuild_ratio);

  // --- Part D: cold-tier demotion ------------------------------------------
  TieringResult tier;
  {
    auto opts = erasure_opts(ranks, k, m);
    opts.cold_erasure_k = std::min(k + m, nodes - m);
    opts.cold_erasure_m = m;
    opts.hot_generations = 1;
    const int cold_k = opts.cold_erasure_k;
    World w(nodes, opts, 0xE5A5);
    const auto pids = launch_ranks(w, ranks, lib_bytes, priv_bytes);
    w.ctl->checkpoint_now();
    // Rewrite every rank's private ballast: generation 1 stores new chunks
    // and strands generation 0's private chunks outside the hot window.
    for (int n = 0; n < ranks; ++n) {
      sim::Process* p = w.k().find_process(pids[static_cast<size_t>(n)]);
      if (p == nullptr) continue;
      sim::MemSegment* seg = p->mem().find("private");
      if (seg != nullptr) {
        seg->data.fill(0, priv_bytes, sim::ExtentKind::kRand,
                       0xF0 + static_cast<u64>(n));
      }
    }
    w.ctl->checkpoint_now();
    w.ctl->run_for(500 * timeconst::kMillisecond);  // demotion drains
    auto& svc = *w.ctl->shared().store_service;
    tier.demoted_chunks = svc.stats().demoted_chunks;
    tier.demoted_bytes = svc.stats().demoted_bytes;
    tier.stored_after = stored_bytes(*w.ctl);
    w.ctl->kill_computation();
    const auto& rr = w.ctl->restart();
    tier.restart_ok = !rr.needs_restore && rr.procs == ranks;
    std::printf(
        "tiering: %llu chunks (%s MB) re-striped to cold (%d,%d), restart "
        "%s\n",
        static_cast<unsigned long long>(tier.demoted_chunks),
        mb(tier.demoted_bytes).c_str(), cold_k, m,
        tier.restart_ok ? "ok" : "FAILED");
  }

  bool sweep_ok = true;
  u64 sweep_max_lost = 0;
  for (const auto& pt : sweep) {
    sweep_ok = sweep_ok && pt.restart_ok;
    sweep_max_lost = std::max(sweep_max_lost, pt.lost_chunks);
  }

  std::ofstream json("BENCH_erasure.json");
  json << "{\n  \"config\": {\"ranks\": " << ranks << ", \"nodes\": " << nodes
       << ", \"k\": " << k << ", \"m\": " << m
       << ", \"lib_bytes\": " << lib_bytes
       << ", \"priv_bytes\": " << priv_bytes << "},\n"
       << "  \"overhead\": {\"erasure_stored_bytes\": " << ov.erasure_stored
       << ", \"replication_stored_bytes\": " << ov.replication_stored
       << ", \"logical_bytes\": " << ov.logical_bytes
       << ", \"erasure_factor\": " << ov.erasure_factor
       << ", \"replication_factor\": " << ov.replication_factor
       << ", \"overhead_ratio\": " << ov.overhead_ratio << "},\n"
       << "  \"restart_sweep\": [";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const auto& pt = sweep[i];
    json << (i ? ", " : "") << "{\"losses\": " << pt.losses
         << ", \"restart_seconds\": " << pt.restart_seconds
         << ", \"lost_chunks\": " << pt.lost_chunks
         << ", \"restart_ok\": " << (pt.restart_ok ? "true" : "false") << "}";
  }
  json << "],\n"
       << "  \"rebuild\": {\"erasure_moved_bytes\": " << rbe.moved_bytes
       << ", \"erasure_healed_chunks\": " << rbe.healed_chunks
       << ", \"erasure_rebuilt_fragments\": " << rbe.rebuilt_fragments
       << ", \"erasure_moved_per_chunk\": " << rbe.moved_per_chunk
       << ", \"replication_moved_bytes\": " << rbr.moved_bytes
       << ", \"replication_healed_chunks\": " << rbr.healed_chunks
       << ", \"replication_moved_per_chunk\": " << rbr.moved_per_chunk
       << ", \"per_chunk_ratio\": " << rebuild_ratio
       << ", \"erasure_post_heal_lost_chunks\": " << rbe.lost_chunks
       << ", \"replication_post_heal_lost_chunks\": " << rbr.lost_chunks
       << "},\n"
       << "  \"tiering\": {\"demoted_chunks\": " << tier.demoted_chunks
       << ", \"demoted_bytes\": " << tier.demoted_bytes
       << ", \"stored_after_bytes\": " << tier.stored_after
       << ", \"restart_ok\": " << (tier.restart_ok ? "true" : "false")
       << "},\n"
       << "  \"summary\": {\"overhead_ratio\": " << ov.overhead_ratio
       << ", \"rebuild_per_chunk_ratio\": " << rebuild_ratio
       << ", \"sweep_max_lost_chunks\": " << sweep_max_lost
       << ", \"sweep_all_restarts_ok\": " << (sweep_ok ? "true" : "false")
       << ", \"restart_seconds_at_max_losses\": "
       << sweep.back().restart_seconds
       << ", \"demoted_chunks\": " << tier.demoted_chunks << "}\n}\n";

  std::printf("wrote BENCH_erasure.json\n");
  return 0;
}
