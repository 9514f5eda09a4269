// Cluster membership & shard failover under fire: the kill-mid-round sweep.
//
// Part A (failover): N ranks on N nodes checkpoint into a chunk store
// sharded across dedicated store nodes (R=2). The first round is the clean
// baseline. In the second round, the first shard endpoint's node is killed
// right after the drain barrier — the moment the write phase floods the
// shard queues. The membership service detects the silence (heartbeat
// misses), the chunk-store service re-homes the shard to the next live node
// in its rendezvous order, and the parked in-flight requests replay there:
// the round completes with elevated latency and zero caller-visible errors.
// Reported: the kill round's time vs baseline, shards re-homed, requests
// parked/replayed, rounds until the store is back at full replica strength
// (recovery_rounds), post-failover lost chunks (must be 0), and whether a
// subsequent restart succeeds reading only surviving replicas.
//
// Part B (rebalance): a fresh world checkpoints at S shards, then the shard
// count grows to S+1 between rounds. Consistent hashing (rendezvous over
// shard ids) moves exactly the keys whose winner changed — measured as the
// moved-bytes fraction, which must sit near 1/(S+1) — through batched
// metadata RPCs on the normal queues. A second round and a restart over the
// rebalanced store close the loop.
//
// Emits BENCH_failover.json (checked by the CI bench-smoke job).
//
// Knobs: DSIM_FO_RANKS (4), DSIM_FO_LIB_MB (2), DSIM_FO_PRIV_MB (1).
#include <fstream>
#include <vector>

#include "bench/bench_util.h"
#include "ckptstore/service.h"

using namespace dsim;
using namespace dsim::bench;

namespace {

constexpr int kStoreNodes = 2;
constexpr int kShards = 2;
constexpr int kRebalanceFrom = 3;
constexpr int kRebalanceTo = 4;

core::DmtcpOptions failover_opts(int ranks, int shards, int store_nodes) {
  core::DmtcpOptions opts;
  opts.incremental = true;
  opts.codec = compress::CodecKind::kNone;  // exact byte accounting
  opts.chunking = ckptstore::ChunkingMode::kCdc;
  opts.cdc_min_bytes = 4 * 1024;
  opts.cdc_avg_bytes = 16 * 1024;
  opts.cdc_max_bytes = 64 * 1024;
  opts.dedup_scope = core::DedupScope::kCluster;
  opts.chunk_replicas = 2;
  opts.store_node = ranks;  // first dedicated store node
  opts.store_shards = shards;
  (void)store_nodes;
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
                   0xB0 + static_cast<u64>(n));
  }
  return pids;
}

struct FailoverResult {
  double baseline_ckpt_seconds = 0;
  double kill_ckpt_seconds = 0;
  u64 rehomed_shards = 0;
  u64 replayed_requests = 0;
  u64 parked_requests = 0;
  int recovery_rounds = 0;  // rounds from the kill until degraded == 0
  u64 lost_chunks = 0;
  bool restart_ok = false;
};

FailoverResult run_failover(int ranks, u64 lib_bytes, u64 priv_bytes) {
  FailoverResult fr;
  World w(ranks + kStoreNodes, failover_opts(ranks, kShards, kStoreNodes),
          0xFA11);
  const std::vector<Pid> pids = launch_ranks(w, ranks, lib_bytes, priv_bytes);

  // Round 1 populates the store (every chunk is a store); round 2 is the
  // clean *incremental* baseline the kill round is compared against —
  // comparing the kill round to the populate round would hide the failover
  // cost inside the store-vs-lookup difference. Before rounds 2 and 3 every
  // rank rewrites its pages in place, so their write phases probe every
  // chunk: a page a process did not write needs no Lookup.
  w.ctl->checkpoint_now();
  for (const Pid pid : pids) rewrite_in_place(w.k(), pid);
  fr.baseline_ckpt_seconds = w.ctl->checkpoint_now().total_seconds();

  auto& svc = *w.ctl->shared().store_service;
  const NodeId victim = svc.endpoints().front();

  // Round 3: kill the first shard endpoint right after the drain barrier —
  // the write phase is flooding the shard queues as the node goes dark.
  const size_t round_idx = w.ctl->stats().rounds.size();
  for (const Pid pid : pids) rewrite_in_place(w.k(), pid);
  w.ctl->request_checkpoint();
  w.ctl->run_until(
      [&] {
        return w.ctl->stats().rounds.size() > round_idx &&
               w.ctl->stats().rounds[round_idx].drained != 0;
      },
      w.k().loop().now() + 120 * timeconst::kSecond);
  svc.fail_node(victim);
  w.ctl->run_until(
      [&] { return w.ctl->stats().rounds[round_idx].refilled != 0; },
      w.k().loop().now() + 120 * timeconst::kSecond);
  const core::CkptRound& kill_round = w.ctl->stats().rounds[round_idx];
  fr.kill_ckpt_seconds = kill_round.total_seconds();
  fr.rehomed_shards = kill_round.delta.counter("store.rehomed_shards");
  fr.replayed_requests = kill_round.delta.counter("store.replayed_requests");
  fr.parked_requests = svc.stats().parked_requests;

  // Recovery: rounds (beyond the kill round) until every chunk is back at
  // full replica strength. The heal daemon drains in the background, so a
  // healthy configuration recovers within the kill round or the next one.
  fr.recovery_rounds = 0;
  while (svc.placement().degraded_count() > 0 && fr.recovery_rounds < 5) {
    w.ctl->run_for(250 * timeconst::kMillisecond);
    if (svc.placement().degraded_count() == 0) break;
    w.ctl->checkpoint_now();
    fr.recovery_rounds++;
  }
  fr.lost_chunks = svc.placement().lost_chunks();

  w.ctl->kill_computation();
  const auto& rr = w.ctl->restart();
  fr.restart_ok = !rr.needs_restore && rr.procs == ranks;
  return fr;
}

struct RebalanceResult {
  int old_shards = kRebalanceFrom;
  int new_shards = kRebalanceTo;
  u64 moved_keys = 0;
  u64 scanned_keys = 0;
  u64 moved_bytes = 0;
  u64 scanned_bytes = 0;
  double moved_fraction = 0;
  double expected_fraction = 1.0 / kRebalanceTo;
  double rebalance_seconds = 0;
  bool restart_ok = false;
};

RebalanceResult run_rebalance(int ranks, u64 lib_bytes, u64 priv_bytes) {
  RebalanceResult rb;
  World w(ranks + kRebalanceTo,
          failover_opts(ranks, kRebalanceFrom, kRebalanceTo), 0x4EBA);
  launch_ranks(w, ranks, lib_bytes, priv_bytes);
  w.ctl->checkpoint_now();

  auto& svc = *w.ctl->shared().store_service;
  const SimTime before = w.k().loop().now();
  w.ctl->set_store_shards(kRebalanceTo);
  rb.rebalance_seconds = to_seconds(w.k().loop().now() - before);
  const auto& ss = svc.stats();
  rb.moved_keys = ss.rebalance_moved_keys;
  rb.scanned_keys = ss.rebalance_scanned_keys;
  rb.moved_bytes = ss.rebalance_moved_bytes;
  rb.scanned_bytes = ss.rebalance_scanned_bytes;
  rb.moved_fraction =
      rb.scanned_bytes == 0
          ? 0
          : static_cast<double>(rb.moved_bytes) /
                static_cast<double>(rb.scanned_bytes);

  // The rebalanced store keeps serving: another round, then a restart.
  w.ctl->checkpoint_now();
  w.ctl->kill_computation();
  const auto& rr = w.ctl->restart();
  rb.restart_ok = !rr.needs_restore && rr.procs == ranks;
  return rb;
}

}  // namespace

int main() {
  const int ranks = env_int("DSIM_FO_RANKS", 4);
  const u64 lib_bytes =
      static_cast<u64>(env_int("DSIM_FO_LIB_MB", 2)) * 1024 * 1024;
  const u64 priv_bytes =
      static_cast<u64>(env_int("DSIM_FO_PRIV_MB", 1)) * 1024 * 1024;

  const FailoverResult fr = run_failover(ranks, lib_bytes, priv_bytes);
  std::printf(
      "failover: baseline %.3f s, kill-mid-round %.3f s (%llu shard(s) "
      "re-homed, %llu replayed), recovery %d round(s), %llu lost, restart "
      "%s\n",
      fr.baseline_ckpt_seconds, fr.kill_ckpt_seconds,
      static_cast<unsigned long long>(fr.rehomed_shards),
      static_cast<unsigned long long>(fr.replayed_requests),
      fr.recovery_rounds, static_cast<unsigned long long>(fr.lost_chunks),
      fr.restart_ok ? "ok" : "FAILED");

  const RebalanceResult rb = run_rebalance(ranks, lib_bytes, priv_bytes);
  std::printf(
      "rebalance %d -> %d shards: %llu/%llu keys moved (%.3f of bytes, "
      "expect ~%.3f) in %.3f s, restart %s\n",
      rb.old_shards, rb.new_shards,
      static_cast<unsigned long long>(rb.moved_keys),
      static_cast<unsigned long long>(rb.scanned_keys), rb.moved_fraction,
      rb.expected_fraction, rb.rebalance_seconds,
      rb.restart_ok ? "ok" : "FAILED");

  std::ofstream json("BENCH_failover.json");
  json << "{\n  \"config\": {\"ranks\": " << ranks
       << ", \"lib_bytes\": " << lib_bytes
       << ", \"priv_bytes\": " << priv_bytes
       << ", \"store_nodes\": " << kStoreNodes
       << ", \"shards\": " << kShards << "},\n"
       << "  \"failover\": {\"baseline_ckpt_seconds\": "
       << fr.baseline_ckpt_seconds
       << ", \"kill_ckpt_seconds\": " << fr.kill_ckpt_seconds
       << ", \"rehomed_shards\": " << fr.rehomed_shards
       << ", \"replayed_requests\": " << fr.replayed_requests
       << ", \"parked_requests\": " << fr.parked_requests
       << ", \"recovery_rounds\": " << fr.recovery_rounds
       << ", \"lost_chunks\": " << fr.lost_chunks
       << ", \"restart_ok\": " << (fr.restart_ok ? "true" : "false")
       << "},\n"
       << "  \"rebalance\": {\"old_shards\": " << rb.old_shards
       << ", \"new_shards\": " << rb.new_shards
       << ", \"moved_keys\": " << rb.moved_keys
       << ", \"scanned_keys\": " << rb.scanned_keys
       << ", \"moved_bytes\": " << rb.moved_bytes
       << ", \"scanned_bytes\": " << rb.scanned_bytes
       << ", \"moved_fraction\": " << rb.moved_fraction
       << ", \"expected_fraction\": " << rb.expected_fraction
       << ", \"rebalance_seconds\": " << rb.rebalance_seconds
       << ", \"restart_ok\": " << (rb.restart_ok ? "true" : "false")
       << "},\n"
       << "  \"summary\": {\"failover_recovery_rounds\": "
       << fr.recovery_rounds
       << ", \"post_failover_lost_chunks\": " << fr.lost_chunks
       << ", \"failover_restart_ok\": "
       << (fr.restart_ok ? "true" : "false")
       << ", \"replayed_requests\": " << fr.replayed_requests
       << ", \"kill_overhead_ratio\": "
       << (fr.baseline_ckpt_seconds > 0
               ? fr.kill_ckpt_seconds / fr.baseline_ckpt_seconds
               : 0)
       << ", \"rebalance_moved_fraction\": " << rb.moved_fraction
       << ", \"rebalance_expected_fraction\": " << rb.expected_fraction
       << ", \"rebalance_restart_ok\": "
       << (rb.restart_ok ? "true" : "false") << "}\n}\n";

  std::printf("wrote BENCH_failover.json\n");
  return 0;
}
