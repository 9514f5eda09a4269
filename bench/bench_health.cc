// Round-health bench: the SLO/alert layer and critical-path attribution
// under a healthy sweep and under a mid-round endpoint kill.
//
// Part A (healthy sweep): N incremental rounds over an R=2 sharded store
// with the health engine armed (--health-out + --slo). Nothing fails, so
// the deterministic gate is exact: zero alerts fired, zero active, and
// every round's critical-path report partitions its window to the
// nanosecond (critpath_sum_matches). The top-ranked blame fraction of the
// final round is exported as a stability metric the baseline diff gates.
//
// Part B (overhead): the same healthy world runs twice — health layer off,
// then on. Sampling the registry and evaluating rules at round boundaries
// posts no events and charges no simulated time, so both runs reach the
// measurement point at the same virtual instant: trace_overhead_ratio is
// 1.0 by construction, gated at <= 1.02.
//
// Part C (kill): the bench_failover scenario with rules armed — the first
// shard endpoint dies right after the drain barrier. The heal backlog
// goes nonzero at the round's close, so the drain rule fires exactly
// {heal_backlog} (parked_requests is back to zero by refill — replay
// completed inside the round — so that rule stays quiet), and the alert
// clears within the gated window once the re-replication daemon drains
// the backlog. A restart closes the loop with zero lost chunks.
//
// Emits BENCH_health.json plus the health/trace artifact pairs
// BENCH_health_doc.json + BENCH_health_trace.json (healthy sweep) and
// BENCH_health_kill_doc.json + BENCH_health_kill_trace.json (kill run),
// cross-checked by tools/trace_report.py --critical-path in CI.
//
// Knobs: DSIM_HEALTH_RANKS (4), DSIM_HEALTH_LIB_MB (2),
// DSIM_HEALTH_PRIV_MB (1), DSIM_HEALTH_ROUNDS (4).
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ckptstore/service.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

using namespace dsim;
using namespace dsim::bench;

namespace {

constexpr int kStoreNodes = 2;
constexpr int kShards = 2;

// Generous bounds a healthy smoke run can never trip; the drain rule is
// the one the kill run is designed to fire.
constexpr const char* kRules =
    "pause: pause_seconds <= 120; "
    "parked: parked_requests == 0; "
    "heal_backlog: drain(degraded_chunks, 0); "
    "pause_burn: burn(pause_seconds > 120, 8) <= 0.25";

core::DmtcpOptions health_opts(int ranks, bool armed, const char* tag) {
  core::DmtcpOptions opts;
  opts.incremental = true;
  opts.codec = compress::CodecKind::kNone;
  opts.chunking = ckptstore::ChunkingMode::kCdc;
  opts.cdc_min_bytes = 4 * 1024;
  opts.cdc_avg_bytes = 16 * 1024;
  opts.cdc_max_bytes = 64 * 1024;
  opts.dedup_scope = core::DedupScope::kCluster;
  opts.chunk_replicas = 2;
  opts.store_node = ranks;
  opts.store_shards = kShards;
  if (armed) {
    opts.health_out = std::string("BENCH_health_") + tag + "_doc.json";
    opts.trace_out = std::string("BENCH_health_") + tag + "_trace.json";
    opts.slo = kRules;
  }
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

void touch_ranks(World& w, const std::vector<Pid>& pids, u64 priv_bytes,
                 u64 salt) {
  for (size_t n = 0; n < pids.size(); ++n) {
    sim::Process* p = w.k().find_process(pids[n]);
    auto* seg = p->mem().find("private");
    seg->data.fill(0, priv_bytes, sim::ExtentKind::kRand,
                   salt + static_cast<u64>(n));
  }
}

struct HealthyRun {
  double sim_seconds = 0;  // virtual clock at the fixed measurement point
  int rounds = 0;
  u64 alerts_fired = 0;
  size_t active_alerts = 0;
  size_t series_rounds = 0;
  int critpath_rounds_checked = 0;
  bool critpath_sum_matches = true;
  std::string top_stage;
  double top_fraction = 0;
};

/// N clean incremental rounds; with `armed` the health layer samples every
/// boundary and flushes the doc + trace artifacts at the end.
HealthyRun run_healthy(bool armed, int ranks, int rounds, u64 lib_bytes,
                       u64 priv_bytes) {
  HealthyRun res;
  World w(ranks + kStoreNodes, health_opts(ranks, armed, "healthy"), 0x6EA1);
  const std::vector<Pid> pids = launch_ranks(w, ranks, lib_bytes, priv_bytes);
  for (int r = 0; r < rounds; ++r) {
    w.ctl->checkpoint_now();
    touch_ranks(w, pids, priv_bytes, 0x500 + static_cast<u64>(r) * 0x10);
  }
  res.rounds = rounds;

  // Quiesce so every span closes, then read the fixed measurement point —
  // identical for the armed and unarmed runs iff the health layer charged
  // no simulated time.
  w.ctl->shared().membership->stop();
  w.ctl->run_for(200 * timeconst::kMillisecond);
  res.sim_seconds = to_seconds(w.k().loop().now());

  if (armed) {
    // Without the tracer there is no span timeline to sweep; rounds carry
    // empty reports in the unarmed run, so the exactness check is
    // armed-only.
    for (const core::CkptRound& r : w.ctl->stats().rounds) {
      if (r.refilled == 0) continue;
      res.critpath_rounds_checked++;
      if (r.critical_path.attributed_ns() != r.refilled - r.requested) {
        res.critpath_sum_matches = false;
      }
    }
    const core::CkptRound& last = w.ctl->stats().rounds.back();
    if (!last.critical_path.entries.empty()) {
      res.top_stage = last.critical_path.entries.front().stage;
      res.top_fraction = last.critical_path.fraction(0);
    }
    const auto& sh = w.ctl->shared();
    res.alerts_fired = sh.slo_engine->alerts_fired();
    res.active_alerts = sh.slo_engine->active().size();
    res.series_rounds = sh.health_series->size();
    w.ctl->flush_observability();
  }
  return res;
}

struct KillRun {
  std::vector<std::string> fired;  // rule names, fire order
  i64 fired_round = -1;
  i64 cleared_round = -1;
  int clear_rounds = 0;  // extra rounds until the alert set drained
  bool cleared = true;
  u64 lost_chunks = 0;
  bool restart_ok = false;
  std::string kill_top_stage;
  double kill_top_fraction = 0;
};

/// bench_failover's mid-round endpoint kill with the rules armed: the
/// heal-backlog drain rule must fire at the kill round's close and clear
/// once re-replication drains.
KillRun run_kill(int ranks, u64 lib_bytes, u64 priv_bytes) {
  KillRun res;
  World w(ranks + kStoreNodes, health_opts(ranks, /*armed=*/true, "kill"),
          0xFA11);
  launch_ranks(w, ranks, lib_bytes, priv_bytes);
  w.ctl->checkpoint_now();
  w.ctl->checkpoint_now();

  auto& svc = *w.ctl->shared().store_service;
  const NodeId victim = svc.endpoints().front();
  const size_t round_idx = w.ctl->stats().rounds.size();
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

  auto* engine = w.ctl->shared().slo_engine.get();
  for (const obs::AlertEvent& ev : engine->events()) {
    if (ev.fired) {
      res.fired.push_back(ev.rule);
      if (res.fired_round < 0) res.fired_round = ev.round;
    }
  }
  const core::CkptRound& kill_round = w.ctl->stats().rounds[round_idx];
  if (!kill_round.critical_path.entries.empty()) {
    res.kill_top_stage = kill_round.critical_path.entries.front().stage;
    res.kill_top_fraction = kill_round.critical_path.fraction(0);
  }

  // Clears only happen at round boundaries (the engine samples there), so
  // drive extra rounds until the active set drains.
  while (!engine->active().empty() && res.clear_rounds < 5) {
    w.ctl->run_for(250 * timeconst::kMillisecond);
    w.ctl->checkpoint_now();
    res.clear_rounds++;
  }
  res.cleared = engine->active().empty();
  for (const obs::AlertEvent& ev : engine->events()) {
    if (!ev.fired) res.cleared_round = ev.round;
  }
  res.lost_chunks = svc.placement().lost_chunks();

  w.ctl->kill_computation();
  const auto& rr = w.ctl->restart();
  res.restart_ok = !rr.needs_restore && rr.procs == ranks;
  w.ctl->shared().membership->stop();
  w.ctl->run_for(200 * timeconst::kMillisecond);
  w.ctl->flush_observability();
  return res;
}

std::string json_list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", \"" : "\"") + v[i] + "\"";
  }
  return out + "]";
}

}  // namespace

int main() {
  const int ranks = env_int("DSIM_HEALTH_RANKS", 4);
  const int rounds = env_int("DSIM_HEALTH_ROUNDS", 4);
  const u64 lib_bytes =
      static_cast<u64>(env_int("DSIM_HEALTH_LIB_MB", 2)) * 1024 * 1024;
  const u64 priv_bytes =
      static_cast<u64>(env_int("DSIM_HEALTH_PRIV_MB", 1)) * 1024 * 1024;

  const HealthyRun off =
      run_healthy(/*armed=*/false, ranks, rounds, lib_bytes, priv_bytes);
  const HealthyRun on =
      run_healthy(/*armed=*/true, ranks, rounds, lib_bytes, priv_bytes);
  const double overhead_ratio =
      off.sim_seconds > 0 ? on.sim_seconds / off.sim_seconds : 0;

  std::printf(
      "healthy: %d rounds, %llu alerts fired, %zu active, series %zu "
      "rounds, critpath %d/%d exact, top blame %s = %.1f%%\n",
      on.rounds, static_cast<unsigned long long>(on.alerts_fired),
      on.active_alerts, on.series_rounds,
      on.critpath_sum_matches ? on.critpath_rounds_checked : 0,
      on.critpath_rounds_checked, on.top_stage.c_str(),
      on.top_fraction * 100.0);
  std::printf("overhead: off %.6f s, on %.6f s, ratio %.6f\n",
              off.sim_seconds, on.sim_seconds, overhead_ratio);

  const KillRun kill = run_kill(ranks, lib_bytes, priv_bytes);
  const bool kill_alert_set_ok =
      std::set<std::string>(kill.fired.begin(), kill.fired.end()) ==
      std::set<std::string>{"heal_backlog"};
  std::printf(
      "kill: fired %s at round %lld, cleared %s after %d round(s), "
      "%llu lost, restart %s, kill-round top blame %s = %.1f%%\n",
      json_list(kill.fired).c_str(),
      static_cast<long long>(kill.fired_round),
      kill.cleared ? "yes" : "NO", kill.clear_rounds,
      static_cast<unsigned long long>(kill.lost_chunks),
      kill.restart_ok ? "ok" : "FAILED", kill.kill_top_stage.c_str(),
      kill.kill_top_fraction * 100.0);

  const bool sum_matches = on.critpath_sum_matches && off.critpath_sum_matches;
  std::ofstream json("BENCH_health.json");
  json << "{\n  \"config\": {\"ranks\": " << ranks
       << ", \"rounds\": " << rounds << ", \"lib_bytes\": " << lib_bytes
       << ", \"priv_bytes\": " << priv_bytes
       << ", \"store_nodes\": " << kStoreNodes
       << ", \"shards\": " << kShards << "},\n"
       << "  \"healthy\": {\"rounds\": " << on.rounds
       << ", \"alerts_fired\": " << on.alerts_fired
       << ", \"active_alerts\": " << on.active_alerts
       << ", \"series_rounds\": " << on.series_rounds
       << ", \"critpath_rounds_checked\": " << on.critpath_rounds_checked
       << ", \"critpath_sum_matches\": "
       << (sum_matches ? "true" : "false")
       << ", \"top_stage\": \"" << on.top_stage << "\""
       << ", \"top_fraction\": " << on.top_fraction << "},\n"
       << "  \"overhead\": {\"health_off_sim_seconds\": " << off.sim_seconds
       << ", \"health_on_sim_seconds\": " << on.sim_seconds
       << ", \"trace_overhead_ratio\": " << overhead_ratio << "},\n"
       << "  \"kill\": {\"alerts\": " << json_list(kill.fired)
       << ", \"fired_round\": " << kill.fired_round
       << ", \"cleared_round\": " << kill.cleared_round
       << ", \"clear_rounds\": " << kill.clear_rounds
       << ", \"cleared\": " << (kill.cleared ? "true" : "false")
       << ", \"alert_set_ok\": " << (kill_alert_set_ok ? "true" : "false")
       << ", \"kill_top_stage\": \"" << kill.kill_top_stage << "\""
       << ", \"kill_top_fraction\": " << kill.kill_top_fraction
       << ", \"lost_chunks\": " << kill.lost_chunks
       << ", \"restart_ok\": " << (kill.restart_ok ? "true" : "false")
       << "},\n"
       << "  \"summary\": {\"healthy_alerts\": " << on.alerts_fired
       << ", \"kill_alert_set_ok\": "
       << (kill_alert_set_ok ? "true" : "false")
       << ", \"clear_rounds\": " << kill.clear_rounds
       << ", \"trace_overhead_ratio\": " << overhead_ratio
       << ", \"critpath_top_fraction\": " << on.top_fraction
       << ", \"critpath_sum_matches\": "
       << (sum_matches ? "true" : "false") << "}\n}\n";

  std::printf(
      "wrote BENCH_health.json, BENCH_health_healthy_doc.json, "
      "BENCH_health_healthy_trace.json, BENCH_health_kill_doc.json, "
      "BENCH_health_kill_trace.json\n");
  return (kill_alert_set_ok && kill.cleared && sum_matches) ? 0 : 1;
}
