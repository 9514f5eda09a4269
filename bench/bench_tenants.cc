// Multi-tenant serving: two computations sharing one chunk-store service,
// with weighted fair queueing isolating the victim from a noisy neighbor.
//
// Three arms over the same world shape — `ranks` noisy nodes (tenant 1),
// one victim node (tenant 2, weight 4), dedicated store node, one shard so
// every request crosses the same queue:
//   - solo: the victim checkpoints alone (its own self-backlog + RPC floor
//     is the baseline p99);
//   - fq: the noisy tenant checkpoints concurrently (a dedup-probe storm
//     that backs up the shard queue) with DRR fair queueing on — the
//     victim's probe round rides its own weighted grant and its p99 stays
//     within 2x of solo;
//   - nofq: the ablation. Same storm through the legacy FIFO — the
//     victim's probes queue behind the storm's backlog and p99 degrades
//     >= 4x.
// The fq arm also reports cross-tenant dedup (both tenants map the same
// shared-library ballast; the repository stores those chunks once and
// attributes them to the {t1,t2} group) and a victim-only kill + restart
// beside the live neighbor (zero lost chunks). A separate two-rank world
// gives the noisy tenant a small in-flight byte budget and shows admission
// control holding over-budget stores at the tenant edge.
//
// Emits BENCH_tenants.json (checked by the CI bench-smoke job).
//
// Knobs: DSIM_TEN_RANKS (8), DSIM_TEN_LIB_MB (2), DSIM_TEN_PRIV_MB (32),
// DSIM_TEN_VIC_KB (768).
#include <algorithm>
#include <fstream>
#include <vector>

#include "bench/bench_util.h"
#include "ckptstore/repository.h"
#include "ckptstore/service.h"
#include "obs/metrics.h"

using namespace dsim;
using namespace dsim::bench;

namespace {

/// The service endpoint gets its own node (co-locating it with a rank
/// couples the victim's waits to that rank's NIC bursts).
constexpr int kStoreNodes = 1;

core::DmtcpOptions tenant_opts(int tenant, u16 coord_port, int store_node,
                               bool fair_queueing) {
  core::DmtcpOptions o;
  o.incremental = true;
  o.codec = compress::CodecKind::kNone;  // exact byte accounting
  o.chunking = ckptstore::ChunkingMode::kCdc;
  o.cdc_min_bytes = 4 * 1024;
  o.cdc_avg_bytes = 16 * 1024;
  o.cdc_max_bytes = 64 * 1024;
  o.dedup_scope = core::DedupScope::kCluster;
  o.store_node = store_node;
  o.store_shards = 1;  // one queue: the contention this bench isolates
  // Batched probes keep the per-message RPC dispatch cost (which is
  // FIFO at the endpoint) negligible next to index-queue occupancy, so
  // the isolation contrast measures the queue policy itself.
  o.lookup_batch = 16;
  o.fair_queueing = fair_queueing;
  o.tenant_id = tenant;
  o.coord_port = coord_port;
  o.ckpt_dir = "/ckpt/t" + std::to_string(tenant);
  return o;
}

/// Two computations on one kernel: `host` (tenant 1) owns the service,
/// `guest` (tenant 2) attaches to it.
struct TenantWorld {
  sim::Cluster cluster;
  core::DmtcpControl host;
  core::DmtcpControl guest;
  TenantWorld(int nodes, core::DmtcpOptions host_opts,
              core::DmtcpOptions guest_opts, u64 seed)
      : cluster([&] {
          auto cfg = sim::Cluster::lab_cluster(nodes);
          cfg.seed = seed;
          cfg.jitter_sigma = sim::params::kJitterSigma;
          return cfg;
        }()),
        host(cluster.kernel(), host_opts),
        guest(host, guest_opts) {
    apps::register_desktop_programs(cluster.kernel());
  }
  sim::Kernel& k() { return cluster.kernel(); }
};

Pid launch_app(core::DmtcpControl& ctl, NodeId node, const std::string& tag) {
  const std::string prof = apps::desktop_profiles().front().name;
  return ctl.launch(node, "desktop_app", {prof, "0", tag});
}

void add_ballast(sim::Kernel& k, Pid pid, const std::string& name,
                 sim::MemKind kind, u64 bytes, u64 seed) {
  sim::Process* p = k.find_process(pid);
  auto& seg = p->mem().add(name, kind, bytes);
  seg.data.fill(0, bytes, sim::ExtentKind::kRand, seed);
}

// Probe windows snapshot the tenant's wait histogram before the measured
// phase and read the delta after; the delta's quantiles are bucketed
// (<= 0.4% relative error), well inside the baseline tolerance.

struct ArmResult {
  double victim_p99_ms = 0;
  double victim_avg_ms = 0;
  u64 victim_samples = 0;
  double victim_ckpt_seconds = 0;
  double storm_ckpt_seconds = 0;  // 0 in the solo arm
  u64 cross_tenant_shared_bytes = 0;
  bool restart_ok = false;
  double restart_seconds = 0;
  u64 lost_chunks = 0;
};

/// One full arm: warm both tenants to a resident generation, then measure
/// the victim's probe-only round — alone, or beside the noisy tenant's
/// concurrent probe storm.
ArmResult run_arm(bool storm, bool fair_queueing, int ranks, u64 lib_bytes,
                  u64 priv_bytes, u64 victim_bytes, bool measure_restart) {
  const int store_node = ranks + 1;
  TenantWorld w(ranks + 1 + kStoreNodes,
                tenant_opts(1, 7779, store_node, fair_queueing),
                tenant_opts(2, 7791, store_node, fair_queueing),
                0x7e2a);
  // The victim's weight is the QoS knob under test: 4x the storm's share.
  w.guest.shared().opts.tenant_weight = 4.0;
  w.host.shared().store_service->tenants().configure(
      2, {/*weight=*/4.0, /*inflight_budget_bytes=*/0,
          /*hot_generations=*/0});

  std::vector<Pid> noisy;
  for (int n = 0; n < ranks; ++n) {
    std::string tag = "p";
    tag += std::to_string(n);
    noisy.push_back(launch_app(w.host, n, tag));
  }
  const Pid victim = launch_app(w.guest, ranks, "victim");
  w.host.run_for(50 * timeconst::kMillisecond);
  for (int n = 0; n < ranks; ++n) {
    add_ballast(w.k(), noisy[static_cast<size_t>(n)], "libshared",
                sim::MemKind::kLib, lib_bytes, 0x11B);
    add_ballast(w.k(), noisy[static_cast<size_t>(n)], "private",
                sim::MemKind::kHeap, priv_bytes,
                0xB0 + static_cast<u64>(n));
  }
  add_ballast(w.k(), victim, "libshared", sim::MemKind::kLib, lib_bytes,
              0x11B);
  add_ballast(w.k(), victim, "private", sim::MemKind::kHeap, victim_bytes,
              0x71C);

  // Warm generation: both tenants' chunks become resident. Rewriting every
  // page in place (same content) makes the measured rounds pure dedup-probe
  // traffic — a page the process did not write needs no probe — the
  // contention that matters at the shard queue: probe
  // requests are light on the wire (a header + key) but each occupies a
  // full index probe of queue service, so the storm's arrival rate far
  // outruns the drain rate and a real backlog forms.
  w.host.checkpoint_now();
  w.guest.checkpoint_now();
  for (const Pid pid : noisy) rewrite_in_place(w.k(), pid);
  rewrite_in_place(w.k(), victim);

  auto& svc = *w.host.shared().store_service;
  if (storm) {
    // Fire the storm and let it through its suspend/drain stages so the
    // victim's probe window lands inside the storm's bulk-store phase.
    w.host.request_checkpoint();
    w.host.run_for(30 * timeconst::kMillisecond);
  }
  const obs::Histogram wait_before = svc.tenants().stats(2).wait;
  w.guest.checkpoint_now();
  if (storm) {
    w.host.run_until(
        [&] {
          const auto& rounds = w.host.stats().rounds;
          return rounds.size() >= 2 && rounds.back().refilled != 0;
        },
        300 * timeconst::kSecond);
  }

  ArmResult r;
  const obs::Histogram window =
      svc.tenants().stats(2).wait.delta_since(wait_before);
  r.victim_p99_ms = window.quantile(0.99) * 1e3;
  r.victim_avg_ms = window.mean() * 1e3;
  r.victim_samples = window.count();
  r.victim_ckpt_seconds = w.guest.stats().rounds.back().total_seconds();
  if (storm) {
    r.storm_ckpt_seconds = w.host.stats().rounds.back().total_seconds();
  }
  const auto by_group = svc.repo().shared_bytes_by_group();
  const auto it = by_group.find({"t1", "t2"});
  if (it != by_group.end()) r.cross_tenant_shared_bytes = it->second;
  if (measure_restart) {
    // Victim-only kill + restart beside the live neighbor: the restart
    // fetches ride the strict-priority band and read every chunk back.
    w.guest.kill_computation();
    const auto& rr = w.guest.restart();
    r.restart_ok = !rr.needs_restore && rr.procs == 1;
    r.restart_seconds = rr.total_seconds();
    r.lost_chunks = rr.lost_chunks;
  }
  return r;
}

struct AdmissionResult {
  u64 budget_bytes = 0;
  u64 held_requests = 0;
  double wait_seconds = 0;
};

/// A small world where the noisy tenant gets a tight in-flight byte
/// budget: its first (store-heavy) round shows holds at the tenant edge.
AdmissionResult run_admission(u64 lib_bytes, u64 priv_bytes) {
  constexpr u64 kBudget = 256 * 1024;
  const int ranks = 2;
  auto host_opts = tenant_opts(1, 7779, ranks + 1, /*fair_queueing=*/true);
  host_opts.tenant_budget_bytes = kBudget;
  TenantWorld w(ranks + 1 + kStoreNodes, host_opts,
                tenant_opts(2, 7791, ranks + 1, /*fair_queueing=*/true),
                0xad31);
  std::vector<Pid> noisy;
  for (int n = 0; n < ranks; ++n) {
    std::string tag = "p";
    tag += std::to_string(n);
    noisy.push_back(launch_app(w.host, n, tag));
  }
  w.host.run_for(50 * timeconst::kMillisecond);
  for (int n = 0; n < ranks; ++n) {
    add_ballast(w.k(), noisy[static_cast<size_t>(n)], "libshared",
                sim::MemKind::kLib, lib_bytes, 0x11B);
    add_ballast(w.k(), noisy[static_cast<size_t>(n)], "private",
                sim::MemKind::kHeap, priv_bytes,
                0xB0 + static_cast<u64>(n));
  }
  const auto& round = w.host.checkpoint_now();
  AdmissionResult a;
  a.budget_bytes = kBudget;
  a.held_requests = round.delta.counter("store.admission_held_requests");
  a.wait_seconds = round.delta.histogram("store.admission_wait").sum();
  return a;
}

}  // namespace

int main() {
  const int ranks = env_int("DSIM_TEN_RANKS", 8);
  const u64 lib_bytes =
      static_cast<u64>(env_int("DSIM_TEN_LIB_MB", 2)) * 1024 * 1024;
  const u64 priv_bytes =
      static_cast<u64>(env_int("DSIM_TEN_PRIV_MB", 32)) * 1024 * 1024;
  const u64 victim_bytes =
      static_cast<u64>(env_int("DSIM_TEN_VIC_KB", 768)) * 1024;

  const ArmResult solo =
      run_arm(/*storm=*/false, /*fair_queueing=*/true, ranks, lib_bytes,
              priv_bytes, victim_bytes, /*measure_restart=*/false);
  const ArmResult fq =
      run_arm(/*storm=*/true, /*fair_queueing=*/true, ranks, lib_bytes,
              priv_bytes, victim_bytes, /*measure_restart=*/true);
  const ArmResult nofq =
      run_arm(/*storm=*/true, /*fair_queueing=*/false, ranks, lib_bytes,
              priv_bytes, victim_bytes, /*measure_restart=*/false);

  Table t({"arm", "victim_p99_ms", "victim_avg_ms", "samples",
           "victim_ckpt_s", "storm_ckpt_s"});
  const auto row = [&](const char* name, const ArmResult& r) {
    t.add_row({name, Table::fmt(r.victim_p99_ms, 3),
               Table::fmt(r.victim_avg_ms, 3),
               Table::fmt(static_cast<double>(r.victim_samples), 0),
               Table::fmt(r.victim_ckpt_seconds),
               Table::fmt(r.storm_ckpt_seconds)});
  };
  row("solo", solo);
  row("fq", fq);
  row("nofq", nofq);
  t.print("Victim-tenant lookup p99 beside a noisy neighbor: solo vs fair "
          "queueing vs FIFO ablation");

  const AdmissionResult adm = run_admission(lib_bytes, priv_bytes);

  const double fq_ratio =
      solo.victim_p99_ms > 0 ? fq.victim_p99_ms / solo.victim_p99_ms : 0;
  const double nofq_ratio =
      solo.victim_p99_ms > 0 ? nofq.victim_p99_ms / solo.victim_p99_ms : 0;
  std::printf("fq p99 %.3f ms (%.2fx solo), nofq p99 %.3f ms (%.2fx solo); "
              "cross-tenant dedup %llu bytes; victim restart %s "
              "(%llu chunks lost); admission held %llu stores "
              "(%.3f s total wait)\n",
              fq.victim_p99_ms, fq_ratio, nofq.victim_p99_ms, nofq_ratio,
              static_cast<unsigned long long>(fq.cross_tenant_shared_bytes),
              fq.restart_ok ? "ok" : "FAILED",
              static_cast<unsigned long long>(fq.lost_chunks),
              static_cast<unsigned long long>(adm.held_requests),
              adm.wait_seconds);

  std::ofstream json("BENCH_tenants.json");
  const auto arm_json = [&](const char* name, const ArmResult& r,
                            bool comma) {
    json << "    {\"name\": \"" << name
         << "\", \"victim_p99_ms\": " << r.victim_p99_ms
         << ", \"victim_samples\": " << r.victim_samples
         << ", \"victim_ckpt_seconds\": " << r.victim_ckpt_seconds
         << ", \"storm_ckpt_seconds\": " << r.storm_ckpt_seconds << "}"
         << (comma ? "," : "") << "\n";
  };
  json << "{\n  \"config\": {\"ranks\": " << ranks
       << ", \"lib_bytes\": " << lib_bytes
       << ", \"priv_bytes\": " << priv_bytes
       << ", \"victim_bytes\": " << victim_bytes << "},\n  \"arms\": [\n";
  arm_json("solo", solo, true);
  arm_json("fq", fq, true);
  arm_json("nofq", nofq, false);
  json << "  ],\n  \"dedup\": {\"cross_tenant_shared_bytes\": "
       << fq.cross_tenant_shared_bytes
       << "},\n  \"restart\": {\"ok\": " << (fq.restart_ok ? "true" : "false")
       << ", \"seconds\": " << fq.restart_seconds
       << ", \"lost_chunks\": " << fq.lost_chunks
       << "},\n  \"admission\": {\"budget_bytes\": " << adm.budget_bytes
       << ", \"held_requests\": " << adm.held_requests
       << ", \"wait_seconds\": " << adm.wait_seconds
       << "},\n  \"summary\": {\"solo_p99_ms\": " << solo.victim_p99_ms
       << ", \"fq_p99_ms\": " << fq.victim_p99_ms
       << ", \"nofq_p99_ms\": " << nofq.victim_p99_ms
       << ", \"fq_ratio\": " << fq_ratio
       << ", \"nofq_ratio\": " << nofq_ratio
       << ", \"fq_isolation_holds\": " << (fq_ratio <= 2.0 ? "true" : "false")
       << ", \"nofq_degrades\": "
       << (nofq_ratio >= 4.0 && nofq.victim_p99_ms > fq.victim_p99_ms
               ? "true"
               : "false")
       << ", \"cross_tenant_shared_bytes\": " << fq.cross_tenant_shared_bytes
       << ", \"lost_chunks\": " << fq.lost_chunks << "}\n}\n";

  std::printf("wrote BENCH_tenants.json\n");
  return 0;
}
