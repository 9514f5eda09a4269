// Observability bench: the cost and the fidelity of request tracing.
//
// Part A (overhead): the bench_tenants noisy-neighbor storm runs twice over
// identically-seeded worlds — tracing off, then tracing on. The tracer
// never posts events or charges simulated time, so the two runs must reach
// the measurement point at the *same* virtual instant: the JSON's
// trace_overhead_ratio is gated at <= 1.02 by CI but is 1.0 exactly by
// construction.
//
// Part B (fidelity): from the traced storm, the victim tenant's probe-window
// p99 is computed two ways — from the TenantStats wait histogram (bucketed,
// <= 0.4% error) and from the trace itself (exact sort over the root spans'
// durations, expanded by batch weight). The two must agree within 1%: the
// trace carries enough to reproduce BENCH_tenants' headline number.
//
// Part C (coverage): a traced erasure + async world kills a fragment home
// and heals back to strength, counting spans per subsystem (store.*, rpc.*,
// device.*, async.*, cluster.*) and asserting the balance invariants: zero
// open spans after quiesce, zero tiling violations anywhere.
//
// Emits BENCH_obs.json plus the trace artifacts BENCH_obs_trace.json /
// BENCH_obs_metrics.json (validated by tools/trace_report.py in CI).
//
// Knobs: DSIM_OBS_RANKS (6), DSIM_OBS_LIB_MB (2), DSIM_OBS_PRIV_MB (16),
// DSIM_OBS_VIC_KB (512).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ckptasync/pipeline.h"
#include "ckptstore/service.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace dsim;
using namespace dsim::bench;

namespace {

constexpr int kStoreNodes = 1;

core::DmtcpOptions tenant_opts(int tenant, u16 coord_port, int store_node,
                               bool traced) {
  core::DmtcpOptions o;
  o.incremental = true;
  o.codec = compress::CodecKind::kNone;
  o.chunking = ckptstore::ChunkingMode::kCdc;
  o.cdc_min_bytes = 4 * 1024;
  o.cdc_avg_bytes = 16 * 1024;
  o.cdc_max_bytes = 64 * 1024;
  o.dedup_scope = core::DedupScope::kCluster;
  o.store_node = store_node;
  o.store_shards = 1;
  o.lookup_batch = 16;
  o.fair_queueing = true;
  o.tenant_id = tenant;
  o.coord_port = coord_port;
  o.ckpt_dir = "/ckpt/t" + std::to_string(tenant);
  if (traced && tenant == 1) {
    o.trace_out = "BENCH_obs_trace.json";
    o.metrics_out = "BENCH_obs_metrics.json";
  }
  return o;
}

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

struct StormRun {
  double sim_seconds = 0;  // virtual clock at the (fixed) measurement point
  double hist_p99_ms = 0;
  double trace_p99_ms = 0;
  double p99_rel_err = 0;
  u64 victim_samples = 0;
  u64 spans_total = 0;
  u64 open_spans = 0;
  u64 tiling_violations = 0;
  std::map<std::string, u64> subsystem_spans;  // span-name prefix -> count
};

std::string subsystem_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot ? std::string(name, dot) : std::string(name);
}

/// The bench_tenants fq storm arm, optionally traced: warm both tenants,
/// fire the noisy tenant's probe storm, measure the victim's probe round
/// inside it, then quiesce and read the tracer.
StormRun run_storm(bool traced, int ranks, u64 lib_bytes, u64 priv_bytes,
                   u64 victim_bytes) {
  StormRun res;
  const int store_node = ranks + 1;
  TenantWorld w(ranks + 1 + kStoreNodes,
                tenant_opts(1, 7779, store_node, traced),
                tenant_opts(2, 7791, store_node, /*traced=*/false), 0x7e2a);
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
                sim::MemKind::kHeap, priv_bytes, 0xB0 + static_cast<u64>(n));
  }
  add_ballast(w.k(), victim, "libshared", sim::MemKind::kLib, lib_bytes,
              0x11B);
  add_ballast(w.k(), victim, "private", sim::MemKind::kHeap, victim_bytes,
              0x71C);

  // Every page rewritten in place: the storm probes every chunk.
  w.host.checkpoint_now();
  w.guest.checkpoint_now();
  for (const Pid pid : noisy) rewrite_in_place(w.k(), pid);
  rewrite_in_place(w.k(), victim);

  auto& svc = *w.host.shared().store_service;
  w.host.request_checkpoint();
  w.host.run_for(30 * timeconst::kMillisecond);

  const obs::Tracer* tracer = w.host.shared().tracer.get();
  const size_t spans_before = tracer ? tracer->spans().size() : 0;
  const obs::Histogram wait_before = svc.tenants().stats(2).wait;
  w.guest.checkpoint_now();
  w.host.run_until(
      [&] {
        const auto& rounds = w.host.stats().rounds;
        return rounds.size() >= 2 && rounds.back().refilled != 0;
      },
      300 * timeconst::kSecond);

  const obs::Histogram window =
      svc.tenants().stats(2).wait.delta_since(wait_before);
  res.hist_p99_ms = window.quantile(0.99) * 1e3;
  res.victim_samples = window.count();

  if (tracer != nullptr) {
    // The trace-derived p99: every victim root span closed inside the probe
    // window (spans_ appends in close order, exactly the order the
    // histogram recorded), expanded to one sample per batched key.
    std::vector<double> samples;
    const auto& spans = tracer->spans();
    for (size_t i = spans_before; i < spans.size(); ++i) {
      const obs::SpanRecord& s = spans[i];
      if (s.tenant != 2 || s.parent != 0 || s.trace_id == 0) continue;
      if (std::strcmp(s.name, "store.lookup") != 0 &&
          std::strcmp(s.name, "store.fetch") != 0) {
        continue;
      }
      const double wait = to_seconds(s.end - s.begin);
      for (u64 k = 0; k < s.n; ++k) samples.push_back(wait);
    }
    if (!samples.empty()) {
      std::sort(samples.begin(), samples.end());
      const size_t rank = static_cast<size_t>(
          std::ceil(0.99 * static_cast<double>(samples.size())));
      res.trace_p99_ms = samples[rank - 1] * 1e3;
      res.p99_rel_err =
          std::fabs(res.hist_p99_ms - res.trace_p99_ms) / res.trace_p99_ms;
    }
  }

  // Quiesce: stop the heartbeat loop, drain in-flight probes, then the
  // open-span count must be zero (every span closed, nothing leaked).
  w.host.shared().membership->stop();
  w.host.run_for(200 * timeconst::kMillisecond);
  res.sim_seconds = to_seconds(w.k().loop().now());
  if (tracer != nullptr) {
    res.spans_total = tracer->spans().size();
    res.open_spans = tracer->open_spans();
    res.tiling_violations = tracer->tiling_violations();
    for (const obs::SpanRecord& s : tracer->spans()) {
      res.subsystem_spans[subsystem_of(s.name)]++;
    }
    w.host.flush_observability();  // BENCH_obs_trace.json + metrics
  }
  return res;
}

struct CoverageRun {
  u64 heal_spans = 0;
  u64 decode_spans = 0;
  u64 async_spans = 0;
  u64 heartbeat_spans = 0;
  u64 open_spans = 0;
  u64 tiling_violations = 0;
  bool healed = false;
};

/// Traced erasure + async-pipeline world: one generation drains through the
/// background pipeline, a fragment home dies, the heal daemon rebuilds.
CoverageRun run_coverage(int ranks, u64 lib_bytes, u64 priv_bytes) {
  CoverageRun res;
  core::DmtcpOptions o;
  o.incremental = true;
  o.ckpt_async = true;
  o.codec = compress::CodecKind::kNone;
  o.chunking = ckptstore::ChunkingMode::kCdc;
  o.cdc_min_bytes = 16 * 1024;
  o.cdc_avg_bytes = 64 * 1024;
  o.cdc_max_bytes = 256 * 1024;
  o.dedup_scope = core::DedupScope::kCluster;
  o.erasure_k = 2;
  o.erasure_m = 1;
  o.store_node = ranks;
  o.store_shards = 2;
  o.trace_out = "BENCH_obs_erasure_trace.json";
  const int nodes = ranks + 4;
  World w(nodes, o, 0x0B5E);
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
  w.ctl->checkpoint_now();
  auto pipe = w.ctl->shared().async_pipeline;
  w.ctl->run_until([&] { return pipe->idle(); },
                   w.k().loop().now() + 600 * timeconst::kSecond);
  // A fragment home dies; the heal daemon decodes from k survivors and
  // rebuilds onto fresh homes — store.heal + store.erasure_decode spans.
  auto& svc = *w.ctl->shared().store_service;
  const NodeId victim_node = static_cast<NodeId>(nodes - 1);
  svc.fail_node(victim_node);
  int waits = 0;
  while (svc.placement().degraded_count() > 0 && waits < 40) {
    w.ctl->run_for(250 * timeconst::kMillisecond);
    ++waits;
  }
  res.healed = svc.placement().degraded_count() == 0;
  w.ctl->shared().membership->stop();
  w.ctl->run_for(200 * timeconst::kMillisecond);
  const obs::Tracer* tracer = w.ctl->shared().tracer.get();
  for (const obs::SpanRecord& s : tracer->spans()) {
    if (std::strcmp(s.name, "store.heal") == 0) res.heal_spans++;
    if (std::strcmp(s.name, "store.erasure_decode") == 0) res.decode_spans++;
    if (std::strncmp(s.name, "async.", 6) == 0) res.async_spans++;
    if (std::strcmp(s.name, "cluster.heartbeat") == 0) res.heartbeat_spans++;
  }
  res.open_spans = tracer->open_spans();
  res.tiling_violations = tracer->tiling_violations();
  w.ctl->flush_observability();
  return res;
}

}  // namespace

int main() {
  const int ranks = env_int("DSIM_OBS_RANKS", 6);
  const u64 lib_bytes =
      static_cast<u64>(env_int("DSIM_OBS_LIB_MB", 2)) * 1024 * 1024;
  const u64 priv_bytes =
      static_cast<u64>(env_int("DSIM_OBS_PRIV_MB", 16)) * 1024 * 1024;
  const u64 victim_bytes =
      static_cast<u64>(env_int("DSIM_OBS_VIC_KB", 512)) * 1024;

  const StormRun off =
      run_storm(/*traced=*/false, ranks, lib_bytes, priv_bytes, victim_bytes);
  const StormRun on =
      run_storm(/*traced=*/true, ranks, lib_bytes, priv_bytes, victim_bytes);
  const CoverageRun cov = run_coverage(2, lib_bytes, priv_bytes / 4);

  const double overhead_ratio =
      off.sim_seconds > 0 ? on.sim_seconds / off.sim_seconds : 0;

  Table t({"metric", "value"});
  t.add_row({"untraced_sim_s", Table::fmt(off.sim_seconds)});
  t.add_row({"traced_sim_s", Table::fmt(on.sim_seconds)});
  t.add_row({"trace_overhead_ratio", Table::fmt(overhead_ratio, 6)});
  t.add_row({"victim_p99_ms (hist)", Table::fmt(on.hist_p99_ms, 3)});
  t.add_row({"victim_p99_ms (trace)", Table::fmt(on.trace_p99_ms, 3)});
  t.add_row({"p99_rel_err", Table::fmt(on.p99_rel_err, 5)});
  t.add_row({"spans_total", Table::fmt(static_cast<double>(on.spans_total),
                                       0)});
  t.add_row({"open_spans", Table::fmt(static_cast<double>(on.open_spans),
                                      0)});
  t.add_row({"tiling_violations",
             Table::fmt(static_cast<double>(on.tiling_violations), 0)});
  t.print("Tracing overhead + trace-vs-histogram p99 fidelity");

  std::printf(
      "coverage: %llu heal, %llu decode, %llu async, %llu heartbeat spans; "
      "healed=%s open=%llu tiling=%llu\n",
      static_cast<unsigned long long>(cov.heal_spans),
      static_cast<unsigned long long>(cov.decode_spans),
      static_cast<unsigned long long>(cov.async_spans),
      static_cast<unsigned long long>(cov.heartbeat_spans),
      cov.healed ? "true" : "false",
      static_cast<unsigned long long>(cov.open_spans),
      static_cast<unsigned long long>(cov.tiling_violations));

  std::ofstream json("BENCH_obs.json");
  json << "{\n  \"config\": {\"ranks\": " << ranks
       << ", \"lib_bytes\": " << lib_bytes
       << ", \"priv_bytes\": " << priv_bytes
       << ", \"victim_bytes\": " << victim_bytes << "},\n"
       << "  \"overhead\": {\"untraced_sim_seconds\": " << off.sim_seconds
       << ", \"traced_sim_seconds\": " << on.sim_seconds
       << ", \"trace_overhead_ratio\": " << overhead_ratio << "},\n"
       << "  \"p99_check\": {\"hist_p99_ms\": " << on.hist_p99_ms
       << ", \"trace_p99_ms\": " << on.trace_p99_ms
       << ", \"p99_rel_err\": " << on.p99_rel_err
       << ", \"victim_samples\": " << on.victim_samples << "},\n"
       << "  \"spans\": {";
  bool first = true;
  for (const auto& [subsystem, count] : on.subsystem_spans) {
    json << (first ? "" : ", ") << "\"" << subsystem << "\": " << count;
    first = false;
  }
  json << "},\n"
       << "  \"coverage\": {\"heal_spans\": " << cov.heal_spans
       << ", \"decode_spans\": " << cov.decode_spans
       << ", \"async_spans\": " << cov.async_spans
       << ", \"heartbeat_spans\": " << cov.heartbeat_spans
       << ", \"healed\": " << (cov.healed ? "true" : "false")
       << ", \"open_spans\": " << cov.open_spans
       << ", \"tiling_violations\": " << cov.tiling_violations << "},\n"
       << "  \"summary\": {\"trace_overhead_ratio\": " << overhead_ratio
       << ", \"p99_rel_err\": " << on.p99_rel_err
       << ", \"spans_total\": " << on.spans_total
       << ", \"open_spans\": " << (on.open_spans + cov.open_spans)
       << ", \"tiling_violations\": "
       << (on.tiling_violations + cov.tiling_violations) << "}\n}\n";

  std::printf("wrote BENCH_obs.json, BENCH_obs_trace.json, "
              "BENCH_obs_metrics.json, BENCH_obs_erasure_trace.json\n");
  return 0;
}
