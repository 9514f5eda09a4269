// Observability subsystem (src/obs/): deterministic histogram/metrics
// primitives, request tracing through the full store path, span tiling,
// and the two load-bearing guarantees — byte-identical traces across
// identical runs, and simulated-time identity between traced and untraced
// runs (tracing must be free when enabled and impossible to observe from
// inside the simulation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ckptstore/service.h"
#include "core/launch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/cluster.h"
#include "tests/testprogs.h"
#include "tests/testutil.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dsim::test {
namespace {

using core::DmtcpControl;
using core::DmtcpOptions;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::TraceContext;
using obs::Tracer;

// --- Histogram ---------------------------------------------------------------

TEST(HistogramTest, RecordNMatchesLegacyRunningSums) {
  // record_n accumulates sum += v * n in one multiply — the exact fp result
  // the legacy `wait_seconds += wait * n` accumulators produced.
  Histogram h;
  double legacy_sum = 0;
  u64 legacy_count = 0;
  const double vals[] = {1.25e-3, 7.5e-5, 0.5, 3.0e-2};
  const u64 ns[] = {3, 16, 1, 7};
  for (int i = 0; i < 4; ++i) {
    h.record_n(vals[i], ns[i]);
    legacy_sum += vals[i] * static_cast<double>(ns[i]);
    legacy_count += ns[i];
  }
  EXPECT_EQ(h.count(), legacy_count);
  EXPECT_EQ(h.sum(), legacy_sum);  // bit-for-bit, not approximately
  EXPECT_EQ(h.mean(), legacy_sum / static_cast<double>(legacy_count));
  EXPECT_EQ(h.max(), 0.5);
}

TEST(HistogramTest, QuantilesTrackExactSortWithinBucketError) {
  Histogram h;
  std::vector<double> vals;
  Rng rng(0x0B5);
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform over ~6 decades: exercises many octaves.
    const double v = std::exp(rng.next_double() * 14.0 - 10.0);
    vals.push_back(v);
    h.record(v);
  }
  std::sort(vals.begin(), vals.end());
  for (const double q : {0.5, 0.9, 0.99}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(vals.size())));
    const double exact = vals[rank - 1];
    EXPECT_NEAR(h.quantile(q), exact, exact * 0.005)
        << "q=" << q;  // bucket representative: <= 1/256 relative error
  }
  // The top rank is the exact max, matching the exact-sort convention the
  // benches used on small windows.
  EXPECT_EQ(h.quantile(1.0), vals.back());
}

TEST(HistogramTest, DeltaSinceAndLifetimeMax) {
  Histogram h;
  h.record(0.010);
  h.record(0.020);
  const Histogram before = h;
  h.record(0.005);
  h.record(0.040);
  const Histogram delta = h.delta_since(before);
  EXPECT_EQ(delta.count(), 2u);
  EXPECT_EQ(delta.sum(), h.sum() - before.sum());
  EXPECT_EQ(h.max(), 0.040);  // lifetime max is never reset
}

TEST(HistogramTest, DeltaSinceEmptyWindowIsAllZero) {
  Histogram h;
  h.record(0.010);
  h.record(0.250);
  // No samples between the snapshots: the delta is the empty histogram.
  const Histogram delta = h.delta_since(h);
  EXPECT_EQ(delta.count(), 0u);
  EXPECT_EQ(delta.sum(), 0.0);
  EXPECT_EQ(delta.max(), 0.0);
  EXPECT_EQ(delta.quantile(0.99), 0.0);
}

TEST(HistogramTest, DeltaSinceSingleSampleWindow) {
  Histogram h;
  h.record(0.010);
  const Histogram before = h;
  h.record(0.125);
  const Histogram delta = h.delta_since(before);
  EXPECT_EQ(delta.count(), 1u);
  EXPECT_EQ(delta.sum(), 0.125);
  // Every rank of a one-sample window is that sample (bucketed for the
  // interior representative, exact at the top).
  EXPECT_NEAR(delta.quantile(0.5), 0.125, 0.125 * 0.005);
  EXPECT_NEAR(delta.quantile(0.99), 0.125, 0.125 * 0.005);
}

TEST(MetricsRegistryTest, JsonIsSortedAndStable) {
  MetricsRegistry a, b;
  // Registration order differs; the emitted bytes must not.
  a.counter("z.last", 2);
  a.counter("a.first", 1);
  a.sum("wait.z", 1.5);
  a.sum("wait.a", 0.75);
  a.gauge("mid", 0.25);
  b.gauge("mid", 0.25);
  b.sum("wait.a", 0.75);
  b.counter("a.first", 1);
  b.sum("wait.z", 1.5);
  b.counter("z.last", 2);
  Histogram h;
  h.record(0.125);
  a.histogram("hist", h);
  b.histogram("hist", h);
  const std::string j = a.json();
  EXPECT_EQ(j, b.json());
  EXPECT_LT(j.find("a.first"), j.find("z.last"));
  // Sums render as their own section, after the counters and before the
  // gauges, sorted by name like every other section.
  EXPECT_NE(j.find("\"wait.a\": 0.75"), std::string::npos);
  EXPECT_LT(j.find("\"counters\""), j.find("\"sums\""));
  EXPECT_LT(j.find("\"sums\""), j.find("\"gauges\""));
  EXPECT_LT(j.find("z.last"), j.find("wait.a"));
  EXPECT_LT(j.find("wait.a"), j.find("wait.z"));
}

// --- Tracer ------------------------------------------------------------------

TEST(TracerTest, ChildSpansMustTileTheRootExactly) {
  Tracer tr;
  TraceContext ctx;
  ctx.trace_id = tr.new_trace();
  const u64 root = tr.begin("root", 0, "requests", 1000, ctx);
  ctx.parent_span = root;
  // Two children partitioning [1000, 3000) exactly: no violation.
  const u64 c1 = tr.begin("stage.a", 0, "nic", 1000, ctx);
  tr.end(c1, 2000);
  const u64 c2 = tr.begin("stage.b", 0, "cpu", 2000, ctx);
  tr.end(c2, 3000);
  tr.end(root, 3000);
  EXPECT_EQ(tr.tiling_violations(), 0u);
  EXPECT_EQ(tr.open_spans(), 0u);

  // A gap (child covers only half the root) trips the check...
  TraceContext ctx2;
  ctx2.trace_id = tr.new_trace();
  const u64 root2 = tr.begin("root", 0, "requests", 5000, ctx2);
  ctx2.parent_span = root2;
  const u64 c3 = tr.begin("stage.a", 0, "nic", 5000, ctx2);
  tr.end(c3, 5500);
  tr.end(root2, 6000);
  EXPECT_EQ(tr.tiling_violations(), 1u);

  // ...unless the trace is marked untiled (parked/replayed requests emit
  // duplicate stage spans by design).
  TraceContext ctx3;
  ctx3.trace_id = tr.new_trace();
  const u64 root3 = tr.begin("root", 0, "requests", 7000, ctx3);
  tr.mark_untiled(ctx3.trace_id);
  tr.end(root3, 9000);
  EXPECT_EQ(tr.tiling_violations(), 1u);
}

TEST(TracerTest, StageTotalsWeightByBatchSize) {
  Tracer tr;
  const u64 s = tr.begin("store.index", obs::kServicePid, "shard0",
                         1000 * timeconst::kMillisecond, {}, /*n=*/16);
  tr.end(s, 1250 * timeconst::kMillisecond);
  const Histogram& st = tr.stage_histograms().at("store.index");
  EXPECT_EQ(st.count(), 16u);  // one sample per key, not per span
  EXPECT_NEAR(st.sum(), 16 * 0.25, 1e-12);
}

// --- end-to-end worlds -------------------------------------------------------

struct World {
  sim::Cluster cluster;
  DmtcpControl ctl;
  Rng jitter_rng;
  World(int nodes, DmtcpOptions opts, u64 seed)
      : cluster([&] {
          auto cfg = sim::Cluster::lab_cluster(nodes);
          cfg.seed = seed;
          return cfg;
        }()),
        ctl(cluster.kernel(), opts),
        jitter_rng(seed ^ 0x0B5E111) {
    register_test_programs(cluster.kernel());
    cluster.kernel().net().set_jitter(&jitter_rng, 0.25);
  }
  sim::Kernel& k() { return cluster.kernel(); }
};

DmtcpOptions obs_opts() {
  DmtcpOptions o;
  o.incremental = true;
  o.codec = compress::CodecKind::kNone;
  o.chunking = ckptstore::ChunkingMode::kCdc;
  o.cdc_min_bytes = 2 * 1024;
  o.cdc_avg_bytes = 8 * 1024;
  o.cdc_max_bytes = 32 * 1024;
  o.dedup_scope = core::DedupScope::kCluster;
  o.chunk_replicas = 2;
  o.store_shards = 2;
  o.store_node = 2;
  return o;
}

void add_ballast(World& w, Pid pid, u64 bytes, u64 seed) {
  sim::Process* p = w.k().find_process(pid);
  ASSERT_NE(p, nullptr);
  auto& seg = p->mem().add("ballast", sim::MemKind::kHeap, bytes);
  seg.data.fill(0, bytes, sim::ExtentKind::kRand, seed);
}

struct TracedRun {
  std::string trace_json;
  SimTime end_time = 0;
  u64 open_spans = 0;
  u64 tiling_violations = 0;
  double round_seconds = 0;
};

/// One seeded scenario under tracing: jittered network, two ranks, a
/// checkpoint round (optionally with the shard endpoint killed mid-round
/// and revived after), then quiesce and snapshot the tracer.
TracedRun run_traced(u64 seed, bool kill_mid_round, bool traced = true) {
  TracedRun res;
  World w(4, obs_opts(), seed);
  auto tracer = std::make_shared<Tracer>();
  if (traced) {
    w.k().loop().set_tracer(tracer.get());
    w.ctl.shared().tracer = tracer;
  }
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 1024 * 1024, 0xAA);
  add_ballast(w, pb, 1024 * 1024, 0xBB);
  w.ctl.request_checkpoint();
  if (kill_mid_round) {
    const bool drained = w.ctl.run_until(
        [&] {
          return !w.ctl.stats().rounds.empty() &&
                 w.ctl.stats().rounds.back().drained != 0;
        },
        w.k().loop().now() + 60 * timeconst::kSecond);
    EXPECT_TRUE(drained);
    w.ctl.shared().store_service->fail_node(2);
  }
  const bool completed = w.ctl.run_until(
      [&] {
        return !w.ctl.stats().rounds.empty() &&
               w.ctl.stats().rounds.back().refilled != 0;
      },
      w.k().loop().now() + 60 * timeconst::kSecond);
  EXPECT_TRUE(completed);
  res.round_seconds = w.ctl.stats().rounds.back().total_seconds();
  if (kill_mid_round) {
    // Let the heal daemon restore replica strength, then revive the node
    // mid-run — parked probes replay, which must not leak spans.
    w.ctl.run_for(300 * timeconst::kMillisecond);
    w.ctl.shared().store_service->revive_node(2);
    w.ctl.run_for(100 * timeconst::kMillisecond);
  }
  // Quiesce: stop the heartbeat loop and drain in-flight probes so the
  // open-span check sees a settled world, not a stopped-mid-probe one.
  w.ctl.shared().membership->stop();
  w.ctl.run_for(200 * timeconst::kMillisecond);
  res.trace_json = tracer->chrome_json();
  res.end_time = w.k().loop().now();
  res.open_spans = tracer->open_spans();
  res.tiling_violations = tracer->tiling_violations();
  return res;
}

TEST(ObsWorld, TraceIsByteIdenticalAcrossIdenticalRuns) {
  // Same seed, same jitter profile: the exported Chrome JSON must match
  // byte for byte — no host clocks, no pointer ordering, nothing.
  const TracedRun a = run_traced(0x0B5A, /*kill_mid_round=*/false);
  const TracedRun b = run_traced(0x0B5A, /*kill_mid_round=*/false);
  EXPECT_GT(a.trace_json.size(), 1000u);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(ObsWorld, MetricsJsonIsByteIdenticalAcrossIdenticalJitteredRuns) {
  // The jittered network (World arms Network::set_jitter) perturbs every
  // queue wait, but the jitter stream is seeded: two identical runs must
  // serialize the full registry — counters, gauges, histograms — to the
  // same bytes.
  const auto run = [](u64 seed) {
    World w(4, obs_opts(), seed);
    auto tracer = std::make_shared<Tracer>();
    w.k().loop().set_tracer(tracer.get());
    w.ctl.shared().tracer = tracer;
    const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
    const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
    w.ctl.run_for(20 * timeconst::kMillisecond);
    add_ballast(w, pa, 1024 * 1024, 0xAA);
    add_ballast(w, pb, 1024 * 1024, 0xBB);
    w.ctl.checkpoint_now();
    w.ctl.shared().membership->stop();
    w.ctl.run_for(200 * timeconst::kMillisecond);
    return core::collect_metrics(w.ctl.shared()).json();
  };
  const std::string a = run(0x3E7A);
  const std::string b = run(0x3E7A);
  EXPECT_GT(a.size(), 200u);
  EXPECT_EQ(a, b);
}

TEST(ObsWorld, SpansBalanceAndTileAfterMidRoundKillAndRevive) {
  const TracedRun r = run_traced(0xFA11, /*kill_mid_round=*/true);
  EXPECT_EQ(r.open_spans, 0u);
  EXPECT_EQ(r.tiling_violations, 0u);
}

// Every request kind and every store daemon closes the spans it opens,
// and each traced request still tiles its root: restart fetches, GC
// drops, stores held at the tenant edge, a scrub quarantine, a cold
// demotion and a shard rebalance, besides a round's lookups and stores.
TEST(ObsWorld, EveryRequestKindAndDaemonClosesItsSpans) {
  std::set<std::string> names;
  const auto traced_world = [](World& w) {
    auto tracer = std::make_shared<Tracer>();
    w.k().loop().set_tracer(tracer.get());
    w.ctl.shared().tracer = tracer;
    return tracer;
  };
  const auto rewrite = [](World& w, Pid pid, u64 bytes, u64 seed) {
    sim::Process* p = w.k().find_process(pid);
    ASSERT_NE(p, nullptr);
    p->mem().find("ballast")->data.fill(0, bytes, sim::ExtentKind::kRand,
                                        seed);
  };
  const auto settle = [&names](World& w, const Tracer& tracer) {
    w.ctl.shared().membership->stop();
    w.ctl.run_for(500 * timeconst::kMillisecond);
    EXPECT_EQ(tracer.open_spans(), 0u);
    EXPECT_EQ(tracer.tiling_violations(), 0u);
    for (const auto& span : tracer.spans()) names.insert(span.name);
  };
  {
    // Keep-last-1 over rewritten generations under a 64 KiB tenant budget:
    // GC drops and stores held at the edge. Then a chunk rots past repair,
    // the shard count grows, and the computation restarts.
    DmtcpOptions o = obs_opts();
    o.keep_generations = 1;
    o.tenant_budget_bytes = 64 * 1024;
    World w(4, o, 0x5BA1);
    const auto tracer = traced_world(w);
    const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
    w.ctl.run_for(20 * timeconst::kMillisecond);
    add_ballast(w, pa, 512 * 1024, 0xA0);
    for (u64 round = 0; round < 3; ++round) {
      rewrite(w, pa, 512 * 1024, 0xA1 + round);
      w.ctl.checkpoint_now();
    }
    auto& svc = *w.ctl.shared().store_service;
    EXPECT_GT(svc.stats().drop_requests, 0u);
    EXPECT_GT(svc.stats().admission_held_requests, 0u);
    // Both copies of an R=2 chunk rot: beyond repair, so it is quarantined.
    const ckptstore::ChunkKey victim =
        svc.repo().chunks_after(ckptstore::ChunkKey{}, 1).front().first;
    ASSERT_TRUE(svc.corrupt_fragment(victim, 0));
    ASSERT_TRUE(svc.corrupt_fragment(victim, 1));
    svc.scrub(1u << 20);
    w.ctl.run_for(100 * timeconst::kMillisecond);
    EXPECT_EQ(svc.stats().scrub_quarantined_chunks, 1u);
    w.ctl.set_store_shards(3);
    EXPECT_GT(svc.stats().rebalance_moved_keys, 0u);
    w.ctl.checkpoint_now();
    w.ctl.kill_computation();
    w.ctl.restart();
    EXPECT_GT(svc.stats().fetch_requests, 0u);
    settle(w, *tracer);
  }
  {
    // (4,2) with a (6,2) cold tier and one hot generation: rewriting half
    // the ballast leaves the first generation's old half cold, and the
    // demotion decodes and re-encodes it in the background.
    DmtcpOptions o = obs_opts();
    o.chunk_replicas = 1;
    o.erasure_k = 4;
    o.erasure_m = 2;
    o.cold_erasure_k = 6;
    o.cold_erasure_m = 2;
    o.hot_generations = 1;
    World w(8, o, 0xC01D);
    const auto tracer = traced_world(w);
    const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
    w.ctl.run_for(20 * timeconst::kMillisecond);
    add_ballast(w, pa, 1024 * 1024, 0xC0);
    w.ctl.checkpoint_now();
    rewrite(w, pa, 512 * 1024, 0xC1);
    w.ctl.checkpoint_now();
    w.ctl.run_for(200 * timeconst::kMillisecond);
    EXPECT_GT(w.ctl.shared().store_service->stats().demoted_chunks, 0u);
    settle(w, *tracer);
  }
  for (const char* name :
       {"store.lookup", "store.store", "store.fetch", "store.drop",
        "store.admission", "store.scrub", "store.demote", "store.rebalance",
        "store.erasure_decode"}) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }
}

TEST(ObsWorld, TracingOffIsSimulatedTimeIdenticalToTracingOn) {
  // The tracer never posts events or charges time: enabling it cannot move
  // the virtual clock by a single nanosecond.
  const TracedRun off = run_traced(0x71ED, false, /*traced=*/false);
  const TracedRun on = run_traced(0x71ED, false, /*traced=*/true);
  EXPECT_EQ(off.end_time, on.end_time);
  EXPECT_EQ(off.round_seconds, on.round_seconds);
}

TEST(ObsWorld, RoundDeltaHoldsOneLookupWaitSamplePerLookup) {
  World w(4, obs_opts(), 0x0B57);
  auto tracer = std::make_shared<Tracer>();
  w.k().loop().set_tracer(tracer.get());
  w.ctl.shared().tracer = tracer;
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 512 * 1024, 0xAB);
  const auto& round = w.ctl.checkpoint_now();
  // One lookup-wait sample per dedup lookup the round served.
  EXPECT_EQ(round.delta.histogram("store.lookup_wait").count(),
            round.delta.counter("store.lookup_requests"));
}

TEST(ObsOptions, FlagsParseAndValidate) {
  DmtcpOptions o = obs_opts();
  std::vector<std::string> argv{"--trace-out",   "/tmp/t.json",
                                "--metrics-out", "/tmp/m.json",
                                "--log-level",   "warn"};
  EXPECT_EQ(o.apply_flags(argv), "");
  EXPECT_EQ(o.trace_out, "/tmp/t.json");
  EXPECT_EQ(o.metrics_out, "/tmp/m.json");
  EXPECT_EQ(o.log_level, "warn");
  EXPECT_TRUE(o.validate().empty());
  o.log_level = "shouting";
  EXPECT_FALSE(o.validate().empty());
}

// --metrics-out writes the registry's JSON when the computation flushes,
// and --log-level sets the process-wide threshold, restored afterwards.
TEST(ObsOptions, MetricsOutAndLogLevelTakeEffect) {
  struct RestoreLogLevel {
    LogLevel saved = log_level();
    ~RestoreLogLevel() { set_log_level(saved); }
  } restore;
  ASSERT_NE(restore.saved, LogLevel::kError);
  const std::string path = ::testing::TempDir() + "dsim_test_metrics_out.json";
  std::remove(path.c_str());
  DmtcpOptions o = obs_opts();
  std::vector<std::string> argv{"--metrics-out", path, "--log-level",
                                "error"};
  ASSERT_EQ(o.apply_flags(argv), "");
  {
    World w(4, o, 0x3E7B);
    EXPECT_EQ(log_level(), LogLevel::kError);
    const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
    w.ctl.run_for(20 * timeconst::kMillisecond);
    add_ballast(w, pa, 256 * 1024, 0xAC);
    w.ctl.checkpoint_now();
    w.ctl.flush_observability();
    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    const std::string written((std::istreambuf_iterator<char>(f)),
                              std::istreambuf_iterator<char>());
    EXPECT_GT(written.size(), 200u);
    EXPECT_EQ(written, core::collect_metrics(w.ctl.shared()).json());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dsim::test
