// Round-health engine: critical-path attribution over the span timeline,
// the per-round time-series ring, the registry delta that feeds it, and
// the SLO/alert state machine — unit-level first, then end-to-end through
// a jittered world where a mid-round endpoint kill must fire exactly the
// heal-backlog alert and clear it once re-replication drains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "ckptstore/service.h"
#include "core/launch.h"
#include "obs/critpath.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/cluster.h"
#include "tests/testprogs.h"
#include "tests/testutil.h"
#include "util/rng.h"

namespace dsim::test {
namespace {

using core::DmtcpControl;
using core::DmtcpOptions;
using obs::AlertEvent;
using obs::CritPathReport;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::PhaseMark;
using obs::RoundSeries;
using obs::SloEngine;
using obs::SloRule;
using obs::Tracer;

// --- Critical-path sweep -----------------------------------------------------

const obs::CritPathEntry* find_stage(const CritPathReport& rep,
                                     const std::string& stage) {
  for (const auto& e : rep.entries) {
    if (e.stage == stage) return &e;
  }
  return nullptr;
}

TEST(CritPathTest, NestedSpanTailWinsItsSegment) {
  Tracer tr;
  const u64 root = tr.begin("root", 5, "work", 100);
  const u64 child = tr.begin("child", 5, "work", 300);
  tr.end(child, 900);
  tr.end(root, 900);
  const CritPathReport rep = obs::critical_path(
      tr, 0, 1000, {{"phase.a", 0, 1000}});
  // Backward from 1000: gap to 900 -> phase.a; child (latest-started
  // active at 900) takes [300, 900); root takes [100, 300); gap [0, 100)
  // -> phase.a again. Exact partition of the kilosecond... nanoseconds.
  EXPECT_EQ(rep.attributed_ns(), rep.total_ns());
  ASSERT_NE(find_stage(rep, "child"), nullptr);
  EXPECT_EQ(find_stage(rep, "child")->ns, 600);
  ASSERT_NE(find_stage(rep, "root"), nullptr);
  EXPECT_EQ(find_stage(rep, "root")->ns, 200);
  ASSERT_NE(find_stage(rep, "phase.a"), nullptr);
  EXPECT_EQ(find_stage(rep, "phase.a")->ns, 200);
  // Ranked by attributed time: the child leads.
  EXPECT_EQ(rep.entries.front().stage, "child");
  EXPECT_DOUBLE_EQ(rep.fraction(0), 0.6);
}

TEST(CritPathTest, ConcurrentLanesLatestStartWins) {
  Tracer tr;
  const u64 a = tr.begin("stage.a", 5, "lane.x", 100);
  const u64 b = tr.begin("stage.b", 5, "lane.y", 200);
  tr.end(a, 600);
  tr.end(b, 600);
  const CritPathReport rep =
      obs::critical_path(tr, 100, 600, {{"phase", 100, 600}});
  // Both lanes are active at the tail; the later-started dependency is
  // the one the tail actually waited on.
  EXPECT_EQ(rep.attributed_ns(), 500);
  ASSERT_NE(find_stage(rep, "stage.b"), nullptr);
  EXPECT_EQ(find_stage(rep, "stage.b")->ns, 400);
  ASSERT_NE(find_stage(rep, "stage.a"), nullptr);
  EXPECT_EQ(find_stage(rep, "stage.a")->ns, 100);
  EXPECT_EQ(find_stage(rep, "phase"), nullptr);
}

TEST(CritPathTest, UncoveredGapsSplitAcrossPhasesAndIdle) {
  Tracer tr;  // no spans at all
  const CritPathReport rep = obs::critical_path(
      tr, 0, 1000,
      {{"barrier.suspend", 100, 400}, {"barrier.write", 400, 800}});
  // [0,100) precedes every phase -> idle; the phases split the middle at
  // their exact boundary; [800,1000) trails every phase -> idle.
  EXPECT_EQ(rep.attributed_ns(), 1000);
  EXPECT_EQ(find_stage(rep, "barrier.suspend")->ns, 300);
  EXPECT_EQ(find_stage(rep, "barrier.write")->ns, 400);
  EXPECT_EQ(find_stage(rep, "idle")->ns, 300);
}

TEST(CritPathTest, ZeroLengthSpansNeverExplainElapsedTime) {
  Tracer tr;
  const u64 marker = tr.begin("alert.fired", 5, "alert.x", 500);
  tr.end(marker, 500);
  const CritPathReport rep =
      obs::critical_path(tr, 0, 1000, {{"phase", 0, 1000}});
  EXPECT_EQ(find_stage(rep, "alert.fired"), nullptr);
  EXPECT_EQ(find_stage(rep, "phase")->ns, 1000);
}

TEST(CritPathTest, WindowClampsSpansCrossingItsEdges) {
  Tracer tr;
  const u64 s = tr.begin("spill", 5, "work", 100);
  tr.end(s, 2000);
  const CritPathReport rep =
      obs::critical_path(tr, 500, 1500, {{"phase", 500, 1500}});
  // The span covers the whole window; only the window's share is charged.
  EXPECT_EQ(rep.attributed_ns(), 1000);
  EXPECT_EQ(find_stage(rep, "spill")->ns, 1000);
}

// --- RoundSeries -------------------------------------------------------------

RoundSeries::Sample sample(i64 round, SimTime at, double pause,
                           double degraded) {
  RoundSeries::Sample s;
  s.round = round;
  s.at = at;
  s.values["pause_seconds"] = pause;
  s.values["degraded_chunks"] = degraded;
  return s;
}

TEST(RoundSeriesTest, RingDropsOldestAndCounts) {
  RoundSeries series(3);
  for (i64 r = 0; r < 5; ++r) {
    series.push(sample(r, r * 1000, 0.1 * static_cast<double>(r + 1), 0));
  }
  EXPECT_EQ(series.size(), 3u);
  EXPECT_EQ(series.dropped(), 2u);
  EXPECT_EQ(series.samples().front().round, 2);
  EXPECT_EQ(series.back().round, 4);
  EXPECT_DOUBLE_EQ(series.value("pause_seconds"), 0.5);
  EXPECT_DOUBLE_EQ(series.value("pause_seconds", 2), 0.3);
  EXPECT_DOUBLE_EQ(series.value("pause_seconds", 3), 0.0);  // fell off
  EXPECT_DOUBLE_EQ(series.value("no_such_metric"), 0.0);
}

TEST(RoundSeriesTest, WindowQuantileIsExactSort) {
  RoundSeries series;
  for (i64 r = 0; r < 4; ++r) {
    series.push(sample(r, r, 0.1 * static_cast<double>(4 - r), 0));
  }
  // Window values (last 4): {0.4, 0.3, 0.2, 0.1}. rank ceil(0.5*4)=2 of
  // the sorted window -> 0.2; p100 -> 0.4.
  EXPECT_DOUBLE_EQ(series.window_quantile("pause_seconds", 0.5, 4), 0.2);
  EXPECT_DOUBLE_EQ(series.window_quantile("pause_seconds", 1.0, 4), 0.4);
  // A window of 2 sees only the freshest samples {0.2, 0.1}.
  EXPECT_DOUBLE_EQ(series.window_quantile("pause_seconds", 1.0, 2), 0.2);
}

TEST(RoundSeriesTest, BurnAndConsecutiveNonzero) {
  RoundSeries series;
  series.push(sample(0, 0, 0.6, 0));
  series.push(sample(1, 1, 0.1, 3));
  series.push(sample(2, 2, 0.7, 2));
  EXPECT_DOUBLE_EQ(series.window_burn("pause_seconds", 0.5, 3), 2.0 / 3.0);
  EXPECT_EQ(series.consecutive_nonzero("degraded_chunks"), 2u);
  series.push(sample(3, 3, 0.1, 0));
  EXPECT_EQ(series.consecutive_nonzero("degraded_chunks"), 0u);
}

TEST(RoundSeriesTest, JsonIsStableAcrossRebuilds) {
  const auto build = [] {
    RoundSeries s;
    s.push(sample(0, 12345, 0.25, 1));
    s.push(sample(1, 67890, 0.125, 0));
    return s.json();
  };
  const std::string a = build();
  EXPECT_EQ(a, build());
  EXPECT_NE(a.find("\"rounds\":"), std::string::npos);
  EXPECT_NE(a.find("\"pause_seconds\":0.25"), std::string::npos);
}

// --- MetricsRegistry::delta_since ---------------------------------------------

TEST(MetricsRegistryTest, DeltaSubtractsCountersAndKeepsGauges) {
  MetricsRegistry prev, now;
  prev.counter("store.lookups", 100);
  now.counter("store.lookups", 140);
  now.counter("store.replays", 3);  // absent from prev -> baseline 0
  prev.sum("rpc.net_wait_seconds", 1.25);
  now.sum("rpc.net_wait_seconds", 2.0);
  now.sum("async.blocked_seconds", 0.5);  // absent from prev -> baseline 0
  prev.gauge("store.degraded_chunks", 7);
  now.gauge("store.degraded_chunks", 2);
  Histogram hp, hn;
  hp.record(0.010);
  hn = hp;
  hn.record(0.030);
  prev.histogram("wait", hp);
  now.histogram("wait", hn);

  const MetricsRegistry delta = now.delta_since(prev);
  EXPECT_EQ(delta.counters().at("store.lookups"), 40u);
  EXPECT_EQ(delta.counters().at("store.replays"), 3u);
  // A sum is a running total too: its delta is what accrued in between.
  EXPECT_DOUBLE_EQ(delta.sum("rpc.net_wait_seconds"), 0.75);
  EXPECT_DOUBLE_EQ(delta.sum("async.blocked_seconds"), 0.5);
  // A gauge is a level, not a rate: the per-round value IS the level.
  EXPECT_DOUBLE_EQ(delta.gauges().at("store.degraded_chunks"), 2.0);
  EXPECT_EQ(delta.histograms().at("wait").count(), 1u);
  EXPECT_DOUBLE_EQ(delta.histograms().at("wait").sum(), 0.030);
}

// --- SloEngine ---------------------------------------------------------------

TEST(SloEngineTest, ParsesEveryRuleKindAndRejectsGarbage) {
  std::vector<SloRule> rules;
  EXPECT_EQ(SloEngine::parse(
                "pause: pause_seconds <= 0.5; "
                "tail: p99(pause_seconds, 8) <= 0.6; "
                "heal: drain(degraded_chunks, 2); "
                "burn: burn(pause_seconds > 0.4, 8) <= 0.25",
                &rules),
            "");
  ASSERT_EQ(rules.size(), 4u);
  EXPECT_EQ(rules[0].kind, SloRule::Kind::kThreshold);
  EXPECT_EQ(rules[1].kind, SloRule::Kind::kQuantile);
  EXPECT_DOUBLE_EQ(rules[1].q, 0.99);
  EXPECT_EQ(rules[1].window, 8u);
  EXPECT_EQ(rules[2].kind, SloRule::Kind::kDrain);
  EXPECT_EQ(rules[2].drain_rounds, 2u);
  EXPECT_EQ(rules[3].kind, SloRule::Kind::kBurn);
  EXPECT_EQ(rules[3].inner_op, ">");
  EXPECT_DOUBLE_EQ(rules[3].inner_bound, 0.4);

  std::vector<SloRule> junk;
  EXPECT_NE(SloEngine::parse("no_colon_here", &junk), "");
  EXPECT_NE(SloEngine::parse("r: metric ~~ 5", &junk), "");
  EXPECT_NE(SloEngine::parse("r: p99(pause_seconds) <= 1", &junk), "");
  EXPECT_NE(SloEngine::parse("r: drain(x, many)", &junk), "");
  EXPECT_NE(SloEngine::parse("r: burn(x > 1, 4)", &junk), "");
}

TEST(SloEngineTest, BadSloFlagFailsOptionValidation) {
  DmtcpOptions o;
  std::vector<std::string> argv = {"--slo", "bad rule without colon"};
  // A malformed spec is rejected at flag-parse time, before launch.
  const std::string err = o.apply_flags(argv);
  EXPECT_NE(err.find("lacks a 'name:' prefix"), std::string::npos) << err;
  // validate() guards the programmatic path (options set directly).
  o.slo = "also bad";
  EXPECT_FALSE(o.validate().empty());
  o.slo = "ok: pause_seconds <= 1";
  EXPECT_TRUE(o.validate().empty());
}

TEST(SloEngineTest, ThresholdFiresAndClears) {
  SloEngine eng;
  ASSERT_EQ(eng.add_rules("pause: pause_seconds <= 0.5"), "");
  RoundSeries series;
  series.push(sample(0, 1000, 0.2, 0));
  EXPECT_TRUE(eng.evaluate(series).empty());
  series.push(sample(1, 2000, 0.7, 0));
  auto events = eng.evaluate(series);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].fired);
  EXPECT_EQ(events[0].rule, "pause");
  EXPECT_EQ(events[0].round, 1);
  EXPECT_EQ(events[0].at, 2000);
  EXPECT_DOUBLE_EQ(events[0].value, 0.7);
  EXPECT_EQ(eng.active(), std::vector<std::string>{"pause"});
  // Still violating: no duplicate event while the alert stays up.
  series.push(sample(2, 3000, 0.9, 0));
  EXPECT_TRUE(eng.evaluate(series).empty());
  series.push(sample(3, 4000, 0.1, 0));
  events = eng.evaluate(series);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].fired);
  EXPECT_TRUE(eng.active().empty());
  EXPECT_EQ(eng.alerts_fired(), 1u);
}

TEST(SloEngineTest, DrainAllowsTheGraceWindowThenFires) {
  SloEngine eng;
  ASSERT_EQ(eng.add_rules("heal: drain(degraded_chunks, 2)"), "");
  RoundSeries series;
  series.push(sample(0, 1, 0, 5));
  EXPECT_TRUE(eng.evaluate(series).empty());  // 1 nonzero round: within N
  series.push(sample(1, 2, 0, 3));
  EXPECT_TRUE(eng.evaluate(series).empty());  // 2: still within
  series.push(sample(2, 3, 0, 1));
  auto events = eng.evaluate(series);  // 3 consecutive > 2: backlog stuck
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].fired);
  series.push(sample(3, 4, 0, 0));
  events = eng.evaluate(series);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].fired);
}

TEST(SloEngineTest, BurnRateOverSlidingWindow) {
  SloEngine eng;
  ASSERT_EQ(eng.add_rules("burn: burn(pause_seconds > 0.4, 4) <= 0.5"), "");
  RoundSeries series;
  // The window holds one sample and it violates: burn 1.0 > 0.5, fires.
  series.push(sample(0, 1, 0.6, 0));
  auto events = eng.evaluate(series);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].fired);
  EXPECT_DOUBLE_EQ(events[0].value, 1.0);
  // Healthy rounds dilute the burn below the bound: {0.6,0.1,0.1} is 1/3.
  series.push(sample(1, 2, 0.1, 0));
  series.push(sample(2, 3, 0.1, 0));
  events = eng.evaluate(series);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].fired);
  EXPECT_TRUE(eng.active().empty());
  EXPECT_EQ(eng.alerts_fired(), 1u);
}

TEST(SloEngineTest, JsonEchoesRulesEventsAndActiveSet) {
  SloEngine eng;
  ASSERT_EQ(eng.add_rules("pause: pause_seconds <= 0.5"), "");
  RoundSeries series;
  series.push(sample(0, 5000, 0.9, 0));
  eng.evaluate(series);
  const std::string j = eng.json();
  EXPECT_NE(j.find("\"rules\":"), std::string::npos);
  EXPECT_NE(j.find("\"pause_seconds <= 0.5\""), std::string::npos);
  EXPECT_NE(j.find("\"active\":[\"pause\"]"), std::string::npos);
  EXPECT_NE(j.find("\"alerts_fired\":1"), std::string::npos);
  EXPECT_NE(j.find("\"type\":\"fired\""), std::string::npos);
}

// --- End-to-end through a jittered world --------------------------------------

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

DmtcpOptions health_opts(const std::string& health_out) {
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
  o.health_out = health_out;
  o.slo =
      "pause: pause_seconds <= 120; "
      "parked: parked_requests == 0; "
      "heal: drain(degraded_chunks, 0)";
  return o;
}

void add_ballast(World& w, Pid pid, u64 bytes, u64 seed) {
  sim::Process* p = w.k().find_process(pid);
  ASSERT_NE(p, nullptr);
  auto& seg = p->mem().add("ballast", sim::MemKind::kHeap, bytes);
  seg.data.fill(0, bytes, sim::ExtentKind::kRand, seed);
}

TEST(HealthWorld, HealthySweepSamplesEveryRoundAndFiresNothing) {
  World w(4, health_opts(""), 0x6EA1);
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 512 * 1024, 0xAB);
  w.ctl.checkpoint_now();
  w.ctl.checkpoint_now();

  const auto& sh = w.ctl.shared();
  ASSERT_NE(sh.health_series, nullptr);
  ASSERT_NE(sh.slo_engine, nullptr);
  EXPECT_EQ(sh.health_series->size(), 2u);
  EXPECT_EQ(sh.slo_engine->alerts_fired(), 0u);
  EXPECT_TRUE(sh.slo_engine->active().empty());
  // The series carries the aliased health metrics the rules bind to.
  EXPECT_GT(sh.health_series->value("pause_seconds"), 0.0);
  EXPECT_DOUBLE_EQ(sh.health_series->value("degraded_chunks"), 0.0);
  EXPECT_DOUBLE_EQ(sh.health_series->value("parked_requests"), 0.0);

  // Each round's critical path partitions its window exactly and sums to
  // the round's total.
  for (const core::CkptRound& r : w.ctl.stats().rounds) {
    EXPECT_EQ(r.critical_path.attributed_ns(), r.refilled - r.requested);
    EXPECT_NEAR(r.critical_path.total_seconds(), r.total_seconds(), 1e-9);
    EXPECT_FALSE(r.critical_path.entries.empty());
  }
}

TEST(HealthWorld, KillFiresExactlyHealBacklogAndClears) {
  World w(4, health_opts(""), 0xFA11);
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 1024 * 1024, 0xAA);
  add_ballast(w, pb, 1024 * 1024, 0xBB);
  w.ctl.checkpoint_now();

  // Kill the shard endpoint right after the drain barrier: the write
  // phase parks, fails over, replays — and the round's close sees the
  // degraded chunks, so the drain rule fires.
  const size_t round_idx = w.ctl.stats().rounds.size();
  w.ctl.request_checkpoint();
  ASSERT_TRUE(w.ctl.run_until(
      [&] {
        return w.ctl.stats().rounds.size() > round_idx &&
               w.ctl.stats().rounds[round_idx].drained != 0;
      },
      w.k().loop().now() + 60 * timeconst::kSecond));
  w.ctl.shared().store_service->fail_node(2);
  ASSERT_TRUE(w.ctl.run_until(
      [&] { return w.ctl.stats().rounds[round_idx].refilled != 0; },
      w.k().loop().now() + 60 * timeconst::kSecond));

  auto* eng = w.ctl.shared().slo_engine.get();
  ASSERT_EQ(eng->active(), std::vector<std::string>{"heal"});
  EXPECT_EQ(eng->alerts_fired(), 1u);
  ASSERT_FALSE(eng->events().empty());
  EXPECT_EQ(eng->events().back().rule, "heal");
  EXPECT_TRUE(eng->events().back().fired);
  EXPECT_EQ(eng->events().back().round,
            static_cast<i64>(round_idx));

  // The transition is mirrored into the trace as a zero-duration span on
  // the alert lane.
  bool alert_span = false;
  for (const obs::SpanRecord& s : w.ctl.shared().tracer->spans()) {
    if (std::string(s.name) == "alert.fired") alert_span = true;
  }
  EXPECT_TRUE(alert_span);

  // Re-replication drains the backlog; the next round boundaries observe
  // degraded == 0 and clear the alert.
  int extra = 0;
  while (!eng->active().empty() && extra < 5) {
    w.ctl.run_for(250 * timeconst::kMillisecond);
    w.ctl.checkpoint_now();
    extra++;
  }
  EXPECT_TRUE(eng->active().empty());
  EXPECT_LE(extra, 2);
  EXPECT_FALSE(eng->events().back().fired);

  // Every series value is a per-round delta or a level. A u64 counter
  // that wrapped below zero would land at or above 2^63, and a running
  // total fed in as a level would sum to more than the total itself.
  double net_wait = 0;
  for (const auto& sample : w.ctl.shared().health_series->samples()) {
    for (const auto& [name, v] : sample.values) {
      EXPECT_GE(v, 0.0) << name << " in round " << sample.round;
      EXPECT_LT(v, 0x1p63) << name << " in round " << sample.round;
    }
    const auto it = sample.values.find("rpc.net_wait_seconds");
    if (it != sample.values.end()) net_wait += it->second;
  }
  EXPECT_GT(net_wait, 0.0);
  EXPECT_LE(net_wait,
            w.ctl.shared().store_service->fabric().stats().net_wait_seconds);
}

TEST(HealthWorld, HealthJsonIsByteIdenticalAcrossIdenticalRuns) {
  const auto run = [](u64 seed) {
    World w(4, health_opts(""), seed);
    const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
    w.ctl.run_for(20 * timeconst::kMillisecond);
    add_ballast(w, pa, 512 * 1024, 0xAB);
    w.ctl.checkpoint_now();
    w.ctl.checkpoint_now();
    w.ctl.shared().membership->stop();
    w.ctl.run_for(200 * timeconst::kMillisecond);
    return w.ctl.health_json();
  };
  const std::string a = run(0x0B5A);
  const std::string b = run(0x0B5A);
  EXPECT_GT(a.size(), 1000u);
  EXPECT_EQ(a, b);
  // The document carries all three sections.
  EXPECT_NE(a.find("\"series\":"), std::string::npos);
  EXPECT_NE(a.find("\"critical_path\":"), std::string::npos);
  EXPECT_NE(a.find("\"slo\":"), std::string::npos);
  EXPECT_NE(a.find("\"phases\":"), std::string::npos);
}

TEST(HealthWorld, ErasureRestartBlamesTheDecoderPool) {
  // A healthy (4,2) gzip restart: the chunks' decode on the restarting
  // nodes' decoder pools is what the window waits on, and each pool job is
  // a restart.decode span the sweep can name.
  DmtcpOptions o = health_opts("");
  o.codec = compress::CodecKind::kGzipish;
  o.chunk_replicas = 1;
  o.erasure_k = 4;
  o.erasure_m = 2;
  World w(8, o, 0xDEC0);
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 2 * 1024 * 1024, 0xAA);
  add_ballast(w, pb, 2 * 1024 * 1024, 0xBB);
  w.ctl.checkpoint_now();
  w.ctl.kill_computation();
  const core::RestartRun& rr = w.ctl.restart();
  ASSERT_EQ(rr.procs, 2);

  // The restart window still partitions exactly, and the decode leads.
  EXPECT_EQ(rr.critical_path.attributed_ns(), rr.refilled - rr.script_started);
  ASSERT_FALSE(rr.critical_path.entries.empty());
  EXPECT_EQ(rr.critical_path.entries.front().stage, "restart.decode");
  EXPECT_NE(find_stage(rr.critical_path, "restart.load"), nullptr);

  // trace_report.py re-derives the same partition from the Chrome trace.
  const std::string trace = "/tmp/dsim_test_restart_decode.trace.json";
  const std::string doc = "/tmp/dsim_test_restart_decode.health.json";
  ASSERT_TRUE(w.ctl.shared().tracer->write_chrome_json(trace));
  std::ofstream(doc) << w.ctl.health_json();
  const std::string cmd = std::string("python3 ") + DSIM_SOURCE_DIR +
                          "/tools/trace_report.py " + trace +
                          " --critical-path " + doc + " > /dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  std::remove(trace.c_str());
  std::remove(doc.c_str());
}

TEST(HealthWorld, ErasureRoundBlamesTheEncodePool) {
  // A (4,2) gzip round: each new chunk's encode on its writer's core pool
  // is a ckpt.encode span, so the sweep names the encode that the write
  // barrier used to absorb as one serial job.
  DmtcpOptions o = health_opts("");
  o.codec = compress::CodecKind::kGzipish;
  o.chunk_replicas = 1;
  o.erasure_k = 4;
  o.erasure_m = 2;
  World w(8, o, 0xE2C0);
  const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
  const Pid pb = w.ctl.launch(1, kComputeLoop, {"1000000", "200", "b"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  add_ballast(w, pa, 2 * 1024 * 1024, 0xAA);
  add_ballast(w, pb, 2 * 1024 * 1024, 0xBB);
  const core::CkptRound r = w.ctl.checkpoint_now();
  ASSERT_GT(r.encode_jobs, 0u);

  // The round window still partitions exactly, and the encode ranks ahead
  // of whatever the write barrier still absorbs.
  EXPECT_EQ(r.critical_path.attributed_ns(), r.refilled - r.requested);
  const auto& entries = r.critical_path.entries;
  const auto rank = [&](const std::string& stage) {
    return std::find_if(entries.begin(), entries.end(),
                        [&](const auto& e) { return e.stage == stage; }) -
           entries.begin();
  };
  ASSERT_NE(find_stage(r.critical_path, "ckpt.encode"), nullptr);
  EXPECT_LT(rank("ckpt.encode"), rank("barrier.write"));

  // trace_report.py re-derives the same partition from the Chrome trace.
  const std::string trace = "/tmp/dsim_test_ckpt_encode.trace.json";
  const std::string doc = "/tmp/dsim_test_ckpt_encode.health.json";
  ASSERT_TRUE(w.ctl.shared().tracer->write_chrome_json(trace));
  std::ofstream(doc) << w.ctl.health_json();
  const std::string cmd = std::string("python3 ") + DSIM_SOURCE_DIR +
                          "/tools/trace_report.py " + trace +
                          " --critical-path " + doc + " > /dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  std::remove(trace.c_str());
  std::remove(doc.c_str());
}

TEST(HealthWorld, HealthOutFlagWritesTheDocument) {
  const std::string path = "/tmp/dsim_test_health_out.json";
  std::remove(path.c_str());
  {
    World w(4, health_opts(path), 0x0B5B);
    const Pid pa = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "a"});
    w.ctl.run_for(20 * timeconst::kMillisecond);
    add_ballast(w, pa, 256 * 1024, 0xAC);
    w.ctl.checkpoint_now();
  }  // destruction flushes
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string doc((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(doc.find("\"critical_path\":"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dsim::test
