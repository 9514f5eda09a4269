// Deterministic request tracing over the virtual clock.
//
// A `TraceContext` rides inside `rpc::RpcFabric` calls and the store's
// `ShardRequest` envelopes; the layers it passes through open a span at
// each queueing stage (caller NIC, endpoint message CPU, tenant admission
// hold, FairQueue wait, shard index/device service, return NIC hop) and
// close it when the stage's callback fires. Spans are stamped with
// `SimTime` only — no host clock, no allocation addresses — so two runs
// with the same seed and jitter profile emit byte-identical traces.
//
// Zero cost when disabled: the tracer hangs off `sim::EventLoop` as a
// plain pointer (null by default), every instrumentation site goes through
// the loop's span helpers, which return at once when it is null, and the
// tracer itself never posts events or charges simulated time — enabling
// it cannot move the virtual clock, which is what the bench's
// trace_overhead_ratio gate asserts.
//
// Span tiling: for a traced request, the child stage spans partition the
// root span's [begin, end) exactly, in integer nanoseconds — every unit of
// measured latency is attributed to exactly one stage, no gaps, no
// double-charging. The tracer checks this identity when each root closes
// (`tiling_violations()`), except for traces explicitly marked untiled
// (`mark_untiled`): requests parked on a dead endpoint and replayed emit
// duplicate stage spans by design.
//
// Export is Chrome trace_event JSON (`Tracer::write_chrome_json`): one
// "process" per simulated node plus one synthetic process for the store
// service's shard/device lanes, one "thread" per lane — load the file in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/types.h"

namespace dsim::obs {

/// Synthetic Chrome-trace "process" that hosts the store service's shard
/// queue and device lanes (a device is not pinned to one node id the way
/// request lanes are; shards migrate on failover).
inline constexpr i32 kServicePid = 1'000'000;

/// Carried by value through RPC calls and request envelopes. trace_id 0
/// means "untraced" — every instrumentation site skips span creation.
struct TraceContext {
  u64 trace_id = 0;
  u64 parent_span = 0;
  i32 tenant = 0;
  u8 qos = 0;
  u8 op = 0;
};

struct SpanRecord {
  u64 id = 0;
  u64 trace_id = 0;   // 0 for standalone spans (devices, daemons)
  u64 parent = 0;
  SimTime begin = 0;
  SimTime end = 0;
  i32 pid = 0;        // node id, or kServicePid
  u32 tid = 0;        // lane registered via the (pid, lane-name) pair
  i32 tenant = 0;
  u8 qos = 0;
  u8 op = 0;
  u64 n = 1;          // batch weight (keys per lookup batch)
  const char* name = "";  // string literal: the stage name
};

class Tracer {
 public:
  /// Allocate a fresh trace id (sequential, deterministic).
  u64 new_trace() { return next_trace_++; }

  /// Open a span at virtual time `now`. A ctx with trace_id != 0 and
  /// parent_span == 0 marks this span as the trace's root (its children
  /// must tile it exactly); trace_id == 0 makes a standalone span.
  /// Returns the span id (never 0).
  u64 begin(const char* name, i32 pid, const std::string& lane, SimTime now,
            const TraceContext& ctx = {}, u64 n = 1);
  /// Close a span. `span == 0` is a no-op so call sites can thread
  /// "maybe-traced" ids through callbacks unguarded.
  void end(u64 span, SimTime now);

  /// Exempt a trace from the tiling identity: its request was parked,
  /// replayed, or failed over, so stage spans legitimately overlap or
  /// duplicate.
  void mark_untiled(u64 trace_id);

  u64 open_spans() const { return open_.size(); }
  u64 tiling_violations() const { return tiling_violations_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Registered (pid, lane-name) pairs; a SpanRecord's tid-1 indexes this
  /// (the critical-path blame report resolves lanes through it).
  const std::vector<std::pair<i32, std::string>>& lane_names() const {
    return lane_names_;
  }
  /// Per-stage duration histograms (seconds), weighted by each span's batch
  /// size: the registry's stage.* entries, whose per-round sums say where
  /// inside a round its requests waited (CkptRound::delta).
  const std::map<std::string, Histogram>& stage_histograms() const {
    return stage_hist_;
  }

  /// Chrome trace_event JSON: process/thread metadata plus one complete
  /// ("X") event per closed span, sorted by (begin, span id). Timestamps
  /// are microseconds with ns precision (%.3f) — byte-stable.
  std::string chrome_json() const;
  /// Write chrome_json() to `path`; returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct TraceInfo {
    u64 root_span = 0;
    SimTime child_ns = 0;  // summed durations of closed child spans
    bool untiled = false;
  };

  u32 lane(i32 pid, const std::string& name);

  u64 next_span_ = 1;
  u64 next_trace_ = 1;
  u64 tiling_violations_ = 0;
  std::vector<SpanRecord> spans_;                   // closed spans
  std::map<u64, SpanRecord> open_;                  // by span id
  std::map<u64, TraceInfo> traces_;                 // live traces
  std::map<std::pair<i32, std::string>, u32> lanes_;
  std::vector<std::pair<i32, std::string>> lane_names_;  // tid-1 -> lane
  std::map<std::string, Histogram> stage_hist_;
};

}  // namespace dsim::obs
