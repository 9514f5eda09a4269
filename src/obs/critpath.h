// Critical-path attribution over the tracer's span timeline.
//
// A checkpoint round (or a restart) is one window [begin, end) of virtual
// time; the question the blame report answers is "which stage was the
// system actually waiting on at each instant of that window?". The answer
// is computed as a backward sweep: starting from the window's end, pick
// the most-specific span active at that instant (the latest-started one —
// children start at or after their parents, and among concurrent lanes
// the last dependency to start is the one the window's tail waited on),
// attribute the segment back to that span's begin, and jump there.
// Instants covered by no span at all are attributed to the enclosing
// coordinator phase (`barrier.suspend` ... `barrier.refill`), split
// exactly at the phase boundaries the round stamps.
//
// Because the sweep *partitions* the window in integer nanoseconds —
// every instant lands in exactly one segment, segments never overlap —
// the attributed nanoseconds sum to (end - begin) by construction. The
// coordinator asserts this against `CkptRound::total_seconds()` every
// round, and `tools/trace_report.py --critical-path` re-runs
// the identical sweep over the exported Chrome trace as an independent
// cross-check.
//
// Everything here reads closed spans only and touches no clock: the
// report is a pure function of (spans, window, phases), so same-seed runs
// produce byte-identical blame reports.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/types.h"

namespace dsim::obs {

/// A named sub-interval of the window (the round's barrier phases): time
/// no span accounts for is blamed on the phase it fell in. Phases must be
/// non-overlapping and sorted by begin; gaps between phases (or outside
/// every phase) fall back to the "idle" entry.
struct PhaseMark {
  std::string name;
  SimTime begin = 0;
  SimTime end = 0;
};

/// One ranked component of the critical path: `ns` of the window was
/// spent waiting on `stage` (a span name, a phase name, or "idle") on
/// lane `lane` of process `pid` for `tenant`. Phase/idle entries carry
/// pid -1 and an empty lane.
struct CritPathEntry {
  std::string stage;
  i32 pid = -1;
  std::string lane;
  i32 tenant = 0;
  SimTime ns = 0;

  double seconds() const { return to_seconds(ns); }
};

struct CritPathReport {
  SimTime window_begin = 0;
  SimTime window_end = 0;
  /// Aggregated per (stage, pid, lane, tenant), ranked by attributed time
  /// (ties broken by the key, so the ranking is deterministic).
  std::vector<CritPathEntry> entries;

  /// Sum of every entry's ns — equals window_end - window_begin exactly
  /// (the sweep partitions the window; `critical_path` checks it).
  SimTime attributed_ns() const;
  SimTime total_ns() const { return window_end - window_begin; }
  double total_seconds() const { return to_seconds(total_ns()); }

  /// Fraction of the window attributed to `entries[i]` (0 when empty).
  double fraction(size_t i) const;
  /// Stable JSON: {"begin_us":...,"end_us":...,"total_seconds":...,
  /// "entries":[{"stage":...,"pid":...,"lane":...,"tenant":...,
  /// "seconds":...,"fraction":...},...]}. Timestamps are µs with ns
  /// precision (%.3f), matching the Chrome trace export.
  std::string json() const;
};

/// Run the backward sweep over `tracer`'s closed spans for the window
/// [begin, end). See the file comment for the algorithm; the returned
/// report's attributed_ns() always equals end - begin.
CritPathReport critical_path(const Tracer& tracer, SimTime begin,
                             SimTime end,
                             const std::vector<PhaseMark>& phases);

}  // namespace dsim::obs
