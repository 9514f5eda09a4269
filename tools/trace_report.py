#!/usr/bin/env python3
"""Validate a --trace-out Chrome trace and report where requests waited.

Stdlib-only, run by the CI bench-smoke job over the trace that bench_obs
emits. Two jobs in one pass:

1. Schema validation. The file must be a Chrome trace_event JSON object —
   `displayTimeUnit` plus a `traceEvents` array of 'M' metadata and 'X'
   complete events — loadable by Perfetto / chrome://tracing. Every 'X'
   event must carry the span fields the tracer promises (ts/dur in
   microseconds, pid/tid naming a registered process/lane, args with
   trace/span/parent/tenant/qos/op/n), every pid/tid must have been named
   by a metadata event, span ids must be unique, and events must be sorted
   by (ts, span id) — the byte-determinism contract.

2. Queue-wait attribution. Spans are aggregated by stage name, weighted by
   their batch size (`args.n`: one lookup batch span covers n keys), and
   the top contributors by total wait are printed — the "where did the
   pause go" table, derived from the trace alone.

3. Critical-path cross-check (--critical-path HEALTH.json). Re-runs the
   C++ backward sweep (src/obs/critpath.cc) over the Chrome trace alone —
   latest-started active span wins each instant, uncovered gaps split
   across the health document's phase marks, everything in integer
   nanoseconds recovered from the microsecond timestamps — and compares
   the per-stage attribution against every round's and restart's report
   embedded in the --health-out document. The sweep partitions each
   window exactly, so the two must agree to well under 1% per stage; any
   stage diverging more than 1% of its window fails the run. The same
   pass range-checks the document's health series: every value is a
   per-round delta or a level, so any value outside [0, 2^63) fails (a
   u64 counter delta that wrapped below zero lands there).

Usage: trace_report.py TRACE.json [--top N] [--critical-path HEALTH.json]
Exits nonzero after printing every schema violation.
"""

import bisect
import json
import sys

REQUIRED_ARGS = ("trace", "span", "parent", "tenant", "qos", "op", "n")
# Health-series values lie in [0, SERIES_LIMIT): a wrapped u64 delta does not.
SERIES_LIMIT = 2.0 ** 63


def fail(path, msg):
    print(f"FAIL {path}: {msg}", file=sys.stderr)
    return 1


def validate(path, data):
    rc = 0
    if not isinstance(data, dict):
        return fail(path, "top level is not a JSON object")
    if data.get("displayTimeUnit") not in ("ms", "ns"):
        rc |= fail(path, "missing or invalid 'displayTimeUnit'")
    events = data.get("traceEvents")
    if not isinstance(events, list) or not events:
        return rc | fail(path, "'traceEvents' missing or empty")

    named_pids = set()
    named_lanes = set()
    spans = []
    seen_span_ids = set()
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") == "process_name":
                named_pids.add(ev.get("pid"))
            elif ev.get("name") == "thread_name":
                named_lanes.add((ev.get("pid"), ev.get("tid")))
            else:
                rc |= fail(path, f"event {i}: unknown metadata '{ev.get('name')}'")
            continue
        if ph != "X":
            rc |= fail(path, f"event {i}: unexpected phase '{ph}' "
                             "(only M and X are emitted)")
            continue
        for field in ("name", "ts", "dur", "pid", "tid", "args"):
            if field not in ev:
                rc |= fail(path, f"event {i}: X event missing '{field}'")
                break
        else:
            args = ev["args"]
            missing = [a for a in REQUIRED_ARGS if a not in args]
            if missing:
                rc |= fail(path, f"event {i}: args missing {missing}")
                continue
            if ev["dur"] < 0 or ev["ts"] < 0:
                rc |= fail(path, f"event {i}: negative ts/dur")
            if ev["pid"] not in named_pids:
                rc |= fail(path, f"event {i}: pid {ev['pid']} has no "
                                 "process_name metadata")
            if (ev["pid"], ev["tid"]) not in named_lanes:
                rc |= fail(path, f"event {i}: lane ({ev['pid']}, {ev['tid']}) "
                                 "has no thread_name metadata")
            if args["span"] in seen_span_ids:
                rc |= fail(path, f"event {i}: duplicate span id {args['span']}")
            seen_span_ids.add(args["span"])
            spans.append(ev)

    keys = [(ev["ts"], ev["args"]["span"]) for ev in spans]
    if keys != sorted(keys):
        rc |= fail(path, "X events are not sorted by (ts, span id): the "
                         "byte-determinism contract is broken")
    return rc, spans


def report(spans, top):
    # Wait attribution: per stage, total span-seconds weighted by batch
    # size. A span covering an n-key batch held each of those keys for its
    # duration, so it contributes n x dur of per-request wait.
    by_stage = {}
    for ev in spans:
        count, total_us = by_stage.get(ev["name"], (0, 0.0))
        n = ev["args"]["n"]
        by_stage[ev["name"]] = (count + n, total_us + ev["dur"] * n)
    ranked = sorted(by_stage.items(), key=lambda kv: -kv[1][1])

    grand_us = sum(us for _, (_, us) in ranked) or 1.0
    print(f"{'stage':<24} {'requests':>9} {'total_ms':>10} "
          f"{'mean_us':>9} {'share':>6}")
    for name, (count, total_us) in ranked[:top]:
        print(f"{name:<24} {count:>9} {total_us / 1e3:>10.3f} "
              f"{total_us / count:>9.3f} {total_us / grand_us:>6.1%}")


def ns(us):
    """Microseconds (printed at %.3f — thousandths are exact ns) back to
    integer nanoseconds."""
    return round(us * 1000)


def sweep(spans, lanes, begin, end, phases):
    """The critpath.cc backward sweep, verbatim in integer ns: returns
    {(stage, pid, lane, tenant): ns} partitioning [begin, end)."""
    live = []
    for ev in spans:
        b = ns(ev["ts"])
        e = b + ns(ev["dur"])
        if e > b and e > begin and b < end:
            live.append((b, ev["args"]["span"], e, ev))
    live.sort(key=lambda s: (s[0], s[1]))
    begins = [s[0] for s in live]
    ends = sorted(s[2] for s in live)

    agg = {}

    def charge(key, dt):
        agg[key] = agg.get(key, 0) + dt

    def attribute_gap(lo, hi):
        t = lo
        for name, pb, pe in phases:
            if t >= hi:
                break
            pb, pe = max(t, pb), min(hi, pe)
            if pe <= pb:
                continue
            if pb > t:
                charge(("idle", -1, "", 0), pb - t)
            charge((name, -1, "", 0), pe - pb)
            t = pe
        if t < hi:
            charge(("idle", -1, "", 0), hi - t)

    t = end
    while t > begin:
        pick = None
        for i in range(bisect.bisect_left(begins, t) - 1, -1, -1):
            if live[i][2] >= t:
                pick = live[i]
                break
        if pick is not None:
            b, _, _, ev = pick
            lo = max(b, begin)
            key = (ev["name"], ev["pid"],
                   lanes.get((ev["pid"], ev["tid"]), ""),
                   ev["args"]["tenant"])
            charge(key, t - lo)
            t = lo
        else:
            i = bisect.bisect_left(ends, t)
            lo = begin if i == 0 else max(begin, ends[i - 1])
            attribute_gap(lo, t)
            t = lo
    return agg


def check_series(health_path, health):
    """Fail on any health-series value outside [0, 2^63)."""
    rc = 0
    count = 0
    for sample in health.get("series", {}).get("rounds", []):
        for name, v in sample.get("values", {}).items():
            count += 1
            if not 0 <= v < SERIES_LIMIT:
                rc |= fail(health_path,
                           f"round {sample.get('round')}: series value "
                           f"{name} = {v} is outside [0, 2^63)")
    if not rc:
        print(f"OK   {health_path}: {count} series values in [0, 2^63)")
    return rc


def cross_check(trace_path, health_path, spans, lanes):
    """Recompute every round's and restart's critical path from the trace
    and diff it against the reports in the --health-out document."""
    try:
        with open(health_path) as f:
            health = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(health_path, str(e))
    series_rc = check_series(health_path, health)
    cp = health.get("critical_path")
    if not isinstance(cp, dict):
        return series_rc | fail(health_path, "missing 'critical_path' object")
    windows = [(f"round {w['round']}", w) for w in cp.get("rounds", [])]
    windows += [(f"restart {w['restart']}", w) for w in cp.get("restarts", [])]
    if not windows:
        return series_rc | fail(health_path,
                                "no critical-path windows to cross-check")
    rc = 0
    for label, w in windows:
        rep = w["report"]
        begin, end = ns(rep["begin_us"]), ns(rep["end_us"])
        phases = [(p["name"], ns(p["begin_us"]), ns(p["end_us"]))
                  for p in w["phases"]]
        mine = sweep(spans, lanes, begin, end, phases)
        total = end - begin
        if sum(mine.values()) != total:
            rc |= fail(trace_path,
                       f"{label}: python sweep attributed "
                       f"{sum(mine.values())} ns of a {total} ns window")
            continue
        theirs = {(e["stage"], e["pid"], e["lane"], e["tenant"]): e["ns"]
                  for e in rep["entries"]}
        worst = 0.0
        for key in set(mine) | set(theirs):
            delta = abs(mine.get(key, 0) - theirs.get(key, 0))
            worst = max(worst, delta / total)
            if delta > 0.01 * total:
                rc |= fail(
                    trace_path,
                    f"{label}: stage {key} diverges {delta} ns "
                    f"({delta / total:.2%} of the window) between the "
                    "trace-derived sweep and the health report")
        if not rc:
            print(f"OK   {label}: {len(theirs)} stages agree "
                  f"(worst divergence {worst:.4%} of {total} ns)")
    return rc | series_rc


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    top = 5
    health_path = None
    for i, a in enumerate(argv):
        if a == "--top" and i + 1 < len(argv):
            top = int(argv[i + 1])
            args = [x for x in args if x != argv[i + 1]]
        if a == "--critical-path" and i + 1 < len(argv):
            health_path = argv[i + 1]
            args = [x for x in args if x != argv[i + 1]]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    path = args[0]
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, str(e))
    rc, spans = validate(path, data)
    if rc:
        return rc
    print(f"OK   {path}: {len(spans)} spans, schema valid; top {top} "
          "queue-wait contributors:")
    report(spans, top)
    if health_path is not None:
        lanes = {}
        for ev in data["traceEvents"]:
            if ev.get("ph") == "M" and ev.get("name") == "thread_name":
                lanes[(ev["pid"], ev["tid"])] = ev["args"]["name"]
        rc |= cross_check(path, health_path, spans, lanes)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
