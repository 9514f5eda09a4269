#!/usr/bin/env python3
"""Compare two sets of benchmark runs (stdlib only).

    python3 bench/suite/compare.py BASE_DIR NEW_DIR [--per-layer]

Each directory holds run records as run.py writes them (--record-dir). For
every (workload, metric) pair the table gives each side's median, first
and third quartile and sample count, the change of the median, and a
verdict against the bound BENCHMARK.json fixes for the metric:

  ok          the new median is no worse than the base median by more than
              the bound;
  REGRESSION  it is worse by more than the bound;
  unresolved  either side's own spread (quartile distance over median)
              exceeds the bound, so the sets cannot tell; reported as
              better/worse only when every new run beats (or loses to)
              every base run.

The `wins` column applies the gain rule later claims use: runs are paired
by seed (by order when the seeds differ), the new run wins a pair when it
reads better, ties count for neither, and a gain stands only when the new
side wins at least nine tenths of all pairs and the medians differ by more
than the base runs' quartile distance.

It also reports each side's failed fraction (failed checks over attempted)
and whether the simulated-clock metrics repeat bit for bit for every seed
present in both sets. Per-layer metrics (from --trace 1 records) are
compared with --per-layer; they have no bound, so they get no verdict.

Exit status: 1 when a pair regressed or a run failed a check, else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
SIM_METRICS = ("ckpt_pause_s", "durable_s", "restart_s", "storage_ratio")


def load(directory):
    """{workload: [record, ...]} sorted by seed, from *.json records."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            rec = json.load(f)
        if "workload" in rec and "metrics" in rec:
            runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def summary(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / med if med else 0.0


def pairs(base, new):
    """Pair runs by seed when the seeds match, else by position."""
    bseeds = [r["seed"] for r in base]
    nseeds = [r["seed"] for r in new]
    if sorted(bseeds) == sorted(nseeds) and len(set(bseeds)) == len(bseeds):
        by_seed = {r["seed"]: r for r in new}
        return [(b, by_seed[b["seed"]]) for b in base]
    return list(zip(base, new))


def compare_metric(metric, base, new, bound, width):
    """(table row, regressed?) for one metric, or None without values."""
    name, lower = metric["name"], metric["better"] == "lower"
    bvals = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
    nvals = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
    if not bvals or not nvals:
        return None
    bmed, bq1, bq3 = summary(bvals)
    nmed, nq1, nq3 = summary(nvals)
    change = (nmed - bmed) / bmed if bmed else 0.0
    worse = change if lower else -change

    def better(x, y):
        return x < y if lower else x > y

    wins = ties = total = 0
    for b, n in pairs(base, new):
        if name in b["metrics"] and name in n["metrics"]:
            bv, nv = b["metrics"][name]["value"], n["metrics"][name]["value"]
            total += 1
            wins += better(nv, bv)
            ties += nv == bv
    gain = (total > 0 and wins >= 0.9 * total
            and abs(nmed - bmed) > bq3 - bq1)
    verdict = ""
    if bound is not None:
        if max(spread(bvals), spread(nvals)) > bound:
            if all(better(n, b) for n in nvals for b in bvals):
                verdict = "unresolved (every run better)"
            elif all(better(b, n) for n in nvals for b in bvals):
                verdict = "unresolved (every run worse)"
            else:
                verdict = "unresolved"
        else:
            verdict = "REGRESSION" if worse > bound else "ok"
    row = (f"{name:<{width}} {bmed:>9.4g} [{bq1:.4g}, {bq3:.4g}] "
           f"n={len(bvals):<3} {nmed:>9.4g} [{nq1:.4g}, {nq3:.4g}] "
           f"n={len(nvals):<3} {change:>+7.1%}  {wins}/{total}"
           f"{' GAIN' if gain else ''}{f' (ties {ties})' if ties else ''}"
           f"  {verdict}")
    return row, verdict == "REGRESSION"


def failed_frac(records):
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return failed, attempted


def sim_identity(base, new):
    """(identical, compared) over seeds present in both sets."""
    same = compared = 0
    by_seed = {}
    for r in base:
        by_seed.setdefault(r["seed"], r)
    for r in new:
        b = by_seed.get(r["seed"])
        if b is None:
            continue
        for name in SIM_METRICS:
            if name in b["metrics"] and name in r["metrics"]:
                compared += 1
                same += (b["metrics"][name]["value"]
                         == r["metrics"][name]["value"])
    return same, compared


def main():
    ap = argparse.ArgumentParser(
        description="Compare two directories of benchmark run records.")
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--per-layer", action="store_true",
                    help="compare the per-layer metrics of --trace 1 runs")
    args = ap.parse_args()
    with open(SPEC) as f:
        spec = json.load(f)
    base, new = load(args.base), load(args.new)
    trace = 1 if args.per_layer else 0
    metrics = spec["per_layer"] if args.per_layer else spec["end_to_end"]
    width = max(len(m["name"]) for m in metrics)

    rc = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        b = [r for r in base.get(wl, []) if r["trace"] == trace]
        n = [r for r in new.get(wl, []) if r["trace"] == trace]
        if not b or not n:
            print(f"== {wl}: no runs in {'base' if not b else 'new'}")
            continue
        bf, ba = failed_frac(b)
        nf, na = failed_frac(n)
        same, compared = sim_identity(b, n)
        print(f"== {wl}: failed_frac base {bf}/{ba}, new {nf}/{na}; "
              f"simulated metrics bit-identical on shared seeds: "
              f"{same}/{compared}")
        print(f"{'metric':<{width}} base median [q1, q3] n, "
              "new median [q1, q3] n, change, pair wins, verdict")
        for m in metrics:
            got = compare_metric(m, b, n, m.get("bound"), width)
            if got is not None:
                print(got[0])
                rc |= got[1]
        rc |= bool(bf or nf)
    return 1 if rc else 0


if __name__ == "__main__":
    sys.exit(main())
