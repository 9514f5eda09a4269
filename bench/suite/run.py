#!/usr/bin/env python3
"""Build and run the repo benchmark (stdlib only).

One workload, the contract BENCHMARK.json names:

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

  --trace 0  repeats untraced episodes for S seconds and reports the
             end-to-end metrics (medians over episodes);
  --trace 1  does the same, then one traced episode of the same seed plus
             the kernel replay, and reports the per-layer metrics. The
             traced run's simulated end-to-end metrics must equal the
             untraced run's exactly, and tools/trace_report.py
             --critical-path must agree with the health document.

Every workload, untraced and traced, with every metric printed:

    python3 bench/suite/run.py [--seed N] [--seconds S]

Each metric is printed as `name value unit (n=samples)`; the last stdout
line is one JSON object {"correct", "attempted", "failed", "metrics"}.
Every run's full record (all metrics with their sample counts, the
failures) is also written under --record-dir (default .bench_out/runs),
which is what compare.py reads. The exit code is non-zero when a check
failed or the benchmark could not run.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "suite")
OUT = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD, "suite_driver")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
TRACE_REPORT = os.path.join(ROOT, "tools", "trace_report.py")
# Metrics of the simulated clock: exact for a given seed.
SIM_METRICS = ("ckpt_pause_s", "durable_s", "restart_s", "storage_ratio")
DRIVER_TIMEOUT = 150


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then (re)build the driver; output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "core", "launch.h")):
        die(f"no dsim sources under {ROOT}/src: run from a full checkout")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target",
                  "suite_driver"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            die("build failed: " + " ".join(cmd))


def driver(workload, seed, seconds, mode):
    """Run suite_driver once; returns its JSON record."""
    traces = os.path.join(OUT, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--mode", mode, "--out", traces]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT)
    except subprocess.TimeoutExpired:
        die(f"{workload} {mode}: no result within {DRIVER_TIMEOUT} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        die(f"{workload} {mode}: driver exited with {proc.returncode}")
    return json.loads(lines[-1])


def cross_check_trace(workload, seed):
    """tools/trace_report.py --critical-path over the traced artifacts."""
    prefix = os.path.join(OUT, "traces", f"{workload}-seed{seed}")
    proc = subprocess.run(
        [sys.executable, TRACE_REPORT, prefix + ".trace.json",
         "--critical-path", prefix + ".health.json"],
        capture_output=True, text=True, timeout=DRIVER_TIMEOUT)
    sys.stderr.write(proc.stdout + proc.stderr)
    return proc.returncode == 0


def run_one(spec, workload, seed, seconds, trace):
    """One benchmark run; returns the record (metrics with units and n)."""
    measure = driver(workload, seed, seconds, "measure")
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "episodes": measure["episodes"],
              "attempted": measure["ops"], "failed": measure["ops_failed"],
              "failures": list(measure["failures"]),
              "metrics": dict(measure["metrics"])}

    def check(ok, what):
        record["attempted"] += 1
        if not ok:
            record["failed"] += 1
            record["failures"].append(what)

    if trace:
        traced = driver(workload, seed, seconds, "traced")
        record["attempted"] += traced["ops"]
        record["failed"] += traced["ops_failed"]
        record["failures"] += traced["failures"]
        check(all(traced["metrics"][k]["value"]
                  == measure["metrics"][k]["value"] for k in SIM_METRICS),
              "the traced run's simulated metrics equal the untraced run's")
        check(cross_check_trace(workload, seed),
              "trace_report.py --critical-path agrees with the health doc")
        e2e = {m["name"] for m in spec["end_to_end"]}
        for name, m in traced["metrics"].items():
            if name not in e2e:
                record["metrics"][name] = m
        record["metrics"]["obs.trace_host_ratio"] = {
            "value": (traced["metrics"]["host_s"]["value"]
                      / measure["metrics"]["host_s"]["value"]),
            "unit": "ratio", "n": 1}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in record["metrics"]]
    if missing:
        die(f"{workload}: driver reported no {', '.join(missing)}")
    record["correct"] = record["failed"] == 0
    return record


def save(record, record_dir):
    os.makedirs(record_dir, exist_ok=True)
    name = (f"{record['workload']}-seed{record['seed']}-trace"
            f"{record['trace']}-{time.time_ns()}.json")
    with open(os.path.join(record_dir, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)


def report(record, wanted):
    """Human-readable lines, then the contract's metric subset."""
    print(f"# {record['workload']} seed {record['seed']} trace "
          f"{record['trace']}: {record['episodes']} untraced episode(s), "
          f"{record['attempted']} checks, {record['failed']} failed")
    for why in record["failures"]:
        print(f"#   FAILED: {why}")
    out = {}
    for m in wanted:
        got = record["metrics"][m["name"]]
        print(f"{record['workload']:<14} {m['name']:<44} "
              f"{got['value']:<14.6g} {m['unit']:<6} (n={got['n']})")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--record-dir", default=os.path.join(OUT, "runs"))
    args = ap.parse_args()

    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read {SPEC}: {e}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        die(f"unknown workload {args.workload!r}; one of {', '.join(names)}")
    seconds = args.seconds or spec["run_seconds"]
    build()

    workloads = [args.workload] if args.workload else names
    traces = [args.trace] if args.trace is not None else [0, 1]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        for trace in traces:
            record = run_one(spec, workload, args.seed, seconds, trace)
            save(record, args.record_dir)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            metrics = report(record, wanted)
            total["correct"] &= record["correct"]
            total["attempted"] += record["attempted"]
            total["failed"] += record["failed"]
            if len(workloads) * len(traces) == 1:
                total["metrics"] = metrics
            else:
                total["metrics"].update(
                    {f"{workload}.{k}": v for k, v in metrics.items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
