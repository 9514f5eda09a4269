#!/usr/bin/env python3
"""Sanity-check and regression-gate the JSON emitted by the bench binaries.

Two modes, both stdlib-only:

Absolute checks (always run): after the CI bench-smoke job runs
bench_incremental, bench_cdc, bench_service, bench_failover,
bench_async, bench_erasure and bench_tenants with tiny parameters,
assert the emitted files are well-formed and the headline numbers are in
the physically sensible range (dedup actually happened, CDC actually
resynchronized, the cluster store actually stored shared chunks once,
the chunk-store service actually queued lookups, survived a replica
failover with a restart that decoded each distinct chunk once per node,
looked up only the chunks a process wrote and stored each shared library
chunk once without one rank storing them all, the mid-round endpoint
kill re-homed and replayed with zero lost chunks, the shard rebalance
moved ~1/new_shards of the bytes, the async pipeline took the pause off
the critical path, (k,m) erasure striping beat 2x replication
on stored bytes while surviving m losses, weighted fair queueing kept a
victim tenant's p99 within 2x of solo beside a noisy neighbor while the
FIFO ablation degraded it >= 4x, and request tracing cost zero simulated
time while its spans reproduced the victim-tenant p99 within 1%).

Baseline diff (--baseline DIR): compare a fresh run against the committed
baseline JSON in DIR (bench/baselines/, generated with the same smoke
parameters — the simulation is deterministic, so the numbers are stable).
Fail on a >10% regression in any gated metric: dedup ratios must not drop,
checkpoint times and service waits must not grow. To accept an intentional
change, regenerate the baselines with the smoke parameters and commit them
alongside the change.

Usage: check_bench_json.py [--baseline DIR] BENCH_incremental.json ...
"""

import json
import os
import sys

TOLERANCE = 0.10  # >10% in the bad direction fails the gate


def fail(path, msg):
    print(f"FAIL {path}: {msg}", file=sys.stderr)
    return 1


def require(data, path, dotted):
    """Fetch data[a][b]... for dotted key 'a.b...', raising KeyError."""
    cur = data
    for part in dotted.split("."):
        cur = cur[part]
    return cur


def check_incremental(path, data):
    rc = 0
    for key in ("config", "generations", "summary"):
        if key not in data:
            rc |= fail(path, f"missing top-level key '{key}'")
    if rc:
        return rc
    gens = data["generations"]
    if not gens:
        return fail(path, "no generations recorded")
    for key in ("gen", "full_bytes", "incremental_bytes", "dedup_ratio"):
        if key not in gens[0]:
            rc |= fail(path, f"generation record missing '{key}'")
    if rc:
        return rc
    try:
        ratio = require(data, path, "summary.stored_bytes_ratio")
    except (KeyError, TypeError):
        return fail(path, "missing key 'summary.stored_bytes_ratio'")
    if not 0.0 < ratio < 1.0:
        rc |= fail(
            path,
            f"stored_bytes_ratio={ratio}: incremental mode should store "
            "strictly less than full checkpointing",
        )
    # After the first generation the dedup ratio must exceed 1 (later
    # generations reference resident chunks).
    final_ratio = gens[-1].get("dedup_ratio", 0)
    if len(gens) > 1 and final_ratio <= 1.0:
        rc |= fail(path, f"final dedup_ratio={final_ratio} <= 1")
    return rc


def check_cdc(path, data):
    rc = 0
    for key in (
        "config",
        "insertion.fixed.dedup_retained",
        "insertion.cdc.dedup_retained",
        "cluster.stored_ratio",
        "cluster.shared_stored_once",
        "rewrite.rescan_fraction",
        "rewrite.manifests_identical",
        "summary",
    ):
        try:
            require(data, path, key)
        except (KeyError, TypeError):
            rc |= fail(path, f"missing key '{key}'")
    if rc:
        return rc
    fixed = data["insertion"]["fixed"]["dedup_retained"]
    cdc = data["insertion"]["cdc"]["dedup_retained"]
    if cdc < 0.8:
        rc |= fail(path, f"cdc dedup_retained={cdc} < 0.8 after insertion")
    if fixed > 0.2:
        rc |= fail(
            path,
            f"fixed dedup_retained={fixed} > 0.2: the insertion offset no "
            "longer defeats fixed chunking (bench misconfigured?)",
        )
    ratio = data["cluster"]["stored_ratio"]
    if not 0.0 < ratio < 1.0:
        rc |= fail(path, f"cluster stored_ratio={ratio} not in (0, 1)")
    if data["cluster"]["shared_stored_once"] is not True:
        rc |= fail(path, "shared library chunks were not stored exactly once")
    # The incremental encoder's host scan: a quarter of the pages take a
    # 16 KiB write per generation, so the memo must leave most real bytes
    # unread (about a fifth are rescanned) — and change nothing stored.
    frac = data["rewrite"]["rescan_fraction"]
    if not 0.0 < frac < 0.5:
        rc |= fail(path, f"rewrite rescan_fraction={frac} not in (0, 0.5): "
                         "the host rescans more than the dirty windows")
    if data["rewrite"]["manifests_identical"] is not True:
        rc |= fail(path, "a rewrite generation's manifest differs from the "
                         "scan without the memo")
    return rc


def check_service(path, data):
    rc = 0
    for key in (
        "config",
        "sweep",
        "batch.rpcs",
        "batch.rpcs_batch1",
        "failover.r2_restart_ok",
        "failover.r2_restart_chunk_refs",
        "failover.r2_restart_decode_jobs",
        "failover.r2_restart_node_keys",
        "failover.r2_rereplicated_chunks",
        "failover.r2_degraded_after_heal",
        "failover.r1_needs_restore",
        "failover.r1_lost_chunks",
        "summary.wait_ms_at_min_ranks",
        "summary.wait_ms_at_max_ranks",
        "summary.wait_ms_shards4_at_max_ranks",
        "summary.contention_knee_visible",
        "summary.shard_speedup",
        "summary.shard_knee_shifted",
        "summary.batch_rpc_reduction",
        "summary.replica_write_amplification",
        "rewrite.total_chunks",
        "rewrite.new_chunks",
        "rewrite.lookups",
        "rewrite.control_lookups",
        "rewrite.ckpt_seconds",
        "rewrite.control_ckpt_seconds",
        "rewrite.manifests_identical",
        "shared.ranks",
        "shared.lib_keys",
        "shared.lib_stores",
        "shared.stores_per_writer",
        "shared.max_writer_stores",
    ):
        try:
            require(data, path, key)
        except (KeyError, TypeError):
            rc |= fail(path, f"missing key '{key}'")
    if rc:
        return rc
    if not data["sweep"]:
        return fail(path, "empty rank sweep")
    if any(pt["lookups"] <= 0 for pt in data["sweep"]):
        rc |= fail(path, "a sweep point served no dedup lookups")
    # Requests are RPCs over the simulated network: every sweep point must
    # show nonzero network bytes and in-flight time on the lookup path.
    for pt in data["sweep"]:
        if "shards" not in pt:
            rc |= fail(path, "sweep point missing 'shards'")
            break
        if pt.get("rpc_net_bytes", 0) <= 0 or pt.get("rpc_net_wait_ms", 0) <= 0:
            rc |= fail(
                path,
                f"sweep point ranks={pt.get('ranks')} shards={pt.get('shards')}"
                " shows no RPC network traffic: requests are teleporting",
            )
            break
    # The point of the service: lookups queue, so per-lookup wait must grow
    # with rank count (the Fig.-5b contention knee).
    lo = data["summary"]["wait_ms_at_min_ranks"]
    hi = data["summary"]["wait_ms_at_max_ranks"]
    if not (0 < lo < hi):
        rc |= fail(
            path,
            f"lookup wait did not grow with ranks (min={lo} ms, max={hi} "
            "ms): the service queue is not contending",
        )
    if data["summary"]["contention_knee_visible"] is not True:
        rc |= fail(path, "contention knee not visible in the rank sweep")
    # Sharding must move the knee right: the four-shard wait at max ranks
    # stays strictly below the one-shard wait.
    s4 = data["summary"]["wait_ms_shards4_at_max_ranks"]
    if not (0 < s4 < hi):
        rc |= fail(
            path,
            f"--store-shards=4 wait ({s4} ms) is not strictly below the "
            f"one-shard wait ({hi} ms) at max ranks",
        )
    if data["summary"]["shard_knee_shifted"] is not True:
        rc |= fail(path, "shard sweep did not shift the contention knee")
    # Batching must amortize: K keys per RPC means materially fewer RPCs.
    if data["summary"]["batch_rpc_reduction"] <= 1.0:
        rc |= fail(
            path,
            f"batch_rpc_reduction={data['summary']['batch_rpc_reduction']}: "
            "--lookup-batch=8 did not reduce the RPC count",
        )
    amp = data["summary"]["replica_write_amplification"]
    if not 1.5 < amp < 2.5:
        rc |= fail(
            path,
            f"replica_write_amplification={amp}: two replicas should write "
            "~2x the device bytes of one",
        )
    if data["failover"]["r2_restart_ok"] is not True:
        rc |= fail(path, "restart with --chunk-replicas=2 did not survive "
                         "the node failure")
    # A restart reads and decodes each distinct chunk once per node: the
    # ranks share a library, so fewer decode jobs run than references.
    refs = data["failover"]["r2_restart_chunk_refs"]
    jobs = data["failover"]["r2_restart_decode_jobs"]
    if not 0 < jobs < refs:
        rc |= fail(path, f"R=2 restart ran {jobs} decode jobs for {refs} "
                         "chunk references: a repeated chunk was fetched "
                         "and decoded once per reference")
    # Exactly once per node: one decode job per distinct (target node, key)
    # pair of the host-mapped plan, however many hosts share the node.
    node_keys = data["failover"]["r2_restart_node_keys"]
    if jobs != node_keys:
        rc |= fail(path, f"R=2 restart ran {jobs} decode jobs for {node_keys} "
                         "distinct (target node, chunk) pairs: a chunk was "
                         "fetched and decoded more than once on one node")
    if data["failover"]["r2_rereplicated_chunks"] <= 0:
        rc |= fail(path, "the re-replication daemon healed no chunks after "
                         "the R=2 node failure")
    if data["failover"]["r2_degraded_after_heal"] != 0:
        rc |= fail(path, "chunks were still replica-degraded after the "
                         "re-replication daemon ran")
    if data["failover"]["r1_needs_restore"] is not True:
        rc |= fail(path, "restart with --chunk-replicas=1 did not report "
                         "the forced re-store after the node failure")
    if data["failover"]["r1_lost_chunks"] <= 0:
        rc |= fail(path, "R=1 node failure lost no chunks (bench "
                         "misconfigured?)")
    # An incremental round looks up only what the process wrote: with a
    # quarter of the private pages written, at most half the chunks are
    # probed, and the round pauses shorter than the control world's, which
    # rewrote every page in place and so probes every chunk. The stored
    # data must not change.
    rw = data["rewrite"]
    if rw["manifests_identical"] is not True:
        rc |= fail(path, "rewrite: the control world's manifests differ "
                         "(skipping a Lookup changed what was stored)")
    if rw["control_lookups"] != rw["total_chunks"]:
        rc |= fail(path, f"rewrite control_lookups={rw['control_lookups']} "
                         f"!= total_chunks={rw['total_chunks']}: a chunk on "
                         "a rewritten page skipped its Lookup")
    if rw["lookups"] > rw["total_chunks"] / 2:
        rc |= fail(path, f"rewrite lookups={rw['lookups']} > half of "
                         f"total_chunks={rw['total_chunks']}: chunks on "
                         "unwritten pages are still looked up")
    if not rw["ckpt_seconds"] < rw["control_ckpt_seconds"]:
        rc |= fail(path, f"rewrite ckpt_seconds={rw['ckpt_seconds']} is not "
                         "below the control's "
                         f"{rw['control_ckpt_seconds']}")
    # The headline point's shared library: whichever rank's Lookup the
    # key's shard serves first stores a chunk, so each is stored exactly
    # once and the rank scanned first does not store them all.
    sh = data["shared"]
    per_writer = sh["stores_per_writer"]
    if sh["lib_keys"] <= 0 or len(per_writer) != sh["ranks"]:
        rc |= fail(path, f"shared: {sh['lib_keys']} library chunks over "
                         f"{len(per_writer)} of {sh['ranks']} ranks")
    elif sum(per_writer) != sh["lib_stores"] or \
            sh["lib_stores"] != sh["lib_keys"]:
        rc |= fail(path, f"shared: {sh['lib_stores']} stores of "
                         f"{sh['lib_keys']} shared library chunks: each "
                         "must be stored exactly once")
    elif max(per_writer) != sh["max_writer_stores"] or \
            sh["max_writer_stores"] >= sh["lib_keys"]:
        rc |= fail(path, f"shared: one rank stored {max(per_writer)} of the "
                         f"{sh['lib_keys']} shared library chunks: the scan "
                         "order, not the shards, decided who stores them")
    return rc


def check_failover(path, data):
    rc = 0
    for key in (
        "config",
        "failover.baseline_ckpt_seconds",
        "failover.kill_ckpt_seconds",
        "failover.rehomed_shards",
        "failover.replayed_requests",
        "failover.recovery_rounds",
        "failover.lost_chunks",
        "failover.restart_ok",
        "rebalance.old_shards",
        "rebalance.new_shards",
        "rebalance.moved_keys",
        "rebalance.scanned_keys",
        "rebalance.moved_fraction",
        "rebalance.expected_fraction",
        "rebalance.restart_ok",
        "summary.failover_recovery_rounds",
        "summary.post_failover_lost_chunks",
        "summary.kill_overhead_ratio",
        "summary.rebalance_moved_fraction",
    ):
        try:
            require(data, path, key)
        except (KeyError, TypeError):
            rc |= fail(path, f"missing key '{key}'")
    if rc:
        return rc
    fo = data["failover"]
    # The failover must actually have engaged: a shard re-homed and parked
    # requests replayed (callers saw latency, never errors).
    if fo["rehomed_shards"] < 1:
        rc |= fail(path, "no shard was re-homed by the mid-round kill")
    if fo["replayed_requests"] <= 0:
        rc |= fail(path, "no in-flight request was replayed after the "
                         "re-home: the kill missed the write phase")
    # Recovery must be bounded: the heal daemon restores full replica
    # strength within the kill round or the next one.
    if fo["recovery_rounds"] > 1:
        rc |= fail(
            path,
            f"failover_recovery_rounds={fo['recovery_rounds']}: the store "
            "took more than one extra round to re-replicate",
        )
    if fo["lost_chunks"] != 0:
        rc |= fail(path, f"post-failover lost_chunks={fo['lost_chunks']} "
                         "(must be 0 at R=2)")
    if fo["restart_ok"] is not True:
        rc |= fail(path, "restart after the endpoint kill did not succeed")
    # Detection + replay cost time; the kill round must not be *faster*
    # than the clean incremental baseline.
    if data["summary"]["kill_overhead_ratio"] < 1.0:
        rc |= fail(
            path,
            f"kill_overhead_ratio={data['summary']['kill_overhead_ratio']}: "
            "the kill round was faster than the clean baseline "
            "(mis-measured?)",
        )
    rb = data["rebalance"]
    # Consistent hashing: growing S -> S+1 moves ~1/(S+1) of the stored
    # bytes — nothing more (full reshuffle) and not nothing (no movement).
    expected = rb["expected_fraction"]
    moved = rb["moved_fraction"]
    if not expected * 0.5 <= moved <= expected * 1.7:
        rc |= fail(
            path,
            f"rebalance_moved_fraction={moved} not within tolerance of "
            f"1/new_shards={expected}: key movement is not "
            "consistent-hash-minimal",
        )
    if rb["moved_keys"] <= 0 or rb["moved_keys"] >= rb["scanned_keys"]:
        rc |= fail(
            path,
            f"moved {rb['moved_keys']} of {rb['scanned_keys']} keys: "
            "expected a strict, nonzero subset to move",
        )
    if rb["restart_ok"] is not True:
        rc |= fail(path, "restart over the rebalanced store did not succeed")
    return rc


def check_async(path, data):
    rc = 0
    for key in (
        "config",
        "pause.generations",
        "pause.speedup",
        "pause.async_queued_bytes",
        "pause.peak_encode_jobs",
        "identity.manifests_match",
        "identity.restored_match",
        "compression.raw_new_bytes",
        "compression.compressed_new_bytes",
        "failover.lost_chunks",
        "failover.restart_ok",
        "sweep",
        "summary.pause_speedup",
        "summary.compressed_lt_raw",
        "summary.compress_loses_at_slow_cpu",
        "summary.compress_wins_at_fast_cpu",
    ):
        try:
            require(data, path, key)
        except (KeyError, TypeError):
            rc |= fail(path, f"missing key '{key}'")
    if rc:
        return rc
    # The headline claim: the app-visible pause collapses once encode+store
    # runs behind the app's back (target ~10x; gate at 5x).
    speedup = data["summary"]["pause_speedup"]
    if speedup < 5.0:
        rc |= fail(path, f"pause_speedup={speedup} < 5x: the async pipeline "
                         "is not off the critical path")
    gens = data["pause"]["generations"]
    if not gens:
        return rc | fail(path, "no pause generations recorded")
    for g in gens:
        if g["async_seconds"] >= g["sync_seconds"]:
            rc |= fail(
                path,
                f"gen {g['gen']}: async pause {g['async_seconds']}s is not "
                f"below the sync pause {g['sync_seconds']}s",
            )
    if data["pause"]["async_queued_bytes"] <= 0:
        rc |= fail(path, "the background pipeline queued no bytes")
    # The drain encodes each new chunk as its own job on the writer's core
    # pool, so more than one encode runs at once.
    if data["pause"]["peak_encode_jobs"] <= 1:
        rc |= fail(path, f"peak_encode_jobs={data['pause']['peak_encode_jobs']}"
                         " <= 1: the drain's encodes did not share the pool")
    # Moving the charging off the critical path must not move a byte.
    if data["identity"]["manifests_match"] is not True:
        rc |= fail(path, "sync and async generation-0 manifests diverged")
    if data["identity"]["restored_match"] is not True:
        rc |= fail(path, "restored content differs between --compress=none "
                         "and --compress=lz77+huffman")
    raw = data["compression"]["raw_new_bytes"]
    packed = data["compression"]["compressed_new_bytes"]
    if not 0 < packed < raw:
        rc |= fail(path, f"compressed_new_bytes={packed} not strictly below "
                         f"raw_new_bytes={raw} at lz77+huffman")
    if data["failover"]["lost_chunks"] != 0:
        rc |= fail(path, f"lost_chunks={data['failover']['lost_chunks']} "
                         "after the mid-drain endpoint kill (must be 0)")
    if data["failover"]["restart_ok"] is not True:
        rc |= fail(path, "restart after the mid-drain endpoint kill failed")
    if not data["sweep"]:
        return rc | fail(path, "empty compress-bandwidth sweep")
    if any(pt["gzip_drain_seconds"] <= 0 for pt in data["sweep"]):
        rc |= fail(path, "a sweep point recorded no drain time")
    # The kCompressBw crossover: a slow compressor loses the drain race to
    # plain streaming, a fast one wins it.
    if data["summary"]["compress_loses_at_slow_cpu"] is not True:
        rc |= fail(path, "compression did not lose the drain race at the "
                         "slow-compressor sweep point")
    if data["summary"]["compress_wins_at_fast_cpu"] is not True:
        rc |= fail(path, "compression did not win the drain race at the "
                         "fast-compressor sweep point")
    return rc


def check_erasure(path, data):
    rc = 0
    for key in (
        "config",
        "overhead.erasure_stored_bytes",
        "overhead.replication_stored_bytes",
        "overhead.erasure_factor",
        "overhead.overhead_ratio",
        "restart_sweep",
        "rebuild.erasure_moved_per_chunk",
        "rebuild.replication_moved_per_chunk",
        "rebuild.per_chunk_ratio",
        "tiering.demoted_chunks",
        "tiering.restart_ok",
        "summary.overhead_ratio",
        "summary.rebuild_per_chunk_ratio",
        "summary.sweep_all_restarts_ok",
    ):
        try:
            require(data, path, key)
        except (KeyError, TypeError):
            rc |= fail(path, f"missing key '{key}'")
    if rc:
        return rc
    # The byte-economics headline: (k+m)/k striping must store materially
    # fewer bytes than 2x replication — (4,2) is 1.5x vs 2.0x, ratio 0.75.
    ratio = data["summary"]["overhead_ratio"]
    if not 0 < ratio <= 0.8:
        rc |= fail(
            path,
            f"overhead_ratio={ratio}: erasure striping must store at most "
            "0.8x of the R=2 replication footprint",
        )
    # Every restart in the 0..m loss sweep must complete with nothing lost:
    # <= m fragment losses are survivable by construction.
    sweep = data["restart_sweep"]
    if not sweep:
        return rc | fail(path, "empty restart_sweep")
    for pt in sweep:
        if pt["lost_chunks"] != 0:
            rc |= fail(
                path,
                f"restart with {pt['losses']} losses reported "
                f"lost_chunks={pt['lost_chunks']} (must be 0 for <= m)",
            )
        if pt["restart_ok"] is not True:
            rc |= fail(path, f"restart with {pt['losses']} losses failed")
    # Rebuilding a dead fragment moves (2k + 2F - 1) x frag_bytes per
    # chunk; a full R=2 re-store moves 3x the container. Per healed chunk
    # the fragment rebuild must come out strictly cheaper.
    rb_ratio = data["rebuild"]["per_chunk_ratio"]
    if not 0 < rb_ratio < 1.0:
        rc |= fail(
            path,
            f"rebuild per_chunk_ratio={rb_ratio}: fragment rebuild must "
            "move fewer bytes per healed chunk than an R=2 full re-store",
        )
    # Both arms run the one heal path (replication is the k=1 code), and
    # neither may lose a chunk while it heals.
    for arm in ("erasure", "replication"):
        if data["rebuild"].get(f"{arm}_post_heal_lost_chunks", 0) != 0:
            rc |= fail(path, f"chunks were lost during the {arm} rebuild")
    # The cold tier actually demoted something and the wider-striped store
    # still restarts.
    if data["tiering"]["demoted_chunks"] <= 0:
        rc |= fail(path, "no chunk was demoted to the cold profile")
    if data["tiering"]["restart_ok"] is not True:
        rc |= fail(path, "restart over the demoted (cold) store failed")
    return rc


def check_tenants(path, data):
    rc = 0
    for key in ("config", "arms", "dedup", "restart", "admission", "summary"):
        if key not in data:
            rc |= fail(path, f"missing top-level key '{key}'")
    if rc:
        return rc
    arms = {a["name"]: a for a in data["arms"]}
    for name in ("solo", "fq", "nofq"):
        if name not in arms:
            rc |= fail(path, f"missing arm '{name}'")
        elif arms[name]["victim_samples"] <= 0:
            rc |= fail(path, f"arm '{name}' recorded no victim wait samples")
    if rc:
        return rc
    s = data["summary"]
    # Weighted fair queueing isolates the victim: its p99 beside the noisy
    # neighbor stays within 2x of checkpointing alone.
    if s["fq_ratio"] > 2.0:
        rc |= fail(
            path,
            f"fq_ratio={s['fq_ratio']}: with fair queueing the victim's "
            "p99 must stay within 2x of its solo baseline",
        )
    # The FIFO ablation genuinely degrades: >= 4x solo, and strictly worse
    # than the fair-queued run (the policy, not the load, is the difference).
    if s["nofq_ratio"] < 4.0:
        rc |= fail(
            path,
            f"nofq_ratio={s['nofq_ratio']}: the FIFO ablation must degrade "
            "the victim's p99 at least 4x over solo",
        )
    if s["nofq_p99_ms"] <= s["fq_p99_ms"]:
        rc |= fail(
            path,
            f"nofq p99 {s['nofq_p99_ms']} <= fq p99 {s['fq_p99_ms']}: "
            "disabling fair queueing must be strictly worse for the victim",
        )
    # Cross-tenant dedup: the identical shared-library ballast is stored
    # once and attributed to the tenant pair.
    if data["dedup"]["cross_tenant_shared_bytes"] <= 0:
        rc |= fail(path, "no cross-tenant shared bytes were deduplicated")
    # The victim's kill + restart beside the live neighbor loses nothing.
    if data["restart"]["ok"] is not True:
        rc |= fail(path, "victim restart beside the noisy neighbor failed")
    if data["restart"]["lost_chunks"] != 0:
        rc |= fail(
            path,
            f"victim restart lost {data['restart']['lost_chunks']} chunks "
            "(must be 0)",
        )
    # Admission control engaged: the budgeted tenant had stores held at
    # the edge, and the holds accumulated measurable wait.
    if data["admission"]["held_requests"] <= 0:
        rc |= fail(path, "admission control never held an over-budget store")
    if data["admission"]["wait_seconds"] <= 0:
        rc |= fail(path, "admission holds accumulated no wait")
    return rc


def check_obs(path, data):
    rc = 0
    for key in (
        "config",
        "overhead.untraced_sim_seconds",
        "overhead.traced_sim_seconds",
        "overhead.trace_overhead_ratio",
        "p99_check.hist_p99_ms",
        "p99_check.trace_p99_ms",
        "p99_check.p99_rel_err",
        "p99_check.victim_samples",
        "spans",
        "coverage.heal_spans",
        "coverage.decode_spans",
        "coverage.async_spans",
        "coverage.healed",
        "summary.trace_overhead_ratio",
        "summary.p99_rel_err",
        "summary.spans_total",
        "summary.open_spans",
        "summary.tiling_violations",
    ):
        try:
            require(data, path, key)
        except (KeyError, TypeError):
            rc |= fail(path, f"missing key '{key}'")
    if rc:
        return rc
    s = data["summary"]
    # Tracing never posts events or charges simulated time: the traced run
    # must reach the measurement point at the same virtual instant as the
    # untraced run (ratio 1.0 exactly; gate leaves rounding headroom).
    ratio = s["trace_overhead_ratio"]
    if not 0.98 <= ratio <= 1.02:
        rc |= fail(
            path,
            f"trace_overhead_ratio={ratio}: tracing perturbed the "
            "simulation (must be 1.0 — the tracer observes, never charges)",
        )
    # Fidelity: the per-stage spans must reproduce the victim tenant's p99
    # (the BENCH_tenants headline) within 1% — histogram bucketing is the
    # only permitted divergence (<= 0.4%).
    if s["p99_rel_err"] > 0.01:
        rc |= fail(
            path,
            f"p99_rel_err={s['p99_rel_err']}: the trace-derived victim p99 "
            "diverged more than 1% from the wait histogram",
        )
    if data["p99_check"]["victim_samples"] <= 0:
        rc |= fail(path, "the victim probe window recorded no wait samples")
    if s["spans_total"] <= 0:
        rc |= fail(path, "the traced storm produced no spans")
    # Balance invariants: every opened span closed, every traced request's
    # children tiled it exactly.
    if s["open_spans"] != 0:
        rc |= fail(path, f"open_spans={s['open_spans']} after quiesce "
                         "(a span leaked)")
    if s["tiling_violations"] != 0:
        rc |= fail(path, f"tiling_violations={s['tiling_violations']}: "
                         "child spans did not tile their root")
    # Subsystem coverage: the storm exercises the request path end to end...
    for subsystem in ("store", "rpc", "device", "cluster"):
        if data["spans"].get(subsystem, 0) <= 0:
            rc |= fail(path, f"no '{subsystem}.*' spans in the traced storm")
    # ...and the erasure + async world covers the background paths.
    cov = data["coverage"]
    if cov["heal_spans"] <= 0 or cov["decode_spans"] <= 0:
        rc |= fail(path, "the erasure arm produced no heal/decode spans")
    if cov["async_spans"] <= 0:
        rc |= fail(path, "the async pipeline produced no async.* spans")
    if cov["healed"] is not True:
        rc |= fail(path, "the erasure arm did not heal to full strength")
    return rc


def check_health(path, data):
    rc = 0
    for key in (
        "config",
        "healthy.alerts_fired",
        "healthy.active_alerts",
        "healthy.series_rounds",
        "healthy.critpath_rounds_checked",
        "healthy.critpath_sum_matches",
        "overhead.health_off_sim_seconds",
        "overhead.health_on_sim_seconds",
        "overhead.trace_overhead_ratio",
        "kill.alerts",
        "kill.clear_rounds",
        "kill.cleared",
        "kill.alert_set_ok",
        "kill.lost_chunks",
        "kill.restart_ok",
        "summary.healthy_alerts",
        "summary.kill_alert_set_ok",
        "summary.clear_rounds",
        "summary.trace_overhead_ratio",
        "summary.critpath_top_fraction",
        "summary.critpath_sum_matches",
    ):
        try:
            require(data, path, key)
        except (KeyError, TypeError):
            rc |= fail(path, f"missing key '{key}'")
    if rc:
        return rc
    s = data["summary"]
    # Determinism is the contract: a healthy sweep fires exactly zero
    # alerts — not "few", zero.
    if s["healthy_alerts"] != 0:
        rc |= fail(path, f"healthy_alerts={s['healthy_alerts']}: a clean "
                         "sweep must fire no alert")
    if data["healthy"]["active_alerts"] != 0:
        rc |= fail(path, "alerts still active after the healthy sweep")
    if data["healthy"]["series_rounds"] <= 0:
        rc |= fail(path, "the health series recorded no round samples")
    # The kill fires exactly {heal_backlog}: the drain rule sees the
    # degraded chunks at the round's close, and nothing else trips.
    if s["kill_alert_set_ok"] is not True:
        rc |= fail(path, f"kill fired {data['kill']['alerts']} "
                         "(must be exactly ['heal_backlog'])")
    # ...and clears once re-replication drains the backlog, within the
    # gated window.
    if data["kill"]["cleared"] is not True:
        rc |= fail(path, "the heal-backlog alert never cleared")
    if s["clear_rounds"] > 2:
        rc |= fail(path, f"clear_rounds={s['clear_rounds']}: the alert "
                         "took more than 2 extra rounds to clear")
    # Sampling the registry and evaluating rules charges no simulated
    # time: both runs reach the measurement point at the same instant.
    ratio = s["trace_overhead_ratio"]
    if not 0.98 <= ratio <= 1.02:
        rc |= fail(path, f"trace_overhead_ratio={ratio}: the health layer "
                         "perturbed the simulation (must be 1.0)")
    # Every round's blame report must partition its window exactly.
    if s["critpath_sum_matches"] is not True:
        rc |= fail(path, "a critical-path report did not sum to its "
                         "round's total")
    frac = s["critpath_top_fraction"]
    if not 0.0 < frac <= 1.0:
        rc |= fail(path, f"critpath_top_fraction={frac} not in (0, 1]")
    if data["kill"]["lost_chunks"] != 0:
        rc |= fail(path, f"lost_chunks={data['kill']['lost_chunks']} after "
                         "the kill (must be 0 at R=2)")
    if data["kill"]["restart_ok"] is not True:
        rc |= fail(path, "restart after the kill did not succeed")
    return rc


CHECKERS = {
    "BENCH_incremental.json": check_incremental,
    "BENCH_cdc.json": check_cdc,
    "BENCH_service.json": check_service,
    "BENCH_failover.json": check_failover,
    "BENCH_async.json": check_async,
    "BENCH_erasure.json": check_erasure,
    "BENCH_tenants.json": check_tenants,
    "BENCH_obs.json": check_obs,
    "BENCH_health.json": check_health,
}

# Baseline-gated metrics per file: name -> (extractor, good direction).
# "higher" fails when fresh < baseline * (1 - TOLERANCE) (a dedup ratio
# dropped); "lower" fails when fresh > baseline * (1 + TOLERANCE) (a
# checkpoint time or service wait grew).
BASELINE_METRICS = {
    "BENCH_incremental.json": {
        "final_dedup_ratio": (
            lambda d: d["generations"][-1]["dedup_ratio"], "higher"),
        "incremental_seconds": (
            lambda d: d["summary"]["incremental_seconds"], "lower"),
        "stored_bytes_ratio": (
            lambda d: d["summary"]["stored_bytes_ratio"], "lower"),
    },
    "BENCH_cdc.json": {
        "cdc_dedup_retained": (
            lambda d: d["insertion"]["cdc"]["dedup_retained"], "higher"),
        "cluster_stored_ratio": (
            lambda d: d["cluster"]["stored_ratio"], "lower"),
        "rewrite_rescan_fraction": (
            lambda d: d["rewrite"]["rescan_fraction"], "lower"),
    },
    "BENCH_service.json": {
        "max_ckpt_seconds": (
            lambda d: max(p["ckpt_seconds"] for p in d["sweep"]), "lower"),
        "wait_ms_at_max_ranks": (
            lambda d: d["summary"]["wait_ms_at_max_ranks"], "lower"),
        "wait_ms_shards4_at_max_ranks": (
            lambda d: d["summary"]["wait_ms_shards4_at_max_ranks"], "lower"),
        "shard_speedup": (
            lambda d: d["summary"]["shard_speedup"], "higher"),
        "r2_restart_seconds": (
            lambda d: d["failover"]["r2_restart_seconds"], "lower"),
        "r2_restart_decode_jobs": (
            lambda d: d["failover"]["r2_restart_decode_jobs"], "lower"),
        "rewrite_ckpt_seconds": (
            lambda d: d["rewrite"]["ckpt_seconds"], "lower"),
    },
    "BENCH_failover.json": {
        "kill_ckpt_seconds": (
            lambda d: d["failover"]["kill_ckpt_seconds"], "lower"),
        "kill_overhead_ratio": (
            lambda d: d["summary"]["kill_overhead_ratio"], "lower"),
        "rebalance_seconds": (
            lambda d: d["rebalance"]["rebalance_seconds"], "lower"),
    },
    "BENCH_async.json": {
        "pause_speedup": (
            lambda d: d["summary"]["pause_speedup"], "higher"),
        "async_pause_seconds": (
            lambda d: d["pause"]["async_seconds"], "lower"),
        # The synchronous reference's worst generation: the streamed
        # chunk-store write keeps it short, and a return to one serial
        # encode job per writer fails here.
        "sync_pause_seconds": (
            lambda d: max(g["sync_seconds"]
                          for g in d["pause"]["generations"]), "lower"),
        "compress_ratio": (
            lambda d: d["summary"]["compress_ratio"], "lower"),
        "max_drain_seconds": (
            lambda d: d["pause"]["max_drain_seconds"], "lower"),
    },
    "BENCH_erasure.json": {
        "overhead_ratio": (
            lambda d: d["summary"]["overhead_ratio"], "lower"),
        "rebuild_per_chunk_ratio": (
            lambda d: d["summary"]["rebuild_per_chunk_ratio"], "lower"),
        "restart_seconds_at_max_losses": (
            lambda d: d["summary"]["restart_seconds_at_max_losses"],
            "lower"),
        "restart_seconds_healthy": (
            lambda d: next(p["restart_seconds"] for p in d["restart_sweep"]
                           if p["losses"] == 0), "lower"),
    },
    "BENCH_tenants.json": {
        "fq_p99_ms": (
            lambda d: d["summary"]["fq_p99_ms"], "lower"),
        "fq_ratio": (
            lambda d: d["summary"]["fq_ratio"], "lower"),
        "nofq_ratio": (
            lambda d: d["summary"]["nofq_ratio"], "higher"),
        "cross_tenant_shared_bytes": (
            lambda d: d["summary"]["cross_tenant_shared_bytes"], "higher"),
    },
    "BENCH_obs.json": {
        "trace_overhead_ratio": (
            lambda d: d["summary"]["trace_overhead_ratio"], "lower"),
        "p99_rel_err": (
            lambda d: d["summary"]["p99_rel_err"], "lower"),
        "spans_total": (
            lambda d: d["summary"]["spans_total"], "higher"),
    },
    "BENCH_health.json": {
        "health_overhead_ratio": (
            lambda d: d["summary"]["trace_overhead_ratio"], "lower"),
        "clear_rounds": (
            lambda d: d["summary"]["clear_rounds"], "lower"),
        # The same fraction gated in both directions brackets the top
        # blame share in a +-10% band: the attribution is stable, not
        # merely bounded.
        "critpath_top_fraction": (
            lambda d: d["summary"]["critpath_top_fraction"], "higher"),
        "critpath_top_fraction_ceiling": (
            lambda d: d["summary"]["critpath_top_fraction"], "lower"),
    },
}


def check_baseline(path, name, data, baseline_dir):
    base_path = os.path.join(baseline_dir, name)
    try:
        with open(base_path) as f:
            base = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"baseline {base_path}: {e}")
    rc = 0
    for metric, (extract, direction) in BASELINE_METRICS.get(name, {}).items():
        try:
            fresh_v = extract(data)
            base_v = extract(base)
        except (KeyError, IndexError, TypeError, ValueError) as e:
            rc |= fail(path, f"baseline metric '{metric}': {e}")
            continue
        if base_v == 0:
            continue  # nothing to compare against
        if direction == "higher":
            bad = fresh_v < base_v * (1.0 - TOLERANCE)
        else:
            bad = fresh_v > base_v * (1.0 + TOLERANCE)
        if bad:
            rc |= fail(
                path,
                f"regression in {metric}: {fresh_v:.6g} vs baseline "
                f"{base_v:.6g} (>{TOLERANCE:.0%} worse; direction: "
                f"{direction} is better). If intentional, regenerate "
                f"{base_path} with the smoke parameters.",
            )
        else:
            print(f"OK   {path}: {metric} {fresh_v:.6g} within "
                  f"{TOLERANCE:.0%} of baseline {base_v:.6g}")
    return rc


def main(argv):
    args = argv[1:]
    baseline_dir = None
    if args and args[0] == "--baseline":
        if len(args) < 2:
            print(__doc__, file=sys.stderr)
            return 2
        baseline_dir = args[1]
        args = args[2:]
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    rc = 0
    for path in args:
        name = path.rsplit("/", 1)[-1]
        checker = CHECKERS.get(name)
        if checker is None:
            rc |= fail(path, f"no checker registered for '{name}'")
            continue
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            rc |= fail(path, str(e))
            continue
        this_rc = checker(path, data)
        if baseline_dir is not None:
            this_rc |= check_baseline(path, name, data, baseline_dir)
        rc |= this_rc
        if not this_rc:
            print(f"OK   {path}")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
