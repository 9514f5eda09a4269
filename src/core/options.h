// DMTCP configuration knobs exposed by dmtcp_checkpoint's command line.
#pragma once

#include <cstdlib>
#include <string>
#include <vector>

#include "ckptstore/cdc.h"
#include "compress/compressor.h"
#include "obs/slo.h"
#include "util/types.h"

namespace dsim::core {

/// What to do about kernel write buffers after a checkpoint (§5.2).
enum class SyncMode : u8 {
  kNone = 0,          // default; matches the paper's timing methodology
  kSyncAfter = 1,     // sync() before resuming user threads (+0.79 s)
  kSyncPrevious = 2,  // sync the *previous* checkpoint instead
};

/// How far chunk dedup reaches in incremental mode.
enum class DedupScope : u8 {
  kNode = 0,     // one repository per node-local checkpoint directory
  kCluster = 1,  // one computation-wide repository (stdchk-style store
                 // service): identical chunks from different processes on
                 // different nodes are stored exactly once
};

/// Validate a chunking configuration with a user-facing message ("" when
/// consistent). The single source of truth for the `--chunk-bytes` and CDC
/// min<=avg<=max bounds: dmtcp_checkpoint rejects bad flags through it at
/// launch, and dmtcp_restart rejects corrupt or hand-edited manifests
/// through it before trusting their recorded parameters.
inline std::string validate_chunking(const ckptstore::ChunkingParams& p) {
  if (p.mode != ckptstore::ChunkingMode::kFixed &&
      p.mode != ckptstore::ChunkingMode::kCdc &&
      p.mode != ckptstore::ChunkingMode::kFastCdc) {
    return "--chunking must be 'fixed', 'cdc' or 'fastcdc'";
  }
  if (p.fixed_bytes == 0 || (p.fixed_bytes & (p.fixed_bytes - 1)) != 0) {
    return "--chunk-bytes must be a non-zero power of two (got " +
           std::to_string(p.fixed_bytes) + ")";
  }
  if (p.mode != ckptstore::ChunkingMode::kFixed) {
    if (p.avg_bytes == 0 || (p.avg_bytes & (p.avg_bytes - 1)) != 0) {
      return "--cdc-avg-bytes must be a non-zero power of two (got " +
             std::to_string(p.avg_bytes) + ")";
    }
    if (p.min_bytes == 0 || p.min_bytes > p.avg_bytes ||
        p.avg_bytes > p.max_bytes) {
      return "CDC chunk bounds must satisfy 0 < min <= avg <= max (got "
             "min=" + std::to_string(p.min_bytes) +
             " avg=" + std::to_string(p.avg_bytes) +
             " max=" + std::to_string(p.max_bytes) + ")";
    }
  }
  return "";
}

/// Backpressure policy when a checkpoint round starts while the previous
/// async drain is still in flight.
enum class AsyncBackpressure : u8 {
  kBlock = 0,  // wait for the previous drain (app pauses until it finishes)
  kSkip = 1,   // skip this round for the still-draining process
};

/// Every knob of the incremental chunk store and its service stack —
/// chunking, retention, dedup scope, redundancy (replicas/erasure/cold
/// tier), service topology (shards/endpoints/batching), background daemons
/// (scrub), the async drain pipeline, and multi-tenant policy (tenant id,
/// DRR weight, admission budget, fair queueing) — in one struct with one
/// validate(). These ~20 flags grew across PRs 3-8 with their interactions
/// checked ad hoc or not at all; the single validate() is now the only
/// place nonsense combinations are rejected, with a message naming the
/// flags involved. DmtcpOptions inherits this, so every `opts.X` call site
/// reads the same members it always did.
struct StoreConfig {
  /// --ckpt-async: copy-on-write snapshot + background encode/store pipeline
  /// (src/ckptasync/). The app is charged only the fork/COW snapshot cost at
  /// checkpoint time; chunking, compression and store RPCs drain in the
  /// background. Requires --incremental (the pipeline streams chunk deltas).
  bool ckpt_async = false;
  /// --async-backpressure: what happens when a round starts before the
  /// previous drain finished ('block' or 'skip').
  AsyncBackpressure async_backpressure = AsyncBackpressure::kBlock;
  /// --compress-bw: codec input rate in bytes/second of each core of the
  /// async drain's encode pool for the gzip-class baseline (0 = model
  /// default kCompressBw). Other codecs scale by codec_cost_factor.
  double compress_bw = 0;
  u64 chunk_bytes = 64 * 1024;  // --chunk-bytes: power-of-two chunk size
  int keep_generations = 2;     // --keep-generations: GC retention window
  /// --chunking: fixed-size spans or content-defined cutpoints.
  ckptstore::ChunkingMode chunking = ckptstore::ChunkingMode::kFixed;
  u64 cdc_min_bytes = 16 * 1024;   // --cdc-min-bytes: CDC chunk floor
  u64 cdc_avg_bytes = 64 * 1024;   // --cdc-avg-bytes: target (power of two)
  u64 cdc_max_bytes = 256 * 1024;  // --cdc-max-bytes: CDC chunk ceiling
  /// --dedup-scope: node-local repositories or one computation-wide store.
  DedupScope dedup_scope = DedupScope::kNode;
  /// --chunk-replicas: copies of each chunk across node-local devices
  /// under the cluster-wide chunk-store service. 1 = no redundancy (a
  /// node failure loses its chunks and forces a full re-store); R > 1
  /// survives R-1 node failures per chunk at R× write amplification.
  int chunk_replicas = 1;
  /// --store-node: node hosting the first chunk-store shard endpoint
  /// (kStoreNodeCoord = wherever the coordinator runs). Validated against
  /// the cluster node count by validate_cluster() at launch — service RPCs
  /// charge the endpoint's message CPU and NIC, so an out-of-range endpoint
  /// would misattribute those charges.
  static constexpr i32 kStoreNodeCoord = -1;
  i32 store_node = kStoreNodeCoord;
  /// --store-shards: service endpoints the chunk store is sharded across.
  /// Chunk keys rendezvous-hash to shards; each shard owns its own request
  /// queue, so the lookup contention knee moves right with S. Shard s
  /// starts on node (store_node + s) mod nodes; the chunk-store service
  /// alone moves it later (spare nodes, resharding, failover).
  int store_shards = 1;
  /// --lookup-batch: dedup-probe keys carried per lookup RPC. K > 1
  /// amortizes the RPC header and endpoint message CPU over K probes at the
  /// cost of per-key latency (a key's response waits for its whole batch).
  int lookup_batch = 1;
  /// --scrub-chunks: resident chunks verified against their manifest CRCs
  /// per checkpoint round (round-robin cursor), through the shard queues.
  /// 0 disables scrubbing. Corrupt chunks are quarantined for forward
  /// re-store; degraded stragglers are routed to the heal daemon.
  u64 scrub_chunks = 0;
  /// --erasure K,M: Reed-Solomon (k data, m parity) fragment striping
  /// instead of replica copies — each stored chunk splits into k+m
  /// fragments on distinct nodes, any k of which reconstruct it. Survives
  /// m node losses at (k+m)/k byte overhead (vs R× for --chunk-replicas).
  /// 0,0 keeps replication. Mutually exclusive with --chunk-replicas > 1.
  int erasure_k = 0;
  int erasure_m = 0;
  /// --cold-erasure K,M: the wider profile chunks referenced only by
  /// generations older than --hot-generations re-stripe to in the
  /// background (the cold tier). Requires --erasure and --hot-generations.
  int cold_erasure_k = 0;
  int cold_erasure_m = 0;
  /// --hot-generations N: per owner, the newest N live generations count
  /// as hot; chunks referenced only by older ones are demotion candidates.
  int hot_generations = 0;
  /// --tenant N: this computation's tenant id in a shared multi-tenant
  /// chunk store. Manifest/GC ownership is namespaced per tenant
  /// ("t<id>/<vpid>") while chunk content dedups across tenants; the
  /// service's fair-queueing scheduler and admission control key on it.
  int tenant_id = 0;
  /// --tenant-weight W: this tenant's deficit-round-robin share of each
  /// shard's index queue within its QoS band (relative to the other
  /// tenants' weights; 1.0 = equal share).
  double tenant_weight = 1.0;
  /// --tenant-budget-mb N: admission-control budget — at most N MiB of
  /// this tenant's stores in flight at the service; over-budget stores
  /// queue at the tenant edge without occupying shard slots. 0 = unlimited.
  u64 tenant_budget_bytes = 0;
  /// --fair-queueing on|off: per-shard weighted DRR + QoS bands (on,
  /// default) vs the single arrival FIFO per shard (off — the ablation arm
  /// bench_tenants measures victim-tenant starvation against).
  bool fair_queueing = true;

  /// Validate every store knob and their interactions; returns "" when
  /// consistent, else a human-readable rejection. `incremental`, `forked`
  /// and `cluster_store` are the launch-level facts the combinations
  /// depend on (the chunk-store service only exists for an incremental,
  /// cluster-wide store).
  std::string validate_store(bool incremental, bool forked,
                             bool cluster_store) const {
    if (keep_generations < 1) {
      return "--keep-generations must keep at least one generation (got " +
             std::to_string(keep_generations) + ")";
    }
    if (chunk_replicas < 1) {
      return "--chunk-replicas must place at least one copy (got " +
             std::to_string(chunk_replicas) + ")";
    }
    if (chunk_replicas > 32) {
      return "--chunk-replicas places at most 32 copies, one per bit of a "
             "chunk's corrupt mask (got " +
             std::to_string(chunk_replicas) + ")";
    }
    if (store_shards < 1) {
      return "--store-shards must keep at least one service shard (got " +
             std::to_string(store_shards) + ")";
    }
    if (lookup_batch < 1) {
      return "--lookup-batch must carry at least one key per RPC (got " +
             std::to_string(lookup_batch) + ")";
    }
    if (chunk_replicas > 1 && !cluster_store) {
      return "--chunk-replicas > 1 requires a cluster-wide store "
             "(--dedup-scope cluster or a /shared checkpoint directory): "
             "replica placement is a property of the store service";
    }
    if ((store_shards > 1 || lookup_batch > 1 || scrub_chunks > 0 ||
         store_node >= 0) &&
        !cluster_store) {
      return "--store-node/--store-shards/--lookup-batch/--scrub-chunks "
             "configure the cluster-wide chunk-store service (--dedup-scope "
             "cluster or a /shared checkpoint directory)";
    }
    if (!incremental &&
        (chunk_replicas > 1 || store_node >= 0 || store_shards > 1 ||
         lookup_batch > 1 || scrub_chunks > 0)) {
      return "--chunk-replicas/--store-node/--store-shards/--lookup-batch/"
             "--scrub-chunks require --incremental: the chunk-store service "
             "only exists for the incremental store";
    }
    if (erasure_k != 0 || erasure_m != 0) {
      if (erasure_k < 2 || erasure_m < 1 || erasure_k + erasure_m > 32) {
        return "--erasure K,M must satisfy 2 <= K, 1 <= M, K+M <= 32 (got " +
               std::to_string(erasure_k) + "," + std::to_string(erasure_m) +
               ")";
      }
      if (chunk_replicas > 1) {
        return "--erasure and --chunk-replicas > 1 are mutually exclusive: "
               "pick one redundancy scheme";
      }
      if (!incremental || !cluster_store) {
        return "--erasure requires --incremental and a cluster-wide store "
               "(--dedup-scope cluster or a /shared checkpoint directory): "
               "fragments are placed by the store service";
      }
    }
    if (cold_erasure_k != 0 || cold_erasure_m != 0) {
      if (erasure_k == 0) {
        return "--cold-erasure requires --erasure: the cold tier re-stripes "
               "erasure-coded chunks to a wider profile";
      }
      if (cold_erasure_k < 2 || cold_erasure_m < 1 ||
          cold_erasure_k + cold_erasure_m > 32) {
        return "--cold-erasure K,M must satisfy 2 <= K, 1 <= M, K+M <= 32 "
               "(got " + std::to_string(cold_erasure_k) + "," +
               std::to_string(cold_erasure_m) + ")";
      }
      if (hot_generations < 1) {
        return "--cold-erasure requires --hot-generations >= 1 to define "
               "which generations stay hot";
      }
    }
    if (hot_generations > 0 && cold_erasure_k == 0) {
      return "--hot-generations only matters with --cold-erasure: there is "
             "no cold tier to demote to";
    }
    if (incremental && forked) {
      return "--incremental and forked checkpointing are mutually "
             "exclusive (use --ckpt-async for a background chunk drain)";
    }
    if (ckpt_async && !incremental) {
      return "--ckpt-async requires --incremental: the background pipeline "
             "streams chunk deltas";
    }
    if (ckpt_async && forked) {
      return "--ckpt-async and forked checkpointing are mutually exclusive "
             "(the async pipeline already snapshots copy-on-write)";
    }
    if (compress_bw < 0) {
      return "--compress-bw must be non-negative";
    }
    if (tenant_id < 0) {
      return "--tenant must be a non-negative tenant id (got " +
             std::to_string(tenant_id) + ")";
    }
    if (tenant_weight <= 0) {
      return "--tenant-weight must be positive (got " +
             std::to_string(tenant_weight) + ")";
    }
    if ((tenant_id > 0 || tenant_weight != 1.0 || tenant_budget_bytes > 0) &&
        !(incremental && cluster_store)) {
      return "--tenant/--tenant-weight/--tenant-budget-mb configure the "
             "shared multi-tenant chunk-store service and require "
             "--incremental plus a cluster-wide store (--dedup-scope "
             "cluster or a /shared checkpoint directory)";
    }
    return "";
  }

  /// Validate the store knobs that depend on the cluster shape, known only
  /// at launch. Shard endpoints derive as (store_node + s) mod num_nodes,
  /// so a valid base keeps every shard in range.
  std::string validate_store_cluster(int num_nodes) const {
    if (store_node >= num_nodes) {
      return "--store-node " + std::to_string(store_node) +
             " names a node outside the cluster (" +
             std::to_string(num_nodes) + " node(s))";
    }
    if (erasure_k > 0 && erasure_k + erasure_m > num_nodes) {
      return "--erasure " + std::to_string(erasure_k) + "," +
             std::to_string(erasure_m) + " needs " +
             std::to_string(erasure_k + erasure_m) +
             " distinct fragment nodes but the cluster has " +
             std::to_string(num_nodes);
    }
    if (cold_erasure_k > 0 && cold_erasure_k + cold_erasure_m > num_nodes) {
      return "--cold-erasure " + std::to_string(cold_erasure_k) + "," +
             std::to_string(cold_erasure_m) + " needs " +
             std::to_string(cold_erasure_k + cold_erasure_m) +
             " distinct fragment nodes but the cluster has " +
             std::to_string(num_nodes);
    }
    return "";
  }
};

struct DmtcpOptions : StoreConfig {
  NodeId coord_node = 0;
  u16 coord_port = 7779;
  compress::CodecKind codec = compress::CodecKind::kGzipish;  // gzip default
  bool forked_checkpointing = false;  // fork + copy-on-write writer (§5.3)
  SyncMode sync = SyncMode::kNone;
  std::string ckpt_dir = "/ckpt";     // "/shared/ckpt" → SAN/NFS (Fig. 5b)
  SimTime interval = 0;               // --interval: periodic checkpoints

  // Incremental content-addressed checkpoint store (src/ckptstore/).
  bool incremental = false;     // --incremental: write chunk deltas only
  /// --heartbeat-interval: milliseconds between membership heartbeat
  /// probes from the coordinator's node to every other node. Together with
  /// --heartbeat-misses this sets the failure-detection latency
  /// (~interval x misses) the shard-failover replay machinery absorbs.
  int heartbeat_interval_ms = 10;
  /// --heartbeat-misses: consecutive missed heartbeats before a suspected
  /// node is declared dead (first miss suspects, Nth declares).
  int heartbeat_misses = 3;

  // Observability (src/obs/): deterministic tracing + metrics export.
  /// --trace-out FILE: write a Chrome trace_event JSON trace of every
  /// request's queueing stages at teardown (Perfetto-loadable). Empty =
  /// tracing off (zero-cost: no tracer is even created).
  std::string trace_out;
  /// --metrics-out FILE: write the metrics registry (counters, gauges,
  /// histograms with p50/p90/p99) as JSON at teardown. Also arms the
  /// tracer, since stage histograms come from it.
  std::string metrics_out;
  /// --health-out FILE: write the round-health document — per-round
  /// metric-delta time-series, per-round/per-restart critical-path blame
  /// reports, and the SLO engine's alert summary — as JSON at teardown.
  /// Arms the tracer (the critical path walks its spans).
  std::string health_out;
  /// --slo "name: expr; ...": declarative health rules evaluated at every
  /// round boundary (see obs/slo.h for the grammar). Empty with
  /// --health-out set installs the default rule set (parked requests
  /// drain to zero by round end; degraded chunks drain within two
  /// rounds). Also arms the health engine without --health-out: alerts
  /// still land in the trace and the engine state is queryable in tests.
  std::string slo;
  /// --log-level LEVEL: runtime log threshold (trace|debug|info|warn|
  /// error|off). Empty = keep the DSIM_LOG_LEVEL environment default.
  std::string log_level;

  /// The health engine (time-series + SLO evaluation + critical path)
  /// runs when either health flag is set.
  bool health_enabled() const { return !health_out.empty() || !slo.empty(); }

  /// One cluster-wide store backs the computation when the checkpoint
  /// directory is explicitly shared (/shared/...) or dedup scope is
  /// cluster. The single source of truth for the predicate — DmtcpShared
  /// and validate() both key on it.
  bool cluster_wide_store() const {
    return ckpt_dir.rfind("/shared", 0) == 0 ||
           dedup_scope == DedupScope::kCluster;
  }

  /// The chunking configuration the encoder consumes and the manifest
  /// records.
  ckptstore::ChunkingParams chunking_params() const {
    ckptstore::ChunkingParams p;
    p.mode = chunking;
    p.fixed_bytes = chunk_bytes;
    p.min_bytes = cdc_min_bytes;
    p.avg_bytes = cdc_avg_bytes;
    p.max_bytes = cdc_max_bytes;
    return p;
  }

  /// Validate the option set; returns "" when consistent, else a
  /// human-readable rejection (dmtcp_checkpoint refuses to launch on it).
  std::string validate() const {
    if (const std::string err = validate_chunking(chunking_params());
        !err.empty()) {
      return err;
    }
    if (heartbeat_interval_ms < 1) {
      return "--heartbeat-interval must be at least 1 ms (got " +
             std::to_string(heartbeat_interval_ms) + ")";
    }
    if (heartbeat_misses < 1) {
      return "--heartbeat-misses must allow at least one miss (got " +
             std::to_string(heartbeat_misses) + ")";
    }
    if (!log_level.empty() && log_level != "trace" && log_level != "debug" &&
        log_level != "info" && log_level != "warn" && log_level != "error" &&
        log_level != "off") {
      return "--log-level: expected 'trace', 'debug', 'info', 'warn', "
             "'error' or 'off', got '" + log_level + "'";
    }
    if (!slo.empty()) {
      // Reject a malformed rule spec at launch, not at the first round
      // boundary mid-run.
      std::vector<obs::SloRule> rules;
      if (const std::string err = obs::SloEngine::parse(slo, &rules);
          !err.empty()) {
        return err;
      }
    }
    return validate_store(incremental, forked_checkpointing,
                          cluster_wide_store());
  }

  /// Validate the options that depend on the cluster shape, known only at
  /// launch. Called by DmtcpControl before any process spawns: an
  /// out-of-range service endpoint used to be caught (by an assert) only
  /// when the coordinator assigned endpoints, after charges could already
  /// be misattributed.
  std::string validate_cluster(int num_nodes) const {
    if (coord_node < 0 || coord_node >= num_nodes) {
      return "coordinator node " + std::to_string(coord_node) +
             " is outside the cluster (" + std::to_string(num_nodes) +
             " node(s))";
    }
    return validate_store_cluster(num_nodes);
  }

  /// Apply dmtcp_checkpoint command-line flags. Recognized flags are
  /// consumed in place; returns "" on success, else a parse error.
  std::string apply_flags(std::vector<std::string>& argv) {
    std::vector<std::string> rest;
    std::string err;
    for (size_t i = 0; i < argv.size(); ++i) {
      const std::string& a = argv[i];
      auto intval = [&](const char* flag) -> long {
        if (i + 1 >= argv.size()) {
          err = std::string(flag) + " requires a value";
          return -1;
        }
        const std::string& v = argv[++i];
        char* end = nullptr;
        const long n = std::strtol(v.c_str(), &end, 10);
        if (end == v.c_str() || *end != '\0' || n < 0) {
          err = std::string(flag) + ": invalid value '" + v + "'";
          return -1;
        }
        return n;
      };
      auto strval = [&](const char* flag) -> std::string {
        if (i + 1 >= argv.size()) {
          err = std::string(flag) + " requires a value";
          return "";
        }
        return argv[++i];
      };
      if (a == "--incremental") {
        incremental = true;
      } else if (a == "--ckpt-async") {
        ckpt_async = true;
      } else if (a == "--async-backpressure") {
        const std::string v = strval("--async-backpressure");
        if (!err.empty()) return err;
        if (v == "block") async_backpressure = AsyncBackpressure::kBlock;
        else if (v == "skip") async_backpressure = AsyncBackpressure::kSkip;
        else
          return "--async-backpressure: expected 'block' or 'skip', got '" +
                 v + "'";
      } else if (a == "--compress") {
        const std::string v = strval("--compress");
        if (!err.empty()) return err;
        if (!compress::parse_codec(v, &codec)) {
          return "--compress: expected 'none', 'rle', 'lz77', 'huffman', "
                 "'lz77+huffman' or 'gzip', got '" + v + "'";
        }
      } else if (a == "--compress-bw") {
        const long n = intval("--compress-bw");
        if (!err.empty()) return err;
        compress_bw = static_cast<double>(n);
      } else if (a == "--chunk-bytes") {
        const long n = intval("--chunk-bytes");
        if (!err.empty()) return err;
        chunk_bytes = static_cast<u64>(n);
      } else if (a == "--keep-generations") {
        const long n = intval("--keep-generations");
        if (!err.empty()) return err;
        keep_generations = static_cast<int>(n);
      } else if (a == "--chunking") {
        const std::string v = strval("--chunking");
        if (!err.empty()) return err;
        if (v == "fixed") chunking = ckptstore::ChunkingMode::kFixed;
        else if (v == "cdc") chunking = ckptstore::ChunkingMode::kCdc;
        else if (v == "fastcdc") chunking = ckptstore::ChunkingMode::kFastCdc;
        else
          return "--chunking: expected 'fixed', 'cdc' or 'fastcdc', got '" +
                 v + "'";
      } else if (a == "--cdc-min-bytes") {
        const long n = intval("--cdc-min-bytes");
        if (!err.empty()) return err;
        cdc_min_bytes = static_cast<u64>(n);
      } else if (a == "--cdc-avg-bytes") {
        const long n = intval("--cdc-avg-bytes");
        if (!err.empty()) return err;
        cdc_avg_bytes = static_cast<u64>(n);
      } else if (a == "--cdc-max-bytes") {
        const long n = intval("--cdc-max-bytes");
        if (!err.empty()) return err;
        cdc_max_bytes = static_cast<u64>(n);
      } else if (a == "--dedup-scope") {
        const std::string v = strval("--dedup-scope");
        if (!err.empty()) return err;
        if (v == "node") dedup_scope = DedupScope::kNode;
        else if (v == "cluster") dedup_scope = DedupScope::kCluster;
        else
          return "--dedup-scope: expected 'node' or 'cluster', got '" + v +
                 "'";
      } else if (a == "--chunk-replicas") {
        const long n = intval("--chunk-replicas");
        if (!err.empty()) return err;
        chunk_replicas = static_cast<int>(n);
      } else if (a == "--store-node") {
        const long n = intval("--store-node");
        if (!err.empty()) return err;
        store_node = static_cast<i32>(n);
      } else if (a == "--store-shards") {
        const long n = intval("--store-shards");
        if (!err.empty()) return err;
        store_shards = static_cast<int>(n);
      } else if (a == "--lookup-batch") {
        const long n = intval("--lookup-batch");
        if (!err.empty()) return err;
        lookup_batch = static_cast<int>(n);
      } else if (a == "--scrub-chunks") {
        const long n = intval("--scrub-chunks");
        if (!err.empty()) return err;
        scrub_chunks = static_cast<u64>(n);
      } else if (a == "--erasure" || a == "--cold-erasure") {
        const std::string flag = a;
        const std::string v = strval(flag.c_str());
        if (!err.empty()) return err;
        const size_t comma = v.find(',');
        char* kend = nullptr;
        char* mend = nullptr;
        const long k = comma == std::string::npos
                           ? -1
                           : std::strtol(v.c_str(), &kend, 10);
        const long m = comma == std::string::npos
                           ? -1
                           : std::strtol(v.c_str() + comma + 1, &mend, 10);
        if (comma == std::string::npos || kend != v.c_str() + comma ||
            mend == nullptr || *mend != '\0' || k < 0 || m < 0) {
          return flag + ": expected K,M (e.g. 4,2), got '" + v + "'";
        }
        (flag == "--erasure" ? erasure_k : cold_erasure_k) =
            static_cast<int>(k);
        (flag == "--erasure" ? erasure_m : cold_erasure_m) =
            static_cast<int>(m);
      } else if (a == "--hot-generations") {
        const long n = intval("--hot-generations");
        if (!err.empty()) return err;
        hot_generations = static_cast<int>(n);
      } else if (a == "--tenant") {
        const long n = intval("--tenant");
        if (!err.empty()) return err;
        tenant_id = static_cast<int>(n);
      } else if (a == "--tenant-weight") {
        const std::string v = strval("--tenant-weight");
        if (!err.empty()) return err;
        char* end = nullptr;
        const double w = std::strtod(v.c_str(), &end);
        if (end == v.c_str() || *end != '\0') {
          return "--tenant-weight: invalid value '" + v + "'";
        }
        tenant_weight = w;
      } else if (a == "--tenant-budget-mb") {
        const long n = intval("--tenant-budget-mb");
        if (!err.empty()) return err;
        tenant_budget_bytes = static_cast<u64>(n) * 1024 * 1024;
      } else if (a == "--fair-queueing") {
        const std::string v = strval("--fair-queueing");
        if (!err.empty()) return err;
        if (v == "on") fair_queueing = true;
        else if (v == "off") fair_queueing = false;
        else
          return "--fair-queueing: expected 'on' or 'off', got '" + v + "'";
      } else if (a == "--trace-out") {
        trace_out = strval("--trace-out");
        if (!err.empty()) return err;
      } else if (a == "--metrics-out") {
        metrics_out = strval("--metrics-out");
        if (!err.empty()) return err;
      } else if (a == "--health-out") {
        health_out = strval("--health-out");
        if (!err.empty()) return err;
      } else if (a == "--slo") {
        slo = strval("--slo");
        if (!err.empty()) return err;
      } else if (a == "--log-level") {
        log_level = strval("--log-level");
        if (!err.empty()) return err;
      } else if (a == "--heartbeat-interval") {
        const long n = intval("--heartbeat-interval");
        if (!err.empty()) return err;
        heartbeat_interval_ms = static_cast<int>(n);
      } else if (a == "--heartbeat-misses") {
        const long n = intval("--heartbeat-misses");
        if (!err.empty()) return err;
        heartbeat_misses = static_cast<int>(n);
      } else {
        rest.push_back(a);
      }
    }
    argv = std::move(rest);
    return validate();
  }
};

}  // namespace dsim::core
