// Instrumentation shared between the DMTCP runtime and the experimenter.
//
// The coordinator stamps barrier-release times; managers report image sizes;
// restart processes report stage durations. Benches read this after the
// simulation settles. (This mirrors the paper's methodology: stage times are
// "the durations between the global barriers", §5.3.)
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ckptstore/repository.h"
#include "ckptstore/service.h"
#include "cluster/membership.h"
#include "core/options.h"
#include "obs/critpath.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/types.h"

namespace dsim::ckptasync {
class CkptAsyncPipeline;
}  // namespace dsim::ckptasync

namespace dsim::sim {
class Process;
}  // namespace dsim::sim

namespace dsim::core {

/// One checkpoint round, timestamped by the coordinator.
struct CkptRound {
  SimTime requested = 0;
  SimTime suspended = 0;
  SimTime elected = 0;
  SimTime drained = 0;
  SimTime checkpointed = 0;
  SimTime refilled = 0;
  int procs = 0;
  u64 total_uncompressed = 0;  // aggregate cluster-wide image bytes
  u64 total_compressed = 0;  // written: images, or new chunks + manifests
  /// Forked or async mode: when the last background write landed.
  SimTime background_done = 0;

  // Incremental mode (the ckptstore subsystem): per-round repository view.
  u64 store_live_bytes = 0;  // resident chunk bytes after this round's GC
  u64 store_reclaimed_bytes = 0;  // cumulative bytes GC has freed
  /// Logical image bytes this round answered by already-resident chunks
  /// (earlier generations or other processes sharing the store).
  u64 store_dup_bytes = 0;
  /// Chunks referenced by more than one process after this round — the
  /// shared mapped libraries a cluster-wide store stores exactly once.
  u64 store_shared_chunks = 0;
  u64 total_chunks = 0;
  u64 new_chunks = 0;
  double dedup_ratio = 0;  // logical bytes per stored byte

  // Compressed-chunk accounting over this round's *new* chunks.
  u64 store_new_chunk_bytes = 0;  // container (post-codec) bytes stored
  u64 store_raw_new_bytes = 0;    // logical (pre-codec) bytes chunked
  double compress_ratio = 0;      // stored/raw; 1.0 when nothing compresses
  /// Fraction of logical image bytes NOT answered by resident chunks —
  /// the workload's dirty-locality signal (generation 0 reads 1.0).
  double dirty_page_fraction = 0;

  // Chunk-store write stage, summed over the round's writers: encode
  // CPU-seconds (codec plus erasure stripe) charged to the writers' core
  // pools, the pool jobs that carried them — one per new chunk that needs
  // CPU — and the most jobs one writer's pool ran at once. All 0 when the
  // pool went unused: full images, codec none without erasure. An async
  // drain's encodes run on the same pool, after the round has closed.
  double encode_cpu_seconds = 0;
  u64 encode_jobs = 0;
  int peak_encode_jobs = 0;
  /// Per writer node, the keys its Stores carried for this round (its own
  /// new chunks and the ones it claimed; heals excluded), in the order
  /// they left. An async drain's land here after the round has closed.
  std::map<NodeId, std::vector<ckptstore::ChunkKey>> stored_keys;

  // Async COW pipeline (--ckpt-async): processes backpressure=skip left
  // out of this round. The pipeline's totals are the delta's async.*.
  u64 async_skipped_procs = 0;

  /// Every cumulative stat collect_metrics names — chunk-store service,
  /// tenant, RPC fabric, async pipeline and tracer stage — as this
  /// round's delta against the computation's previous round close:
  /// counters and sums subtract, gauges keep their level, histograms take
  /// their bucket delta (a copy on the computation's first round). Taken
  /// before the round kicks its scrub and demotion passes, so a pass
  /// kicked at round N surfaces in round N+1's delta.
  obs::MetricsRegistry delta;

  /// Critical-path blame report for the pause window [requested,
  /// refilled): the backward sweep over the tracer's spans (obs/critpath)
  /// partitions the window exactly, so the report's attributed time
  /// equals total_seconds() — the coordinator asserts both identities
  /// every round. Empty when tracing is off.
  obs::CritPathReport critical_path;

  double total_seconds() const { return to_seconds(refilled - requested); }
  double suspend_seconds() const { return to_seconds(suspended - requested); }
  double elect_seconds() const { return to_seconds(elected - suspended); }
  double drain_seconds() const { return to_seconds(drained - elected); }
  double write_seconds() const { return to_seconds(checkpointed - drained); }
  double refill_seconds() const { return to_seconds(refilled - checkpointed); }
};

/// One restart, assembled from restart-process stage notes + coordinator
/// barrier stamps.
struct RestartRun {
  SimTime script_started = 0;
  SimTime refilled = 0;      // == resume point (§4.4 steps 6-7)
  int procs = 0;
  // Per-node stage durations, averaged across the stage notes of the
  // restart processes, one per target node (Table 1b methodology).
  double files_ptys_seconds = 0;
  double reconnect_seconds = 0;
  double memory_threads_seconds = 0;

  // Memory-stage decode, summed over target nodes: CPU-seconds charged to
  // the restarting nodes' cores (gunzip/assembly, degraded-read erasure
  // decode, and a copy per repeated chunk reference), the CPU jobs that
  // carried them — one per full image, one per distinct chunk in a node's
  // manifests — the manifest chunk references restored, and the most chunk
  // jobs one node's decoder pool ran at once (0 when every image is a full
  // image).
  double decode_cpu_seconds = 0;
  u64 decode_jobs = 0;
  u64 chunk_refs = 0;
  int peak_decode_jobs = 0;

  double total_seconds() const { return to_seconds(refilled - script_started); }
  double refill_seconds = 0;  // duration between restart B5 and B6

  // Chunk-store service placement view: set by the pre-flight availability
  // check. `needs_restore` means some referenced chunk has no surviving
  // replica (a node died under --chunk-replicas=1) — the computation must
  // be re-run and re-stored, nothing was restarted.
  bool needs_restore = false;
  u64 lost_chunks = 0;  // referenced chunks with every replica gone

  /// Critical-path blame for [script_started, refilled): same sweep as a
  /// checkpoint round, with restart-phase marks (load up to the B5
  /// barrier, refill after it) absorbing uninstrumented time. Empty when
  /// tracing is off.
  obs::CritPathReport critical_path;
};

struct DmtcpStats {
  std::vector<CkptRound> rounds;
  std::vector<RestartRun> restarts;
  /// Stores a synchronous writer took on for chunks its own scan found
  /// resident, because the key's shard served its Lookup first: the
  /// cluster-shared chunks moved off the writer that scanned them first.
  /// Cumulative; collect_metrics names it ckpt.claimed_resident.
  u64 claimed_resident = 0;
  const CkptRound& last_round() const { return rounds.back(); }
  const RestartRun& last_restart() const { return restarts.back(); }
};

/// State shared by the control handle, coordinator and hijacks of one
/// computation. Lives on the experimenter's side of the fence.
struct DmtcpShared {
  DmtcpOptions opts;
  DmtcpStats stats;
  /// Content-addressed chunk repositories backing ckpt_dir (incremental
  /// mode only). A shared ckpt_dir (/shared/...) is one stdchk-style store
  /// service for the whole computation, as is --dedup-scope cluster (a
  /// computation-wide dedup index over node-local disks: a chunk another
  /// node already stored is referenced, not rewritten). Plain node-local
  /// directories get one repository per node — without the cluster index,
  /// dedup cannot span physically separate disks.
  /// Keyed by node id, or kSharedRepo for the shared store.
  static constexpr int kSharedRepo = -1;
  std::map<int, std::shared_ptr<ckptstore::Repository>> repos;
  bool shared_ckpt_dir() const {
    return opts.ckpt_dir.rfind("/shared", 0) == 0;
  }
  bool cluster_wide_store() const { return opts.cluster_wide_store(); }
  ckptstore::Repository& repo_for(NodeId node) {
    auto& r = repos[cluster_wide_store() ? kSharedRepo : node];
    if (!r) r = std::make_shared<ckptstore::Repository>();
    return *r;
  }
  /// The remote chunk-store service (incremental + cluster scope only):
  /// owns the shared repository (repos[kSharedRepo] aliases it), queues
  /// Lookup/Store/Fetch/Drop requests, and tracks chunk placement.
  /// Created by DmtcpControl; its endpoint is set by the coordinator.
  std::shared_ptr<ckptstore::ChunkStoreService> store_service;
  /// False when this computation attached to another computation's store
  /// service (multi-tenant serving): the owning computation's coordinator
  /// assigns endpoints and kicks the background daemons; an attached
  /// tenant's coordinator must not, or daemons would be double-kicked.
  /// (Each computation still takes its own round deltas of the shared
  /// service's stats.)
  bool owns_store = true;
  /// Cluster membership (heartbeat failure detection from the
  /// coordinator's node), which the store service watches for death
  /// events. Created alongside the store service; the membership's
  /// fabric shares the service's NodeHealth map, so a killed node fails
  /// heartbeats and store RPCs identically. Liveness itself is that map,
  /// which chunk placement reads too; membership only detects deaths.
  std::shared_ptr<cluster::Membership> membership;
  /// Async COW checkpoint pipeline (--ckpt-async): snapshot trackers +
  /// background encode/store jobs. Created by DmtcpControl.
  std::shared_ptr<ckptasync::CkptAsyncPipeline> async_pipeline;
  /// Request tracer (--trace-out / --metrics-out): created by the owning
  /// computation's DmtcpControl and installed on the kernel's event loop;
  /// attached tenants share the host's tracer. Null when tracing is off —
  /// every instrumentation site is a null check, so disabled runs are
  /// simulated-time-identical to a build without the subsystem.
  std::shared_ptr<obs::Tracer> tracer;
  /// Round-health engine (--health-out / --slo): the per-round
  /// metric-delta time-series the coordinator feeds at every round
  /// boundary, and the SLO rule engine evaluated over it. Created by
  /// DmtcpControl when either flag is set; null otherwise. Per
  /// computation — an attached tenant evaluating its own rules keeps its
  /// own series (registry deltas are taken against the computation's own
  /// previous snapshot, so sharing the host's service is safe).
  std::shared_ptr<obs::RoundSeries> health_series;
  std::shared_ptr<obs::SloEngine> slo_engine;
  /// Virtual pids in use across the computation (conflict detection, §4.5).
  std::set<Pid> active_vpids;
  /// Virtual pid -> current real pid (pid virtualization, §4.5). Entries
  /// persist across exits (real pids are never reused within a run) and are
  /// re-pointed on restart.
  std::map<Pid, Pid> vpid_map;
  /// True while a checkpoint round is in flight (new spawns are held at the
  /// wrapper until it completes, keeping the barrier membership stable).
  bool ckpt_active = false;
};

/// The round's barrier phases as critical-path phase marks: adjacent,
/// disjoint, covering [requested, refilled) exactly. Shared by the
/// coordinator's per-round attribution and flush_observability's
/// whole-trace recomputation (and mirrored by trace_report.py, which
/// rebuilds them from the health JSON's round timestamps).
inline std::vector<obs::PhaseMark> round_phases(const CkptRound& r) {
  return {{"barrier.suspend", r.requested, r.suspended},
          {"barrier.elect", r.suspended, r.elected},
          {"barrier.drain", r.elected, r.drained},
          {"barrier.write", r.drained, r.checkpointed},
          {"barrier.refill", r.checkpointed, r.refilled}};
}

/// Restart-window phase marks: load (script start to the B5 barrier,
/// reconstructed from refill_seconds) and refill after it.
inline std::vector<obs::PhaseMark> restart_phases(const RestartRun& rr) {
  SimTime b5 = rr.refilled - from_seconds(rr.refill_seconds);
  if (b5 < rr.script_started) b5 = rr.script_started;
  if (b5 > rr.refilled) b5 = rr.refilled;
  return {{"restart.load", rr.script_started, b5},
          {"restart.refill", b5, rr.refilled}};
}

/// Snapshot the computation's observable state into one registry — the
/// one table that names every cumulative stat: service (store.*), tenant
/// (tenant.<id>.*), RPC fabric (rpc.*), async pipeline (async.*) and
/// tracer (trace.*, stage.*). --metrics-out exports it at teardown; the
/// coordinator snapshots it at every round close, and the difference to
/// the previous close (MetricsRegistry::delta_since) is CkptRound::delta,
/// which the health time-series, benches and tests read by name.
/// Defined in launch.cc.
obs::MetricsRegistry collect_metrics(const DmtcpShared& shared);

/// Resolves which computation's shared state a dmtcp_* process belongs to.
/// With several computations multiplexed on one kernel (multi-tenant serving
/// against a shared chunk store), resolution keys on the process's
/// DMTCP_COORD_PORT environment; with a single computation it is constant.
using SharedResolver =
    std::function<std::shared_ptr<DmtcpShared>(sim::Process&)>;

}  // namespace dsim::core
