// The remote chunk-store service (stdchk-style storage service), sharded
// across RPC endpoints on the simulated network — now multi-tenant.
//
// PR 3 funneled every dedup Lookup/Store/Fetch/Drop through one FIFO queue,
// but requests teleported there: no NIC hop, no message CPU. This version
// makes each request a real RPC (src/rpc/) and shards the service. Every
// request arrives through one typed envelope (StoreRequest, tenant.h):
//
//   kLookup   one dedup probe per submitted chunk key, batched K keys per
//             RPC (`--lookup-batch`); each probe occupies its shard's queue.
//             A claiming Lookup (StoreRequest::verdict) also learns who
//             stores the key: the first probe the shard serves for a key
//             that is neither placed nor claimed claims it for its writer,
//             and every other writer's probe of it is a hit. Its batches
//             leave in its keys' order, kClaimWindow in flight,
//   kStore    a chunk accepted (payload over the caller's NIC, an index
//             insert on the shard) and striped onto its k+m placement
//             homes — R full copies under --chunk-replicas R, the (1, R-1)
//             code (placement.h),
//   kRestore  re-store of a dedup-hit chunk that lost more than m fragments,
//   kFetch    a restart locating a chunk (index probe; the bulk bytes
//             stream off the holding node's device and NIC, charged by the
//             caller),
//   kDrop     the index drop of a chunk let go by GC or by the scrubber's
//             quarantine, at metadata rate (reclaim()).
//
// Every op takes the same request path: open_root() opens the request's
// trace and root span when tracing is on, the shard request carries that
// context through the RPC fabric, index_serve() runs its index work through
// the shard's scheduler, and a request whose endpoint died parks until
// replay_parked() re-issues it.
//
// The shard queue is the *metadata/index* path — chunk payloads physically
// live on placement-home node devices and travel the network as RPC request
// bodies, so they are charged to NICs and node devices, never double-charged
// to the index queue.
//
// Chunk keys are rendezvous-hashed onto `shards` endpoints (stable: the same
// key always reaches the same shard while the shard count holds), each shard
// owning its own sim::StorageDevice queue. The coordinator assigns
// shard -> node at startup.
//
// Multi-tenancy (this PR): N computations share one service. Each shard's
// single arrival FIFO is replaced by weighted deficit-round-robin over
// per-(QoS band, tenant) sub-queues: restart traffic (QosClass::kRestart)
// drains with strict priority over checkpoint-storm stores, and within a
// band tenants share device-bytes by their registry weight — a noisy
// tenant's checkpoint storm cannot starve a victim tenant's restart probes.
// Admission control holds a tenant's over-budget stores at the *tenant
// edge* (per-tenant in-flight byte budget) so they queue outside the shard
// scheduler instead of occupying slots; they dispatch as earlier stores
// complete. Chunk content stays tenant-blind: identical bytes dedup across
// tenants and are stored once, while manifests/GC are owned per tenant via
// the "t<id>/<vpid>" owner convention (tenant.h). `--fair-queueing off`
// reverts every shard to the PR-3 arrival FIFO (the bench_tenants ablation).
//
// Failure tolerance: node liveness lives in one map, rpc::NodeHealth, which
// fail_node()/revive_node() write and the fabrics, membership and placement
// read. Every service RPC carries a failure path. A request whose endpoint
// node died *parks* on its shard instead of erroring. The service watches
// cluster membership (src/cluster/): when it declares the node dead, the
// service re-homes the shard to the next live node in the shard's
// rendezvous order and the parked requests replay there in FIFO order.
// Requests are idempotent by chunk key, so callers observe elevated
// latency — never an error. Changing the shard count between rounds runs a
// consistent-hash rebalance: only the keys whose rendezvous winner changed
// migrate, in batched metadata RPCs through the normal queues.
//
// Background activities ride the same queues (as kSystemTenant, on the
// checkpoint band — repair storms are weighed against foreground traffic,
// not above it):
//   - heal: after a node death, degraded chunks (>= k but < k+m clean
//     fragments) get each dead fragment rebuilt on a fresh rendezvous home;
//   - scrubbing: scrub(N) verifies up to N resident chunks per round
//     against their manifest CRCs. A rotten fragment (or replica copy) is
//     repaired in place from its clean siblings; a corrupt container is
//     *quarantined* (repo entry masked, placement forgotten) so the next
//     generation's encode re-stores it fresh from live content — the
//     forward-heal path; degraded survivors the scan trips over are routed
//     to the heal daemon;
//   - cold demotion: chunks only old generations reference re-stripe to
//     the wider cold profile;
//   - rebalancing: see above.
// Heal, scrub repair and demotion move their bytes through one repair job:
// gather k fragments at a coder node, code there, then write the targets.
//
// The service charges its shard queues and the RPC fabric. Physical bytes
// land on node-local devices through the injected DeviceCharger (stores and
// restart fetches stay charged by core, which owns the kernel).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckptstore/placement.h"
#include "ckptstore/repository.h"
#include "ckptstore/tenant.h"
#include "rpc/rpc.h"
#include "sim/net.h"
#include "sim/storage.h"
#include "util/types.h"

namespace dsim::cluster {
class Membership;
}  // namespace dsim::cluster

namespace dsim::ckptstore {

/// Request statistics, cumulative over the computation. core's
/// collect_metrics names the fields under store.*, and each CkptRound
/// carries their delta. Per-tenant breakdowns live in the TenantRegistry
/// (tenants()).
struct ServiceStats {
  u64 lookup_requests = 0;
  u64 lookup_batches = 0;  // lookup RPCs issued (K keys amortize one RPC)
  u64 store_requests = 0;
  u64 fetch_requests = 0;
  u64 drop_requests = 0;
  u64 store_bytes = 0;  // accepted chunk bytes (one container; fragments
                        // land on the node devices, not the shard queues)
  u64 fetch_bytes = 0;
  /// Submit -> completion wait of every lookup/fetch key (one histogram
  /// sample per key, including the RPC's network hops and endpoint message
  /// CPU). mean() is the headline contention metric; a round's max is
  /// its registry delta's max() (exact on a computation's first round,
  /// bucketed after that).
  obs::Histogram lookup_wait;
  // Admission control: stores held at their tenant edge because the
  // tenant's in-flight byte budget was exhausted, and the per-store hold
  // before dispatching.
  u64 admission_held_requests = 0;
  obs::Histogram admission_wait;
  // Heal daemon: chunks restored to full strength after a node failure, and
  // the fragment bytes written doing it (frag_bytes per fresh home — one
  // full copy per fresh home under replication).
  u64 rereplicated_chunks = 0;
  u64 rereplicated_bytes = 0;
  // Scrub daemon: chunks verified against manifest CRCs, and the failures.
  u64 scrubbed_chunks = 0;
  u64 scrub_corrupt_chunks = 0;  // content no longer matches its CRC
  u64 scrub_missing_chunks = 0;  // fewer than k fragments survive
  /// Corrupt chunks the scrubber quarantined for forward re-store (the next
  /// generation's encode writes them fresh from live content).
  u64 scrub_quarantined_chunks = 0;
  // Shard failover: requests that found their endpoint dead and parked,
  // requests re-issued after a re-home, and shards re-homed.
  u64 parked_requests = 0;
  u64 replayed_requests = 0;
  u64 rehomed_shards = 0;
  /// Shards moved *back* to their assigned endpoint at a round boundary
  /// after the endpoint was revived (rehome_to_owners()).
  u64 rehomed_back_shards = 0;
  // Consistent-hash rebalancing (shard-count changes between rounds).
  u64 rebalances = 0;
  u64 rebalance_moved_keys = 0;
  u64 rebalance_moved_bytes = 0;    // stored bytes of reassigned keys
  u64 rebalance_scanned_keys = 0;   // resident keys examined across passes
  u64 rebalance_scanned_bytes = 0;  // stored bytes examined across passes
  /// Bytes physically moved by heal repairs — device reads, network hops
  /// and device writes summed. The rebuild-traffic comparison
  /// bench_erasure gates: for F lost homes a heal moves (2k + 2F - 1)
  /// fragment-sizes, ~(2k + 2F - 1)/k containers at (k,m) and the 1 + 2F
  /// full copies of an R-way re-store at k = 1.
  u64 heal_moved_bytes = 0;
  /// Heal: fragments rebuilt onto fresh homes from k survivors (replica
  /// copies under replication).
  u64 rebuilt_fragments = 0;
  /// Corrupt fragments (or replica copies) the scrubber reconstructed in
  /// place from the clean survivors instead of quarantining the chunk.
  u64 scrub_repaired_fragments = 0;
  // Cold-tier demotion daemon: chunks re-striped to the wider cold (k,m)
  // profile, and the logical bytes they carry.
  u64 demoted_chunks = 0;
  u64 demoted_bytes = 0;
  double avg_lookup_wait_seconds() const { return lookup_wait.mean(); }
};

class ChunkStoreService {
 public:
  /// The redundancy profile: every stored chunk is striped into k data +
  /// m parity fragments (--erasure K,M), and --chunk-replicas R is the
  /// (1, R-1) code, whose fragments are full copies. cold_k > 0
  /// additionally arms the demotion daemon (--cold-erasure /
  /// --hot-generations), re-striping chunks referenced only by generations
  /// older than `hot_generations` to the wider cold profile.
  struct ErasureConfig {
    int k = 1;
    int m = 0;
    int cold_k = 0;
    int cold_m = 0;
    int hot_generations = 0;
    bool cold_enabled() const { return cold_k > 0; }
  };

  /// `erasure` is the profile every chunk is stored under; `shards`
  /// independent service endpoints; `lookup_batch` keys per lookup RPC.
  /// Until set_endpoints() overrides them, shard s lives on node
  /// (s mod nodes) so directly-constructed services (tests) work.
  ChunkStoreService(sim::EventLoop& loop, sim::Network& net,
                    ErasureConfig erasure, int shards = 1,
                    int lookup_batch = 1);

  const ErasureConfig& erasure() const { return erasure_; }

  /// Endpoint setup (done by the coordinator at startup: the shards run
  /// where the coordinator says they run, as dmtcp_coordinator itself does).
  void set_endpoints(std::vector<NodeId> nodes);
  const std::vector<NodeId>& endpoints() const { return endpoints_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Rendezvous hash of `key` over `shards` endpoints — a pure function of
  /// (key, shard count), so the same key hits the same shard in every run
  /// and a shard-count change reassigns exactly the keys whose winner
  /// changed (the consistent-hashing property rebalance() relies on).
  static int shard_of_n(const ChunkKey& key, int shards);
  int shard_of(const ChunkKey& key) const {
    return shard_of_n(key, num_shards());
  }

  /// The cluster-scope repository (shared so DmtcpShared::repos can alias
  /// it — stats aggregation and migration keep working unchanged).
  const std::shared_ptr<Repository>& repo_ptr() const { return repo_; }
  Repository& repo() { return *repo_; }
  ChunkPlacement& placement() { return placement_; }
  const ChunkPlacement& placement() const { return placement_; }
  /// The cluster's one liveness map (ground truth of node death): the
  /// fabrics, the membership service and placement all read it.
  const std::shared_ptr<rpc::NodeHealth>& health() const { return health_; }

  /// Per-tenant config (DRR weights, admission budgets, cold-demotion
  /// ages) and per-tenant request statistics. Each computation's
  /// control handle registers its tenant here at startup.
  TenantRegistry& tenants() { return tenants_; }
  const TenantRegistry& tenants() const { return tenants_; }
  /// Fair queueing on (default): per-shard DRR over (QoS band, tenant)
  /// sub-queues. Off: the PR-3 single arrival FIFO per shard — requests
  /// hit the shard device in arrival order regardless of tenant or QoS.
  void set_fair_queueing(bool on) { fair_queueing_ = on; }
  bool fair_queueing() const { return fair_queueing_; }

  /// Node-device charging hook (kernel charge_storage_bg, injected by core:
  /// the daemons must land rebuilt fragments and verification reads on node
  /// devices, but this layer does not own the kernel). Unset: bytes are
  /// accounted on the shard queues only.
  using DeviceCharger = std::function<void(
      NodeId node, u64 bytes, bool is_read, std::function<void()> done)>;
  void set_device_charger(DeviceCharger charger) {
    charger_ = std::move(charger);
  }
  /// Node-device trim hook (kernel discard_storage, injected by core): the
  /// scrubber's quarantine must drop the rotten container's bytes from the
  /// placement homes' devices, exactly as GC pairs every reclaim with a
  /// trim. Unset: only the owning shard's metadata queue records the drop.
  using DeviceTrimmer = std::function<void(NodeId node, u64 bytes)>;
  void set_device_trimmer(DeviceTrimmer trimmer) {
    trimmer_ = std::move(trimmer);
  }
  /// Node-CPU charging hook (kernel cpu().submit, injected by core): the
  /// repair job burns real decode/encode CPU at its coder — a fragment
  /// rebuild decodes at the rebuilding node, a demotion re-encodes at the
  /// first cold home — and that work must contend with the application
  /// through the fluid share. Unset: decode/encode completes instantly.
  using CpuCharger =
      std::function<void(NodeId node, double seconds, std::function<void()>)>;
  void set_cpu_charger(CpuCharger charger) {
    cpu_charger_ = std::move(charger);
  }

  /// Wire the service to the failure detector (the DMTCP world does it
  /// once, at startup). The service subscribes to `membership`: a
  /// transition to kDead runs the death reaction, and from then on
  /// fail_node() leaves the reaction to detection. Each keeps a pointer to
  /// the other, so both must live while either is used (DmtcpShared owns
  /// both).
  void watch(cluster::Membership& membership);

  /// THE service entry point: every Lookup/Store/Restore/Fetch/Drop flows
  /// through this one typed envelope (the per-op signatures of PRs 3-7 are
  /// gone). The reply is the synchronous half: placement targets for
  /// stores (the caller charges one device write per home; empty on a
  /// placement dedup hit) and whether admission control dispatched the
  /// request immediately. `req.done` fires when the service has finished —
  /// the last probe's response for lookups, the shard ack for stores (even
  /// when held at the tenant edge first), the index probe's response for
  /// fetches. Drops are fire-and-forget (`done` may be empty).
  ///
  /// Per-(tenant, QoS band) order is FIFO end to end; cross-tenant order
  /// within a shard is the fair-queueing scheduler's business.
  StoreReply submit(StoreRequest req);

  /// Simulated node failure. Ground truth lands immediately: the node goes
  /// down in NodeHealth, so its chunk copies become unreachable and its
  /// RPCs stop being chargeable. A watched service reacts when membership
  /// declares the death, detection latency and all; an unwatched one
  /// (standalone tests) reacts at once. The membership monitor cannot be
  /// killed.
  void fail_node(NodeId node);
  /// Simulated node revival, the mirror image and the only way back: the
  /// node comes up in NodeHealth (through membership when watched), and
  /// requests parked against its endpoints replay.
  void revive_node(NodeId node);

  /// Move every shard whose current endpoint differs from its *assigned*
  /// endpoint (set_endpoints()/rebalance()) back, provided the assigned
  /// node is live again. Failover re-homes are meant to be temporary —
  /// without this, a revived endpoint rejoins placement but its shards stay
  /// wherever failover pushed them forever. Called by the coordinator at
  /// the round boundary (no in-flight requests); replays anything parked on
  /// the moved shards. Returns the number of shards moved back.
  int rehome_to_owners();

  /// Let go of a chunk the repository no longer holds (GC reclaimed it, or
  /// scrub quarantined it): forget its placement and drop its `bytes`
  /// from the owning shard's index at metadata rate, a kDrop from `from`
  /// under `tenant`. Returns the trims the caller owes each former home,
  /// one fragment each (the full container under replication), on the
  /// device path its writes used.
  std::vector<StoreTarget> reclaim(TenantId tenant, NodeId from,
                                   const ChunkKey& key, u64 bytes);

  /// The claim table: keys a writer's Lookup was told to store whose
  /// Store is not yet recorded, with the writer (one id per claiming
  /// Lookup request) and its node. A claim ends when any Store of the key
  /// is recorded, when the key is reclaimed, or when its writer's node is
  /// declared dead, so a key is never claimed and placed at once, and none
  /// stays claimed past its writer.
  struct Claim {
    u64 writer = 0;
    NodeId node = 0;
  };
  const std::map<ChunkKey, Claim>& claims() const { return claims_; }
  /// A claiming Lookup's batches in flight; a plain Lookup sends all of
  /// its batches at once. A probe's round trip costs about 21 probes of
  /// shard service, so 64 keeps a lone writer's shards busy, while a writer
  /// that starts first gets 64 probes ahead of the others rather than all
  /// of its probes.
  static constexpr size_t kClaimWindow = 64;

  /// True when no heal work is pending or in flight.
  bool rereplication_idle() const {
    return heal_in_flight_ == 0 && heal_pending_.empty() &&
           !heal_scan_scheduled_;
  }

  /// Scrub pass: verify up to `max_chunks` resident chunks (round-robin
  /// cursor) against their recorded CRCs, charging each verification read
  /// to the owning shard's queue. Real containers decode by the codec their
  /// header names. Corrupt containers are quarantined for forward
  /// re-store; degraded survivors kick the heal daemon. Per-fragment rot
  /// (corrupt_fragment()) is *repaired* in place — the fragment (or
  /// replica copy) is rebuilt from k clean survivors by the repair job —
  /// and only a chunk with > m bad fragments falls back to quarantine.
  void scrub(u64 max_chunks);

  /// Simulated fragment rot: mark fragment `index` of `key` (copy `index`
  /// under replication) corrupt, to be found and repaired by a later scrub
  /// pass. Returns false when the key is unknown or the index is out of
  /// range.
  bool corrupt_fragment(const ChunkKey& key, int index) {
    return placement_.corrupt_fragment(key, index);
  }

  /// Cold-tier demotion pass: re-stripe up to `max_chunks` chunks
  /// referenced only by generations older than the per-tenant effective
  /// hot_generations to the cold (k,m) profile, charging fragment reads,
  /// a decode + re-encode at the first cold home, old-fragment trims and
  /// new-fragment writes in the background. Returns the number of chunks
  /// demoted (0 when no cold profile is armed). The coordinator calls
  /// this once per round, capped at params::kDemoteChunksPerRound.
  int demote_cold(u64 max_chunks);

  /// Consistent-hash rebalance to `new_shards` endpoints (between rounds;
  /// no requests may be parked or in flight). Only the keys whose shard
  /// assignment changed migrate: each batch costs an index read on the old
  /// shard's queue, a metadata RPC old endpoint -> new endpoint, and an
  /// index insert on the new shard's queue. `done` fires when every moved
  /// key has landed.
  void rebalance(int new_shards, std::vector<NodeId> new_endpoints,
                 std::function<void()> done);

  sim::StorageDevice& shard_device(int shard) {
    return *shards_[static_cast<size_t>(shard)].q->dev;
  }
  const rpc::RpcFabric& fabric() const { return fabric_; }
  const ServiceStats& stats() const { return stats_; }
  /// Requests currently parked (endpoint died mid-flight, awaiting a
  /// re-home replay), summed across shards. The health engine samples
  /// this at round boundaries — a healthy round ends with zero.
  u64 parked_now() const {
    u64 n = 0;
    for (const Shard& s : shards_) n += static_cast<u64>(s.parked.size());
    return n;
  }

 private:
  /// One service request, held by shared_ptr so a failed attempt can park
  /// and replay it with its completion callback intact (the caller's `done`
  /// fires exactly once, on the attempt that succeeds).
  struct ShardRequest {
    NodeId from = 0;
    u64 request_bytes = 0;
    u64 response_bytes = 0;
    rpc::RpcFabric::Handler serve;
    std::function<void()> done;
    /// Trace this attempt belongs to (zero trace_id when untraced), so a
    /// park/replay re-issues under the same trace — which the tracer is
    /// told to exempt from span tiling.
    obs::TraceContext trace;
  };
  /// One shard's index queue: the device that prices metadata work plus
  /// the fair-queueing scheduler in front of it. Dispatch discipline: an
  /// item leaves the FairQueue only when the device is free, so the DRR
  /// decides order while the device keeps pricing service time — with a
  /// single tenant this is timing-identical to submitting straight into
  /// the device FIFO.
  struct IndexQueue {
    std::unique_ptr<sim::StorageDevice> dev;
    FairQueue fq;
    bool pump_scheduled = false;
    std::string fq_lane;  // "<device>/queue": the store.fq_wait lane
  };
  struct Shard {
    /// Owned by queues_. In-flight serve closures capture the queue they
    /// were aimed at, so a rebalance that swaps the shard set mid-flight (a
    /// racing restart) can never leave a closure indexing a vector that
    /// shrank under it — the request drains through its original queue.
    IndexQueue* q = nullptr;
    /// Requests whose endpoint died mid-flight, FIFO, awaiting re-home.
    std::deque<std::shared_ptr<ShardRequest>> parked;
  };
  /// Admission control state for one tenant: bytes of dispatched,
  /// not-yet-acked stores, plus the stores held back because dispatching
  /// them would exceed the tenant's budget.
  struct TenantEdge {
    u64 inflight_bytes = 0;
    struct Held {
      u64 bytes = 0;
      SimTime held_at = 0;
      std::function<void()> dispatch;
    };
    std::deque<Held> held;
  };

  /// Reaction to a detected node death: kick the heal daemon for the
  /// fragments the node held, and re-home every shard whose endpoint died
  /// to the next live node in the shard's rendezvous order, replaying
  /// parked requests there. Idempotent.
  void handle_node_death(NodeId node);
  NodeId endpoint_of(int shard) const {
    return endpoints_[static_cast<size_t>(shard)];
  }
  /// Issue (or re-issue) a request against the shard's current endpoint;
  /// parks it on fabric failure.
  void shard_call(int shard, std::shared_ptr<ShardRequest> req);
  /// Re-issue every request parked on shard `s`, in FIFO order.
  void replay_parked(size_t s);
  static std::shared_ptr<ShardRequest> make_request(
      NodeId from, u64 request_bytes, u64 response_bytes,
      rpc::RpcFabric::Handler serve, std::function<void()> done,
      obs::TraceContext trace);
  /// Open the trace of one request (a lookup batch of `n` keys, a store,
  /// fetch or drop) and its root span `name` on the caller's "requests"
  /// lane. The returned context's parent_span is the root; zero when
  /// tracing is off.
  obs::TraceContext open_root(const StoreRequest& req, const char* name,
                              u64 n = 1);
  /// Hand one unit of index work to the shard's scheduler: `run` performs
  /// the actual device submission (or discard) when the scheduler
  /// dispatches it. Bypasses the FairQueue entirely when fair queueing is
  /// off — `run` executes immediately, the PR-3 arrival-FIFO behavior.
  void enqueue_index(IndexQueue* q, TenantId tenant, QosClass qos, u64 cost,
                     std::function<void()> run, obs::TraceContext tctx = {});
  /// Dispatch queued items while the shard device is free; re-arm at
  /// busy_until() otherwise. One item dispatches per device-free instant,
  /// so late-arriving restart-band work can still overtake a queued
  /// checkpoint storm.
  void pump_queue(IndexQueue* q);
  /// A new shard queue (device "chunkstore<s>"), owned by queues_.
  IndexQueue* make_queue(int s);
  /// Serve handler for `n` back-to-back index probes/inserts on the
  /// shard's queue (a lookup batch, or one store or fetch), routed through
  /// the fair-queueing scheduler under (tenant, qos). `served`, when set,
  /// runs once the probes are served, before the response leaves: a
  /// claiming lookup batch decides its verdicts there.
  rpc::RpcFabric::Handler index_serve(int shard, bool is_read,
                                      TenantId tenant, QosClass qos,
                                      obs::TraceContext tctx, u64 n = 1,
                                      std::function<void()> served = {});
  /// The verdict for `writer`'s probe of `key`: store it (true) when the
  /// key is unplaced and unclaimed, claiming it, or already `writer`'s.
  bool claim(const ChunkKey& key, u64 writer, NodeId node);
  /// One RPC's worth of a Lookup: its shard, the positions in the
  /// request's keys it probes, and (claiming Lookups) their verdicts once
  /// served.
  struct LookupBatch {
    int shard = 0;
    std::vector<size_t> at;
    std::vector<bool> store;
  };
  /// One Lookup in flight: the request (its keys, callbacks and caller),
  /// its batches in sending order, and the next one to send.
  struct LookupRun {
    StoreRequest req;
    u64 writer = 0;  // claiming: the id its probes claim under; else 0
    std::vector<LookupBatch> batches;
    size_t next = 0;
    u64 remaining = 0;  // keys whose batch has not returned
  };
  /// Send `run`'s next batch; a claiming Lookup's batch sends the one
  /// after it when it returns.
  void send_lookup_batch(const std::shared_ptr<LookupRun>& run);
  // The envelope's per-op bodies.
  void do_lookups(StoreRequest req);
  StoreReply do_store(StoreRequest req);
  void do_fetch(StoreRequest req);
  void do_drop(StoreRequest req);
  /// The shared tail of kStore/kRestore: account the store and queue its
  /// index insert RPC.
  void queue_store(NodeId from, TenantId tenant, QosClass qos,
                   const ChunkKey& key, u64 charged_bytes,
                   std::function<void()> done, obs::TraceContext tctx);
  /// Dispatch held stores whose tenant budget has room again (called from
  /// every store completion).
  void drain_edge(TenantId tenant);
  void park(int shard, std::shared_ptr<ShardRequest> req);
  /// Next live node in the shard's rendezvous order (highest-random-weight
  /// over (shard, node), restricted to NodeHealth-up nodes).
  NodeId pick_endpoint(int shard) const;
  void charge_node(NodeId node, u64 bytes, bool is_read,
                   std::function<void()> done);
  void charge_cpu(NodeId node, double seconds, std::function<void()> done);
  /// The placement homes of a just-recorded store as chargeable writes.
  std::vector<StoreTarget> store_targets(const ChunkKey& key,
                                         const std::vector<NodeId>& homes);
  /// Any parity to heal back to? m = 0 (R=1) losses are not degraded,
  /// they are gone.
  bool redundant() const { return erasure_.m > 0; }
  void schedule_heal_scan();
  void pump_heal();
  void heal_one(const ChunkKey& key);
  /// An index probe on `key`'s shard as system-tenant work through its
  /// scheduler, then `then` — the metadata step in front of heal and
  /// demotion jobs and of each scrub verification read.
  void system_probe(const ChunkKey& key, std::function<void()> then);
  /// One gather -> code -> scatter repair, shared by heal, scrub repair
  /// and cold demotion: read each source off its device and move it over
  /// its NIC to the coder; charge the coder's CPU (skipped at 0) under a
  /// `store.erasure_decode` span on `lane`; trim `trim`; then write every
  /// target — locally on the coder, over the coder's NIC elsewhere.
  /// `done` fires when the last target write lands.
  struct RepairJob {
    std::vector<ChunkPlacement::FetchSource> sources;
    NodeId coder = 0;
    double cpu_seconds = 0;
    std::vector<NodeId> trim;
    u64 trim_bytes = 0;
    std::vector<NodeId> targets;
    u64 target_bytes = 0;
    const char* lane = "heal";
  };
  void run_repair(RepairJob job, std::function<void()> done);

  sim::EventLoop& loop_;
  sim::Network& net_;
  std::shared_ptr<rpc::NodeHealth> health_;
  rpc::RpcFabric fabric_;
  std::vector<Shard> shards_;
  /// Every shard queue this service has made, current or retired by a
  /// rebalance: work already aimed at a queue drains through it, so queues
  /// live as long as the service. Closures hold plain pointers — a queued
  /// item owning its own queue would be a cycle nothing ever frees.
  std::vector<std::unique_ptr<IndexQueue>> queues_;
  std::vector<NodeId> endpoints_;
  /// The coordinator-assigned (or rebalance-chosen) endpoint per shard:
  /// where each shard *should* live when its node is up. endpoints_ drifts
  /// from this under failover; rehome_to_owners() converges them.
  std::vector<NodeId> assigned_endpoints_;
  int lookup_batch_;
  ErasureConfig erasure_;
  std::shared_ptr<Repository> repo_;
  ChunkPlacement placement_;
  ServiceStats stats_;
  TenantRegistry tenants_;
  std::map<TenantId, TenantEdge> edges_;
  std::map<ChunkKey, Claim> claims_;
  u64 last_writer_ = 0;  // the last claiming Lookup's writer id
  bool fair_queueing_ = true;
  DeviceCharger charger_;
  DeviceTrimmer trimmer_;
  CpuCharger cpu_charger_;
  /// The failure detector watch() wired in; null when unwatched.
  cluster::Membership* membership_ = nullptr;
  // Heal daemon state.
  std::deque<ChunkKey> heal_pending_;
  int heal_in_flight_ = 0;
  bool heal_scan_scheduled_ = false;
  // Scrub round-robin cursor (last key verified).
  ChunkKey scrub_cursor_{};
};

}  // namespace dsim::ckptstore
