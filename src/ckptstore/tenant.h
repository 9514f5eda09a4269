// Multi-tenant vocabulary for the chunk-store service.
//
// One shared service now serves N concurrent computations (tenants): mixed
// desktop + MPI jobs with staggered checkpoint intervals hitting the same
// shard endpoints, the stdchk shape. This header holds everything the
// service needs to keep those tenants honest:
//
//   StoreRequest/StoreReply   the one typed envelope every service RPC uses
//                             (Lookup/Store/Restore/Fetch/Drop used to be
//                             five ad-hoc signatures; context like tenant id
//                             and QoS class now travels in one place),
//   TenantRegistry            per-tenant config (DRR weight, in-flight store
//                             byte budget, cold-demotion age) and
//                             per-tenant request statistics,
//   FairQueue                 deficit round-robin over per-(QoS band, tenant)
//                             sub-queues — the scheduler that replaces each
//                             shard's single arrival FIFO, so one tenant's
//                             checkpoint storm cannot starve another
//                             tenant's restart probes,
//   tenant_owner() et al.     the owner-string convention ("t<id>/<vpid>")
//                             that folds the tenant id into manifest/GC
//                             ownership while chunk *content* stays
//                             tenant-blind — identical bytes dedup across
//                             tenants and are stored exactly once.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ckptstore/chunk.h"
#include "obs/metrics.h"
#include "util/types.h"

namespace dsim::ckptstore {

using TenantId = int;

/// The single-computation default: every pre-multi-tenant caller lands here,
/// so a one-tenant world behaves exactly as before.
inline constexpr TenantId kDefaultTenant = 0;
/// The service's own background daemons (heal, scrub, demote, rebalance):
/// their index probes ride the checkpoint band under this id, so repair
/// storms are weighed against foreground traffic instead of bypassing the
/// scheduler.
inline constexpr TenantId kSystemTenant = -1;

/// QoS bands, strict priority between them: restart traffic (a computation
/// trying to come back to life) always drains before checkpoint-storm
/// stores. Within a band, tenants share by weighted DRR.
enum class QosClass : u8 {
  kCheckpoint = 0,
  kRestart = 1,
};
inline constexpr int kNumQosBands = 2;

enum class StoreOp : u8 {
  kLookup,   // dedup probes, batched per shard
  kStore,    // accept one chunk, place on fresh homes
  kRestore,  // re-store of a dedup hit whose replicas all died
  kFetch,    // restart locating a chunk (index probe; bulk off the holder)
  kDrop,     // GC trim at metadata rate
};

/// One device write a store fans out to: a full replica copy under
/// replication, one fragment under erasure.
struct StoreTarget {
  NodeId node = 0;
  u64 bytes = 0;
};

/// The one typed request envelope. Lookup uses `keys` (all of them);
/// Store/Restore/Fetch/Drop operate on keys[0] with `bytes` payload.
/// `done` fires at the caller when the service has finished the request
/// (last probe's response for lookups; shard ack for stores; never for a
/// fire-and-forget drop, where it may be empty).
struct StoreRequest {
  StoreOp op = StoreOp::kLookup;
  TenantId tenant = kDefaultTenant;
  QosClass qos = QosClass::kCheckpoint;
  NodeId from = 0;
  std::vector<ChunkKey> keys;
  u64 bytes = 0;
  std::function<void()> done;
  /// Lookup only: set, the Lookup takes claims. The key's shard decides
  /// at its index probe who stores a key several writers present, and
  /// `verdict(i, true)` tells this writer to store keys[i]; false means
  /// the key is placed or another writer's to store. A batch's verdicts
  /// arrive with its response, before `done`. Unset, the Lookup is a
  /// plain probe.
  std::function<void(size_t index, bool store)> verdict;
};

/// The synchronous half of the answer. `targets` (Store/Restore only) are
/// the placement writes the caller must charge, one per home. `admitted`
/// is false when admission control held the store at the tenant edge —
/// `done` still fires once the edge drains it through a shard.
struct StoreReply {
  std::vector<StoreTarget> targets;
  bool admitted = true;
};

/// Per-tenant service policy. Zero means "inherit the global default":
/// unlimited budget, the computation's own --hot-generations.
struct TenantConfig {
  double weight = 1.0;            // DRR share within a QoS band
  u64 inflight_budget_bytes = 0;  // admission control; 0 = unlimited
  int hot_generations = 0;        // per-tenant cold-demotion age; 0 = global
};

/// Per-tenant request statistics, cumulative. `wait` records the submit ->
/// completion wait of every lookup/fetch key (one histogram sample per
/// key); a bench windows a phase by snapshotting the histogram before and
/// reading `delta_since(before).quantile(0.99)` after — replacing the old
/// unbounded `wait_samples` vector + exact-sort-at-read-time pattern.
struct TenantStats {
  u64 lookups = 0;
  u64 stores = 0;
  u64 fetches = 0;
  u64 drops = 0;
  u64 store_bytes = 0;
  u64 admission_held = 0;  // stores held at the tenant edge
  obs::Histogram wait;     // per-key lookup+fetch wait (seconds)
  obs::Histogram admission_wait;  // per-store hold at the tenant edge
};

/// Config + stats, keyed by tenant id. Unconfigured tenants read the
/// defaults (weight 1.0, no budget, global retention).
class TenantRegistry {
 public:
  void configure(TenantId t, TenantConfig cfg) { configs_[t] = cfg; }
  const TenantConfig& config(TenantId t) const {
    auto it = configs_.find(t);
    return it == configs_.end() ? default_ : it->second;
  }
  double weight(TenantId t) const { return config(t).weight; }
  /// Effective hot-generation age for `t`: its override, else the global.
  int hot_for(TenantId t, int global_hot) const {
    const int h = config(t).hot_generations;
    return h > 0 ? h : global_hot;
  }
  TenantStats& stats(TenantId t) { return stats_[t]; }
  const std::map<TenantId, TenantStats>& all_stats() const { return stats_; }

 private:
  std::map<TenantId, TenantConfig> configs_;
  std::map<TenantId, TenantStats> stats_;
  TenantConfig default_{};
};

/// DRR quantum at weight 1.0, in device-equivalent bytes (the same unit
/// item costs are expressed in: index-probe bytes for metadata work). Large
/// enough that a lookup batch passes in one grant, small enough that a
/// store burst cannot monopolize a rotation.
inline constexpr u64 kFairQueueQuantumBytes = 256 * 1024;

/// Deficit round-robin over per-(QoS band, tenant) sub-queues.
///
/// Strict priority between bands: pop() drains the restart band before the
/// checkpoint band ever runs. Within a band, Shreedhar and Varghese's DRR:
/// each sub-queue holds a deficit counter, granted quantum * weight for a
/// visit and spent serving its head while the head fits. A sub-queue is
/// granted when it becomes active and again each time it rotates to the
/// back, so a tenant that joins a busy band waits out at most the
/// incumbent's remaining grant, and over time each tenant's share of
/// device-bytes converges to its weight regardless of who floods the
/// queue. Per-tenant order stays FIFO.
class FairQueue {
 public:
  struct Item {
    u64 cost = 0;  // device-equivalent bytes this item will occupy
    std::function<void()> run;
  };

  void push(QosClass qos, TenantId tenant, double weight, Item item);
  /// Next item by (band priority, DRR). Precondition: !empty().
  Item pop();
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

 private:
  struct SubQueue {
    std::deque<Item> items;
    u64 deficit = 0;
    u64 quantum = kFairQueueQuantumBytes;
  };
  struct Band {
    std::map<TenantId, SubQueue> queues;
    std::deque<TenantId> active;  // DRR rotation; only non-empty sub-queues
  };
  Band bands_[kNumQosBands];
  size_t size_ = 0;
};

/// Owner-string convention: the tenant id is folded into manifest/GC
/// ownership as a "t<id>/" prefix on the per-process owner, so each
/// tenant's generations form an independent namespace while chunk content
/// stays tenant-blind (identical bytes dedup across tenants).
inline std::string tenant_prefix(TenantId t) {
  std::string prefix = "t";
  prefix += std::to_string(t);
  prefix += '/';
  return prefix;
}
inline std::string tenant_owner(TenantId t, const std::string& base_owner) {
  std::string owner = tenant_prefix(t);
  owner += base_owner;
  return owner;
}
/// Parse the tenant back out of an owner string; owners without the prefix
/// (pre-multi-tenant repositories, tests) read as the default tenant.
TenantId tenant_of_owner(const std::string& owner);

}  // namespace dsim::ckptstore
