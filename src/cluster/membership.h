// Cluster membership: heartbeat failure detection for the chunk store.
//
// DMTCP's coordinator is the one process that knows which peers are alive,
// yet until this subsystem existed our store treated node death as an
// out-of-band fail_node() call that only the re-replication daemon reacted
// to — a shard endpoint that died silently stranded its FIFO queue and
// every in-flight Lookup/Store/Fetch. stdchk's lesson is that a checkpoint
// store built on failure-prone contributor nodes needs *first-class*
// membership: someone must notice the silence and drive recovery.
//
// The membership service runs on the coordinator's node (the monitor) and
// heartbeats every other node over the RPC fabric:
//
//             ack within interval              miss                miss x N
//   kAlive ─────────────────────┐   ┌─────► kSuspect ──────────► kDead
//      ▲                        │   │           │                   │
//      └────────────────────────┘   │           │ ack (resets)      │ final
//      └── ack while suspect ◄──────┴───────────┘                   ▼
//                                                  listeners (chunk store)
//
// One missed heartbeat moves a node to kSuspect (it may just be slow — the
// fabric inherits Network::set_jitter); `heartbeat_misses` *consecutive*
// misses declare it kDead and notify subscribers (the chunk-store service,
// wired by ChunkStoreService::watch, re-homes the node's shards and kicks
// the heal daemon for its fragments). kDead is terminal for a given
// incarnation: revive_node() readmits the node as a fresh member.
//
// Ground truth vs. detection: the chunk store's fail_node() is the
// *simulation's* kill switch — it marks the node down in the shared
// rpc::NodeHealth map immediately (bytes and RPCs stop being chargeable the
// instant the node dies), while the membership *state machine* only learns
// of the death through missed heartbeats, `heartbeat_misses x
// heartbeat_interval` later. That gap is the detection latency real
// systems live with, and the store's park/replay machinery is what makes
// it survivable.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "rpc/rpc.h"
#include "sim/event_loop.h"
#include "sim/net.h"
#include "util/types.h"

namespace dsim::cluster {

enum class NodeState : u8 { kAlive = 0, kSuspect = 1, kDead = 2 };

struct MembershipConfig {
  /// --heartbeat-interval: one probe per monitored node per interval.
  SimTime heartbeat_interval = 10 * timeconst::kMillisecond;
  /// --heartbeat-misses: consecutive misses before kSuspect becomes kDead.
  int heartbeat_misses = 3;
  /// The monitor (the coordinator's node) — never probed, assumed alive.
  NodeId monitor_node = 0;
};

struct MembershipStats {
  u64 heartbeats_sent = 0;
  u64 heartbeat_acks = 0;
  u64 heartbeat_misses = 0;  // probes that fired their failure path
  u64 suspicions = 0;        // kAlive -> kSuspect transitions
  u64 deaths = 0;            // -> kDead transitions
};

class Membership {
 public:
  /// `health` is the cluster's shared RPC liveness map (the same object the
  /// chunk-store service's fabric consults); the membership fabric shares
  /// it so a heartbeat to a killed node fails exactly like a store request.
  Membership(sim::EventLoop& loop, sim::Network& net,
             std::shared_ptr<rpc::NodeHealth> health, MembershipConfig cfg);

  /// Begin (or stop) the heartbeat loop. Heartbeats contend on the
  /// monitor's NIC like any other traffic.
  void start();
  void stop();

  NodeState state(NodeId n) const {
    return states_.at(static_cast<size_t>(n));
  }
  bool alive(NodeId n) const { return state(n) != NodeState::kDead; }
  int num_nodes() const { return static_cast<int>(states_.size()); }

  /// Transition listener, called as (node, from, to). Subscribed by the
  /// chunk-store service (ChunkStoreService::watch); fires on every state
  /// change including suspicion, so subscribers can pre-stage recovery.
  using Listener = std::function<void(NodeId, NodeState, NodeState)>;
  void subscribe(Listener l) { listeners_.push_back(std::move(l)); }

  /// Readmit a node: health up, state kAlive, miss counter cleared.
  void revive_node(NodeId n);

  const MembershipStats& stats() const { return stats_; }
  const rpc::RpcFabric& fabric() const { return fabric_; }
  const MembershipConfig& config() const { return cfg_; }

 private:
  void tick();
  void on_ack(NodeId n);
  void on_miss(NodeId n);
  void transition(NodeId n, NodeState to);

  sim::EventLoop& loop_;
  std::shared_ptr<rpc::NodeHealth> health_;
  rpc::RpcFabric fabric_;  // own fabric, shared health: heartbeat traffic
                           // contends on NICs but is attributed separately
                           // from store requests in per-round stats
  MembershipConfig cfg_;
  std::vector<NodeState> states_;
  std::vector<int> misses_;  // consecutive misses per node
  std::vector<Listener> listeners_;
  MembershipStats stats_;
  sim::PeriodicTimer timer_;
};

}  // namespace dsim::cluster
