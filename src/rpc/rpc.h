// Request/response RPC fabric over the simulated cluster network.
//
// PR 3's chunk-store service queued requests that *teleported* to it: no NIC
// hop, no message CPU — the storage queue reproduced the Fig.-5b contention
// shape while the paper's actual bottleneck (coordinator/peer messages over
// Gigabit Ethernet, §4.3) was missing entirely. This layer makes a service
// request a real message:
//
//   caller NIC egress          endpoint message CPU        endpoint NIC
//   (request_bytes)     --->   (serialized per node)  ---> (response_bytes)
//        |                          |                           |
//        +--- sim::Network hop -----+--- handler runs here -----+--> done()
//
// Each call charges the caller's NIC egress device for the request, a
// per-message CPU cost serialized at the endpoint node (two shards on one
// node share one message processor, exactly as two services on one host
// share its cores), and the endpoint's NIC for the response. Transfers ride
// the same egress devices as application sockets, so RPC traffic contends
// with the computation's own traffic and inherits Network::set_jitter.
//
// Node death is first-class (PR 5): a NodeHealth map — shared between every
// fabric of one cluster, so the membership service's heartbeat fabric and
// the chunk store's request fabric agree on who is up — marks dead
// endpoints. A call whose target dies before the response leaves fires its
// `failed` callback instead of `done`, and nothing past the point of death
// is charged: not the endpoint's message CPU, not its NIC (asserted — a
// dead node burning CPU would silently corrupt every latency result
// downstream). The request still crosses the *caller's* NIC: the caller
// cannot know the target died until the silence.
//
// The fabric is deliberately one-way-at-a-time and callback-shaped: the
// chunk-store service composes it with per-shard FIFO queues, and per-shard
// ordering holds because every stage (caller egress, message CPU, shard
// queue, endpoint egress) is itself FIFO.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "obs/trace.h"
#include "sim/event_loop.h"
#include "sim/net.h"
#include "util/types.h"

namespace dsim::rpc {

/// Ground truth of node liveness, shared by every fabric of one cluster
/// (the membership heartbeat fabric and the chunk-store request fabric must
/// agree) and by the store's placement, which keeps no copy. Modeled at the
/// RPC layer, not the network: the simulations that kill a "storage" node
/// may keep its compute processes running until the experimenter kills them
/// separately.
class NodeHealth {
 public:
  explicit NodeHealth(int num_nodes)
      : up_(static_cast<size_t>(num_nodes), true) {}
  void fail(NodeId n) { up_.at(static_cast<size_t>(n)) = false; }
  void revive(NodeId n) { up_.at(static_cast<size_t>(n)) = true; }
  bool up(NodeId n) const {
    return n >= 0 && static_cast<size_t>(n) < up_.size() &&
           up_[static_cast<size_t>(n)];
  }
  int num_nodes() const { return static_cast<int>(up_.size()); }
  int num_up() const {
    return static_cast<int>(std::count(up_.begin(), up_.end(), true));
  }
  /// The cheap guard in front of O(chunk-refs) loss scans: with every node
  /// up, nothing can be lost.
  bool any_down() const { return num_up() < num_nodes(); }

 private:
  std::vector<bool> up_;
};

/// Cumulative fabric statistics. core's collect_metrics names them under
/// rpc.*, so each round's delta shows the network bytes and waits on the
/// lookup path.
struct RpcStats {
  u64 calls = 0;
  u64 net_bytes = 0;            // request + response bytes over the fabric
  double net_wait_seconds = 0;  // cumulative in-flight time, both hops
  double endpoint_cpu_seconds = 0;
  u64 failed_calls = 0;  // target died before the response could leave
};

class RpcFabric {
 public:
  /// `health` is the shared liveness map; a fabric constructed without one
  /// (standalone tests) gets a private all-up map.
  RpcFabric(sim::EventLoop& loop, sim::Network& net,
            std::shared_ptr<NodeHealth> health = nullptr)
      : loop_(loop),
        net_(net),
        health_(health ? std::move(health)
                       : std::make_shared<NodeHealth>(net.num_nodes())) {}

  using Reply = std::function<void()>;
  /// Runs at the endpoint once the request hop and message CPU are paid;
  /// invokes `reply` when the response payload is ready (the fabric then
  /// charges the return hop).
  using Handler = std::function<void(Reply reply)>;

  /// Issue one RPC from node `from` to node `to`. `done` fires back at the
  /// caller after the response hop completes. `from == to` rides the
  /// loopback path (a service colocated with its client still pays message
  /// CPU, just not the wire). If `to` is (or goes) down before the response
  /// leaves its NIC, `failed` fires at the caller instead — no CPU or NIC
  /// charge ever lands on the dead node.
  ///
  /// `tctx` (optional) threads a trace through the call: when the loop has
  /// a tracer and tctx.trace_id != 0, the fabric emits `rpc.request_net`
  /// [sent, arrival], `rpc.dispatch_cpu` [arrival, dispatch] and
  /// `rpc.response_net` [replied, done] child spans, and marks the trace
  /// untiled if the call fails (the request died mid-flight, so its stage
  /// spans cannot tile the caller's root span).
  void call(NodeId from, NodeId to, u64 request_bytes, u64 response_bytes,
            Handler serve, std::function<void()> done,
            std::function<void()> failed = {},
            obs::TraceContext tctx = {});

  const RpcStats& stats() const { return stats_; }
  const std::shared_ptr<NodeHealth>& health() const { return health_; }

 private:
  sim::EventLoop& loop_;
  sim::Network& net_;
  std::shared_ptr<NodeHealth> health_;
  /// Per-node serial message processor: the busy-until chain that makes N
  /// concurrent requests to one endpoint node pay their dispatch CPU one
  /// after another.
  std::map<NodeId, SimTime> msg_cpu_busy_;
  RpcStats stats_;
};

}  // namespace dsim::rpc
