#include "cluster/membership.h"

#include "sim/model_params.h"
#include "util/assertx.h"
#include "util/logging.h"

namespace dsim::cluster {

namespace params = sim::params;

Membership::Membership(sim::EventLoop& loop, sim::Network& net,
                       std::shared_ptr<rpc::NodeHealth> health,
                       MembershipConfig cfg)
    : loop_(loop),
      health_(health ? std::move(health)
                     : std::make_shared<rpc::NodeHealth>(net.num_nodes())),
      fabric_(loop, net, health_),
      cfg_(cfg),
      states_(static_cast<size_t>(net.num_nodes()), NodeState::kAlive),
      misses_(static_cast<size_t>(net.num_nodes()), 0),
      timer_(loop) {
  DSIM_CHECK_MSG(cfg_.heartbeat_interval > 0,
                 "heartbeat interval must be positive");
  DSIM_CHECK_MSG(cfg_.heartbeat_misses >= 1,
                 "a node must be allowed at least one miss before death");
  DSIM_CHECK_MSG(cfg_.monitor_node >= 0 &&
                     cfg_.monitor_node < net.num_nodes(),
                 "membership monitor is outside the cluster");
}

void Membership::start() {
  timer_.start(cfg_.heartbeat_interval, [this] { tick(); });
}

void Membership::stop() { timer_.stop(); }

void Membership::tick() {
  // One probe per monitored node per interval. Acks ride the normal return
  // hop; a probe to a dead node fails at the fabric (the request arrives
  // nowhere) and counts as a miss. Probes already in flight when the next
  // tick fires are fine: miss counting is per-response, and a late ack
  // resets the counter.
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (n == cfg_.monitor_node) continue;
    if (states_[static_cast<size_t>(n)] == NodeState::kDead) continue;
    stats_.heartbeats_sent++;
    // Standalone probe span (trace_id 0): covers send -> ack/miss, so the
    // trace shows detection-latency gaps as missing heartbeat lanes.
    const u64 span = loop_.begin_span("cluster.heartbeat", cfg_.monitor_node,
                                      "heartbeat");
    fabric_.call(
        cfg_.monitor_node, n, params::kHeartbeatBytes,
        params::kHeartbeatBytes,
        [](rpc::RpcFabric::Reply reply) { reply(); },
        [this, n, span] {
          loop_.end_span(span);
          on_ack(n);
        },
        [this, n, span] {
          loop_.end_span(span);
          on_miss(n);
        });
  }
}

void Membership::on_ack(NodeId n) {
  stats_.heartbeat_acks++;
  misses_[static_cast<size_t>(n)] = 0;
  if (states_[static_cast<size_t>(n)] == NodeState::kSuspect) {
    transition(n, NodeState::kAlive);
  }
}

void Membership::on_miss(NodeId n) {
  stats_.heartbeat_misses++;
  const NodeState st = states_[static_cast<size_t>(n)];
  if (st == NodeState::kDead) return;  // already declared (e.g. straggler)
  const int misses = ++misses_[static_cast<size_t>(n)];
  if (misses >= cfg_.heartbeat_misses) {
    transition(n, NodeState::kDead);
  } else if (st == NodeState::kAlive) {
    transition(n, NodeState::kSuspect);
  }
}

void Membership::transition(NodeId n, NodeState to) {
  NodeState& st = states_.at(static_cast<size_t>(n));
  if (st == to) return;
  const NodeState from = st;
  st = to;
  if (to == NodeState::kSuspect) stats_.suspicions++;
  if (to == NodeState::kDead) {
    stats_.deaths++;
    LOG_INFO("membership: node %d declared dead (%llu consecutive misses)",
             n,
             static_cast<unsigned long long>(
                 misses_[static_cast<size_t>(n)]));
  }
  for (const Listener& l : listeners_) l(n, from, to);
}

void Membership::revive_node(NodeId n) {
  DSIM_CHECK_MSG(n >= 0 && n < num_nodes(),
                 "revive_node names a node outside the cluster");
  health_->revive(n);
  misses_[static_cast<size_t>(n)] = 0;
  transition(n, NodeState::kAlive);
}

}  // namespace dsim::cluster
