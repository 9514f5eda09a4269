#include "rpc/rpc.h"

#include <algorithm>

#include "sim/model_params.h"
#include "util/assertx.h"

namespace dsim::rpc {

namespace {

/// Every endpoint-side charge (dispatch CPU, response NIC) funnels through
/// this check: a dead node must never be charged for work — it would
/// silently corrupt every latency result downstream of the failure. The
/// graceful path is the caller's liveness branch; this is the invariant
/// that catches any future charge site that forgets the branch.
void assert_chargeable(const NodeHealth& health, NodeId node,
                       const char* what) {
  DSIM_CHECK_MSG(health.up(node), what);
}

}  // namespace

void RpcFabric::call(NodeId from, NodeId to, u64 request_bytes,
                     u64 response_bytes, Handler serve,
                     std::function<void()> done,
                     std::function<void()> failed, obs::TraceContext tctx) {
  stats_.calls++;
  stats_.net_bytes += request_bytes;
  const SimTime sent = loop_.now();
  const u64 req_span = loop_.begin_stage("rpc.request_net", from, "nic", tctx);
  // One shared frame per call: the three liveness checkpoints (arrival,
  // dispatch, reply) share the closure set, and whichever outcome fires
  // first consumes it.
  struct Frame {
    Handler serve;
    std::function<void()> done;
    std::function<void()> failed;
  };
  auto fr = std::make_shared<Frame>(
      Frame{std::move(serve), std::move(done), std::move(failed)});
  auto fail = [this, fr, tctx] {
    stats_.failed_calls++;
    // A failed call can never tile its caller's root span: some stage is
    // missing (the request died mid-flight) and any replay will duplicate
    // the stages that did run.
    if (tctx.trace_id) {
      if (obs::Tracer* t = loop_.tracer()) t->mark_untiled(tctx.trace_id);
    }
    if (fr->failed) loop_.post_now(std::move(fr->failed));
  };
  net_.transfer(
      from, to, request_bytes,
      [this, from, to, response_bytes, sent, fr, fail, tctx,
       req_span]() mutable {
        stats_.net_wait_seconds += to_seconds(loop_.now() - sent);
        loop_.end_span(req_span);
        if (!health_->up(to)) {
          // Dead on arrival: the request crossed the caller's NIC and fell
          // on the floor. No endpoint charge of any kind.
          fail();
          return;
        }
        // Dispatch CPU, serialized per endpoint node: requests that arrived
        // together queue behind one message processor. The CPU is accounted
        // when the dispatch actually runs (below), so a node that dies
        // while requests sit in its dispatch queue is never charged for
        // work it did not do.
        SimTime& busy = msg_cpu_busy_[to];
        busy = std::max(loop_.now(), busy) + sim::params::kRpcMessageCpu;
        // The span covers queueing behind the message processor plus the
        // dispatch CPU itself: [arrival, dispatch-runs).
        const u64 cpu_span =
            loop_.begin_stage("rpc.dispatch_cpu", to, "msgcpu", tctx);
        loop_.post_at(
            busy, [this, from, to, response_bytes, fr, fail, tctx,
                   cpu_span]() mutable {
              loop_.end_span(cpu_span);
              if (!health_->up(to)) {
                fail();  // died before dispatch: CPU never charged
                return;
              }
              assert_chargeable(*health_, to,
                                "RPC dispatch CPU charged to a dead node");
              stats_.endpoint_cpu_seconds +=
                  to_seconds(sim::params::kRpcMessageCpu);
              fr->serve([this, from, to, response_bytes, fr, fail,
                         tctx]() mutable {
                if (!health_->up(to)) {
                  fail();  // died while serving: the response never leaves
                  return;
                }
                assert_chargeable(
                    *health_, to,
                    "RPC response charged to a dead node's NIC");
                stats_.net_bytes += response_bytes;
                const SimTime replied = loop_.now();
                const u64 resp_span =
                    loop_.begin_stage("rpc.response_net", to, "nic", tctx);
                net_.transfer(to, from, response_bytes,
                              [this, replied, fr, resp_span] {
                                stats_.net_wait_seconds +=
                                    to_seconds(loop_.now() - replied);
                                loop_.end_span(resp_span);
                                fr->done();
                              });
              });
            });
      });
}

}  // namespace dsim::rpc
