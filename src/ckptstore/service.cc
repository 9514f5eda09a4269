#include "ckptstore/service.h"

#include <algorithm>
#include <map>

#include "ckptstore/erasure.h"
#include "cluster/membership.h"
#include "compress/compressor.h"
#include "obs/trace.h"
#include "sim/model_params.h"
#include "util/assertx.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dsim::ckptstore {

namespace params = sim::params;

ChunkStoreService::ChunkStoreService(sim::EventLoop& loop, sim::Network& net,
                                     ErasureConfig erasure, int shards,
                                     int lookup_batch, NodeId first)
    : loop_(loop),
      net_(net),
      health_(std::make_shared<rpc::NodeHealth>(net.num_nodes())),
      fabric_(loop, net, health_),
      lookup_batch_(lookup_batch),
      erasure_(erasure),
      repo_(std::make_shared<Repository>()),
      placement_(health_, erasure.k, erasure.m) {
  DSIM_CHECK_MSG(shards >= 1, "chunk-store service needs at least one shard");
  DSIM_CHECK_MSG(lookup_batch >= 1,
                 "lookup batch must carry at least one key per RPC");
  DSIM_CHECK_MSG(first >= 0 && first < net.num_nodes(),
                 "shard endpoint names a node outside the cluster");
  if (erasure_.cold_enabled()) {
    placement_.set_cold_profile(erasure_.cold_k, erasure_.cold_m);
  }
  shards_.reserve(static_cast<size_t>(shards));
  endpoints_.reserve(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    shards_.push_back(Shard{make_queue(s), {}});
    endpoints_.push_back(static_cast<NodeId>((first + s) % net.num_nodes()));
  }
  assigned_endpoints_ = endpoints_;
}

void ChunkStoreService::place_on_spares(const std::set<NodeId>& busy) {
  std::vector<NodeId> spares;
  for (NodeId n = 0; n < net_.num_nodes(); ++n) {
    if (busy.count(n) || (membership_ && !membership_->alive(n))) continue;
    spares.push_back(n);
  }
  if (spares.empty()) return;
  for (size_t s = 0; s < shards_.size(); ++s) {
    endpoints_[s] = spares[s % spares.size()];
  }
  assigned_endpoints_ = endpoints_;
  LOG_INFO("chunk store: %d shard endpoint(s) placed on %zu spare node(s) "
           "(first: node %d)",
           num_shards(), spares.size(), endpoints_.front());
}

int ChunkStoreService::rehome_to_owners() {
  int moved = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const NodeId owner = assigned_endpoints_[s];
    if (endpoints_[s] == owner || !health_->up(owner)) continue;
    LOG_INFO("chunk store: shard %zu re-homed back from node %d to revived "
             "owner node %d",
             s, endpoints_[s], owner);
    endpoints_[s] = owner;
    stats_.rehomed_back_shards++;
    ++moved;
    // Anything parked against the interim endpoint replays at the owner.
    replay_parked(s);
  }
  return moved;
}

int ChunkStoreService::shard_of_n(const ChunkKey& key, int shards) {
  // Rendezvous over shard ids, exactly like node placement: the winning
  // shard for a key never changes while the shard count holds, keys spread
  // uniformly for any key structure (full avalanche per input), and a
  // shard-count change reassigns exactly the keys whose winner changed.
  int best = 0;
  u64 best_score = 0;
  for (int s = 0; s < shards; ++s) {
    const u64 score =
        mix64(key.hi ^ mix64(key.lo ^ mix64(0xC4A6u + static_cast<u64>(s))));
    if (s == 0 || score > best_score) {
      best_score = score;
      best = s;
    }
  }
  return best;
}

std::shared_ptr<ChunkStoreService::ShardRequest>
ChunkStoreService::make_request(NodeId from, u64 request_bytes,
                                u64 response_bytes,
                                rpc::RpcFabric::Handler serve,
                                std::function<void()> done,
                                obs::TraceContext trace) {
  auto req = std::make_shared<ShardRequest>();
  req->from = from;
  req->request_bytes = request_bytes;
  req->response_bytes = response_bytes;
  req->serve = std::move(serve);
  req->done = std::move(done);
  req->trace = trace;
  return req;
}

ChunkStoreService::IndexQueue* ChunkStoreService::make_queue(int s) {
  auto q = std::make_unique<IndexQueue>();
  q->dev = std::make_unique<sim::StorageDevice>(
      loop_, "chunkstore" + std::to_string(s), params::kStoreServiceBw,
      params::kStoreServiceLatency);
  q->fq_lane = q->dev->name() + "/queue";
  queues_.push_back(std::move(q));
  return queues_.back().get();
}

void ChunkStoreService::enqueue_index(IndexQueue* q, TenantId tenant,
                                      QosClass qos, u64 cost,
                                      std::function<void()> run,
                                      obs::TraceContext tctx) {
  // The fq_wait span covers push -> dispatch: zero-length when fair
  // queueing is off or the device is free, the DRR hold otherwise.
  const u64 fq_span =
      loop_.begin_stage("store.fq_wait", obs::kServicePid, q->fq_lane, tctx);
  auto wrapped = [this, fq_span, run = std::move(run)]() mutable {
    loop_.end_span(fq_span);
    run();
  };
  if (!fair_queueing_) {
    // Arrival FIFO: hand the work straight to the device queue, exactly
    // the pre-multi-tenant discipline (the bench_tenants ablation arm).
    wrapped();
    return;
  }
  q->fq.push(qos, tenant, tenants_.weight(tenant),
             FairQueue::Item{cost, std::move(wrapped)});
  pump_queue(q);
}

void ChunkStoreService::pump_queue(IndexQueue* q) {
  // Dispatch while the device is free. Each dispatched item submits into
  // the device and advances its busy_until, so exactly one item is in
  // service at a time and everything else waits *in the FairQueue*, where
  // a late-arriving restart-band probe can still overtake a queued
  // checkpoint storm. With unchanged dispatch order this is
  // timing-identical to direct FIFO submission: submitting at busy_until
  // or earlier lands the same max(now, busy_until) + service chain.
  while (!q->fq.empty() && q->dev->busy_until() <= loop_.now()) {
    FairQueue::Item item = q->fq.pop();
    item.run();
  }
  if (!q->fq.empty() && !q->pump_scheduled) {
    q->pump_scheduled = true;
    loop_.post_at(q->dev->busy_until(), [this, q] {
      q->pump_scheduled = false;
      pump_queue(q);
    });
  }
}

rpc::RpcFabric::Handler ChunkStoreService::index_serve(
    int shard, bool is_read, TenantId tenant, QosClass qos,
    obs::TraceContext tctx, u64 n, std::function<void()> served) {
  // The n probes occupy the shard queue back to back; the response leaves
  // when the last one is served.
  return [this, q = shards_[static_cast<size_t>(shard)].q, is_read, tenant,
          qos, tctx, n, served](rpc::RpcFabric::Reply reply) {
    enqueue_index(
        q, tenant, qos, n * params::kStoreLookupBytes,
        [this, q, is_read, tctx, n, served,
         reply = std::move(reply)]() mutable {
          const u64 sp = loop_.begin_stage("store.index", obs::kServicePid,
                                           q->dev->name(), tctx, n);
          q->dev->submit(n * params::kStoreLookupBytes,
                         [this, sp, served,
                          reply = std::move(reply)]() mutable {
                           loop_.end_span(sp);
                           if (served) served();
                           reply();
                         },
                         is_read);
        },
        tctx);
  };
}

void ChunkStoreService::shard_call(int shard,
                                   std::shared_ptr<ShardRequest> req) {
  fabric_.call(
      req->from, endpoint_of(shard), req->request_bytes, req->response_bytes,
      [req](rpc::RpcFabric::Reply reply) { req->serve(std::move(reply)); },
      [req] { req->done(); },
      [this, shard, req] { park(shard, std::move(req)); }, req->trace);
}

void ChunkStoreService::replay_parked(size_t s) {
  auto parked = std::move(shards_[s].parked);
  shards_[s].parked.clear();
  for (auto& req : parked) {
    stats_.replayed_requests++;
    shard_call(static_cast<int>(s), std::move(req));
  }
}

void ChunkStoreService::park(int shard, std::shared_ptr<ShardRequest> req) {
  // A request can only fail against a shard that still exists: rebalance
  // requires live endpoints at start and asserts nothing is parked, so a
  // stale index here means those preconditions were violated.
  DSIM_CHECK_MSG(shard >= 0 && shard < num_shards(),
                 "request failed against a shard that was rebalanced away");
  stats_.parked_requests++;
  if (health_->up(endpoint_of(shard))) {
    // The shard was already re-homed while this attempt was failing in
    // flight: replay straight against the live endpoint.
    stats_.replayed_requests++;
    loop_.post_now(
        [this, shard, req = std::move(req)] { shard_call(shard, req); });
    return;
  }
  shards_[static_cast<size_t>(shard)].parked.push_back(std::move(req));
}

NodeId ChunkStoreService::pick_endpoint(int shard) const {
  // Next live node in the shard's rendezvous order: independent uniform
  // scores per (shard, node), highest live scorer wins — stable (a death
  // promotes only the next-best scorer for the affected shards) and
  // deterministic across runs.
  i32 best = -1;
  u64 best_score = 0;
  for (NodeId n = 0; n < net_.num_nodes(); ++n) {
    if (!health_->up(n)) continue;
    const u64 score =
        mix64(0xE19D ^ mix64(static_cast<u64>(shard) ^
                             mix64(0x5EED ^ static_cast<u64>(n))));
    if (best < 0 || score > best_score) {
      best_score = score;
      best = n;
    }
  }
  DSIM_CHECK_MSG(best >= 0, "no live node left to host a shard endpoint");
  return best;
}

obs::TraceContext ChunkStoreService::open_root(const StoreRequest& req,
                                               const char* name, u64 n) {
  obs::TraceContext tctx;
  obs::Tracer* tr = loop_.tracer();
  if (tr == nullptr) return tctx;
  tctx.trace_id = tr->new_trace();
  tctx.tenant = req.tenant;
  tctx.qos = static_cast<u8>(req.qos);
  tctx.op = static_cast<u8>(req.op);
  tctx.parent_span =
      tr->begin(name, req.from, "requests", loop_.now(), tctx, n);
  return tctx;
}

StoreReply ChunkStoreService::submit(StoreRequest req) {
  switch (req.op) {
    case StoreOp::kLookup:
      do_lookups(std::move(req));
      return {};
    case StoreOp::kStore:
    case StoreOp::kRestore:
      return do_store(std::move(req));
    case StoreOp::kFetch:
      do_fetch(std::move(req));
      return {};
    case StoreOp::kDrop:
      do_drop(std::move(req));
      return {};
  }
  DSIM_CHECK_MSG(false, "unknown StoreOp");
  return {};
}

void ChunkStoreService::do_lookups(StoreRequest req) {
  if (req.keys.empty()) {
    if (req.done) loop_.post_now(std::move(req.done));
    return;
  }
  stats_.lookup_requests += req.keys.size();
  tenants_.stats(req.tenant).lookups += req.keys.size();
  // Route keys to their shards in submit order, then cut each shard's run
  // into batches of at most lookup_batch_ keys — one RPC per batch, one
  // queue probe's occupancy per key. A rank's batches interleave with every
  // other rank's at the shard scheduler, and each batch records the full
  // send -> response wait for each of its keys.
  std::vector<std::vector<size_t>> routed(shards_.size());
  for (size_t i = 0; i < req.keys.size(); ++i) {
    routed[static_cast<size_t>(shard_of(req.keys[i]))].push_back(i);
  }
  auto run = std::make_shared<LookupRun>();
  const auto k = static_cast<size_t>(lookup_batch_);
  for (int s = 0; s < num_shards(); ++s) {
    const auto& keys = routed[static_cast<size_t>(s)];
    for (size_t at = 0; at < keys.size(); at += k) {
      LookupBatch batch;
      batch.shard = s;
      batch.at.assign(keys.begin() + static_cast<std::ptrdiff_t>(at),
                      keys.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(at + k, keys.size())));
      run->batches.push_back(std::move(batch));
    }
  }
  run->remaining = req.keys.size();
  // A claiming Lookup is one writer: all its batches, replays included,
  // claim under one id, so a replayed probe finds its own claims.
  run->writer = req.verdict ? ++last_writer_ : 0;
  run->req = std::move(req);
  // A plain Lookup sends every batch at once. A claiming one sends its
  // batches in its keys' order, at most kClaimWindow in flight, the next
  // as one returns. Sent all at once, a writer's probes pass every FIFO on
  // the way to the shard (endpoint dispatch, shard queue) as one block, and
  // the writer that heard the write barrier first claims every key it
  // shares. Windowed, it is at most a window ahead of the others, so a
  // shared key mostly goes to the writer whose order reaches it first.
  size_t now = run->batches.size();
  if (run->writer != 0) {
    std::stable_sort(run->batches.begin(), run->batches.end(),
                     [](const LookupBatch& a, const LookupBatch& b) {
                       return a.at.front() < b.at.front();
                     });
    now = std::min(now, kClaimWindow);
  }
  for (size_t b = 0; b < now; ++b) send_lookup_batch(run);
}

void ChunkStoreService::send_lookup_batch(
    const std::shared_ptr<LookupRun>& run) {
  const size_t b = run->next++;
  const int s = run->batches[b].shard;
  const u64 n = run->batches[b].at.size();
  stats_.lookup_batches++;
  const SimTime submitted = loop_.now();
  // One trace per batch, weighted by the batch's key count so stage stats
  // stay per-key.
  const obs::TraceContext tctx = open_root(run->req, "store.lookup", n);
  std::function<void()> served;
  if (run->writer != 0) {
    served = [this, run, b] {
      LookupBatch& batch = run->batches[b];
      batch.store.clear();
      for (const size_t i : batch.at) {
        batch.store.push_back(
            claim(run->req.keys[i], run->writer, run->req.from));
      }
    };
  }
  auto done = [this, run, b, submitted, n, root = tctx.parent_span] {
    const double wait = to_seconds(loop_.now() - submitted);
    stats_.lookup_wait.record_n(wait, n);
    tenants_.stats(run->req.tenant).wait.record_n(wait, n);
    loop_.end_span(root);
    if (run->writer != 0) {
      const LookupBatch& batch = run->batches[b];
      for (size_t j = 0; j < batch.store.size(); ++j) {
        run->req.verdict(batch.at[j], batch.store[j]);
      }
      if (run->next < run->batches.size()) send_lookup_batch(run);
    }
    if ((run->remaining -= n) == 0 && run->req.done) run->req.done();
  };
  auto sreq = make_request(
      run->req.from, params::kRpcHeaderBytes + n * params::kRpcLookupKeyBytes,
      params::kRpcHeaderBytes + n * params::kRpcLookupVerdictBytes,
      index_serve(s, /*is_read=*/true, run->req.tenant, run->req.qos, tctx, n,
                  std::move(served)),
      std::move(done), tctx);
  shard_call(s, std::move(sreq));
}

bool ChunkStoreService::claim(const ChunkKey& key, u64 writer, NodeId node) {
  if (placement_.recorded(key)) return false;
  return claims_.try_emplace(key, Claim{writer, node}).first->second.writer ==
         writer;
}

void ChunkStoreService::queue_store(NodeId from, TenantId tenant,
                                    QosClass qos, const ChunkKey& key,
                                    u64 charged_bytes,
                                    std::function<void()> done,
                                    obs::TraceContext tctx) {
  stats_.store_requests++;
  stats_.store_bytes += charged_bytes;
  const int s = shard_of(key);
  // The chunk travels to the shard in the request (caller NIC); the shard
  // does an index insert's worth of queue work and acks. The payload's
  // physical writes land on the placement homes' node devices, charged by
  // the caller against the homes the StoreReply returns — the shard queue
  // is the metadata path, so store bursts do not stall other ranks' probes
  // beyond their index share. The wire carries every fragment the writer
  // striped — the (k+m)/k parity overhead is paid in NIC egress as well as
  // device bytes — or one container under replication.
  const u64 wire_bytes =
      erasure::store_wire_bytes(charged_bytes, erasure_.k, erasure_.m);
  auto sreq =
      make_request(from, params::kRpcHeaderBytes + wire_bytes,
                   params::kRpcHeaderBytes,
                   index_serve(s, /*is_read=*/false, tenant, qos, tctx),
                   std::move(done), tctx);
  shard_call(s, std::move(sreq));
}

std::vector<StoreTarget> ChunkStoreService::store_targets(
    const ChunkKey& key, const std::vector<NodeId>& homes) {
  if (homes.empty()) return {};
  const u64 per_home = placement_.home_charge(key);
  std::vector<StoreTarget> out;
  out.reserve(homes.size());
  for (NodeId n : homes) out.push_back({n, per_home});
  return out;
}

StoreReply ChunkStoreService::do_store(StoreRequest req) {
  DSIM_CHECK_MSG(req.keys.size() == 1,
                 "a store request carries exactly one chunk key");
  const ChunkKey key = req.keys.front();
  const u64 bytes = req.bytes;
  const TenantId tenant = req.tenant;
  // Placement is synchronous — the caller charges the returned targets
  // concurrently with the index RPC — and admission control only defers
  // the RPC dispatch at the tenant edge.
  StoreReply reply;
  reply.targets = store_targets(
      key, req.op == StoreOp::kStore ? placement_.record_store(key, bytes)
                                     : placement_.re_place(key));
  claims_.erase(key);  // recorded: placed from here on
  TenantStats& ts = tenants_.stats(tenant);
  ts.stores++;
  ts.store_bytes += bytes;
  // The root span closes at the shard ack. The admission hold (if any)
  // becomes the first child stage.
  const obs::TraceContext tctx = open_root(req, "store.store");
  // Store completions drain the tenant's edge queue (and budget).
  auto done = [this, tenant, bytes, root = tctx.parent_span,
               inner = std::move(req.done)]() mutable {
    TenantEdge& e = edges_[tenant];
    DSIM_CHECK(e.inflight_bytes >= bytes);
    e.inflight_bytes -= bytes;
    loop_.end_span(root);
    if (inner) inner();
    drain_edge(tenant);
  };
  TenantEdge& edge = edges_[tenant];
  const u64 budget = tenants_.config(tenant).inflight_budget_bytes;
  // Hold at the edge only when something is already in flight: a single
  // store larger than the whole budget must still be admitted, or the
  // tenant deadlocks.
  if (budget > 0 && (edge.inflight_bytes > 0 || !edge.held.empty()) &&
      edge.inflight_bytes + bytes > budget) {
    reply.admitted = false;
    ts.admission_held++;
    stats_.admission_held_requests++;
    const u64 adm_span =
        loop_.begin_stage("store.admission", req.from, "admission", tctx);
    edge.held.push_back(TenantEdge::Held{
        bytes, loop_.now(),
        [this, from = req.from, tenant, qos = req.qos, key, bytes, adm_span,
         tctx, done = std::move(done)]() mutable {
          loop_.end_span(adm_span);
          queue_store(from, tenant, qos, key, bytes, std::move(done), tctx);
        }});
    return reply;
  }
  edge.inflight_bytes += bytes;
  queue_store(req.from, tenant, req.qos, key, bytes, std::move(done), tctx);
  return reply;
}

void ChunkStoreService::drain_edge(TenantId tenant) {
  TenantEdge& e = edges_[tenant];
  const u64 budget = tenants_.config(tenant).inflight_budget_bytes;
  while (!e.held.empty()) {
    TenantEdge::Held& h = e.held.front();
    if (budget > 0 && e.inflight_bytes > 0 &&
        e.inflight_bytes + h.bytes > budget) {
      break;
    }
    e.inflight_bytes += h.bytes;
    const double wait = to_seconds(loop_.now() - h.held_at);
    TenantStats& ts = tenants_.stats(tenant);
    ts.admission_wait.record(wait);
    stats_.admission_wait.record(wait);
    auto dispatch = std::move(h.dispatch);
    e.held.pop_front();
    dispatch();
  }
}

void ChunkStoreService::do_fetch(StoreRequest req) {
  DSIM_CHECK_MSG(req.keys.size() == 1,
                 "a fetch request carries exactly one chunk key");
  stats_.fetch_requests++;
  stats_.fetch_bytes += req.bytes;
  TenantStats& ts = tenants_.stats(req.tenant);
  ts.fetches++;
  const int s = shard_of(req.keys.front());
  const SimTime submitted = loop_.now();
  const TenantId tenant = req.tenant;
  const obs::TraceContext tctx = open_root(req, "store.fetch");
  // Redirect-style fetch: the RPC carries metadata both ways, the shard
  // queue does an index probe to name the holder, and the bulk bytes
  // stream off the holding node (device + NIC, charged by the caller).
  // Fetch waits land in the tenant's sample stream alongside lookups —
  // together they are the victim-tenant latency bench_tenants gates.
  auto done = [this, submitted, tenant, root = tctx.parent_span,
               inner = std::move(req.done)]() mutable {
    const double wait = to_seconds(loop_.now() - submitted);
    tenants_.stats(tenant).wait.record(wait);
    loop_.end_span(root);
    if (inner) inner();
  };
  auto sreq = make_request(
      req.from, params::kRpcHeaderBytes, params::kRpcHeaderBytes,
      index_serve(s, /*is_read=*/true, tenant, req.qos, tctx),
      std::move(done), tctx);
  shard_call(s, std::move(sreq));
}

void ChunkStoreService::do_drop(StoreRequest req) {
  DSIM_CHECK_MSG(req.keys.size() == 1,
                 "a drop request carries exactly one chunk key");
  stats_.drop_requests++;
  tenants_.stats(req.tenant).drops++;
  const int s = shard_of(req.keys.front());
  const u64 bytes = req.bytes;
  const TenantId tenant = req.tenant;
  const QosClass qos = req.qos;
  const obs::TraceContext tctx = open_root(req, "store.drop");
  auto done = [this, root = tctx.parent_span,
               inner = std::move(req.done)]() mutable {
    loop_.end_span(root);
    if (inner) inner();
  };
  auto sreq = make_request(
      req.from, params::kRpcHeaderBytes, params::kRpcHeaderBytes,
      [this, q = shards_[static_cast<size_t>(s)].q, bytes, tenant, qos,
       tctx](rpc::RpcFabric::Reply reply) {
        // Trims run at the device's 64x discard speedup; their DRR
        // cost is scaled to match so a GC burst is charged what it
        // actually occupies.
        enqueue_index(q, tenant, qos, std::max<u64>(bytes >> 6, 1),
                      [q, bytes, reply = std::move(reply)]() mutable {
                        q->dev->discard(bytes);
                        reply();
                      },
                      tctx);
      },
      std::move(done), tctx);
  shard_call(s, std::move(sreq));
}

std::vector<StoreTarget> ChunkStoreService::reclaim(TenantId tenant,
                                                    NodeId from,
                                                    const ChunkKey& key,
                                                    u64 bytes) {
  // One fragment per home (the full container under replication), read
  // before forget drops the entry.
  const u64 per_home = placement_.home_charge(key);
  std::vector<StoreTarget> trims;
  for (NodeId home : placement_.forget(key)) trims.push_back({home, per_home});
  claims_.erase(key);
  StoreRequest drop;
  drop.op = StoreOp::kDrop;
  drop.tenant = tenant;
  drop.from = from;
  drop.keys = {key};
  drop.bytes = bytes;
  do_drop(std::move(drop));
  return trims;
}

void ChunkStoreService::charge_node(NodeId node, u64 bytes, bool is_read,
                                    std::function<void()> done) {
  if (charger_) {
    charger_(node, bytes, is_read, std::move(done));
  } else {
    loop_.post_now(std::move(done));
  }
}

void ChunkStoreService::charge_cpu(NodeId node, double seconds,
                                   std::function<void()> done) {
  if (cpu_charger_) {
    cpu_charger_(node, seconds, std::move(done));
  } else {
    loop_.post_now(std::move(done));
  }
}

void ChunkStoreService::watch(cluster::Membership& membership) {
  membership_ = &membership;
  // Only a death needs a reaction here: a node comes back only through
  // revive_node(), which runs the revival reaction itself.
  membership.subscribe(
      [this](NodeId node, cluster::NodeState, cluster::NodeState to) {
        if (to == cluster::NodeState::kDead) handle_node_death(node);
      });
}

void ChunkStoreService::fail_node(NodeId node) {
  DSIM_CHECK_MSG(!membership_ || node != membership_->config().monitor_node,
                 "killing the membership monitor is not modeled (the "
                 "coordinator is outside the computation, §3)");
  // Ground truth first, unconditionally: the instant the node dies its
  // chunk copies are unreachable (placement reads the same map) and its
  // RPCs stop being chargeable. The *reaction* — heal kick, shard re-home,
  // replay — is detection's job: watched, membership's kDead declaration
  // runs it after the heartbeat misses.
  health_->fail(node);
  if (!membership_) handle_node_death(node);
}

void ChunkStoreService::revive_node(NodeId node) {
  // Membership readmits the node (health up, state kAlive); unwatched, the
  // map flips directly.
  if (membership_) {
    membership_->revive_node(node);
  } else {
    health_->revive(node);
  }
  // Requests parked against this node's endpoints replay directly: the
  // node never reached kDead (or just came back), so no re-home will ever
  // flush those queues — without this they would strand forever.
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (endpoints_[s] == node) replay_parked(s);
  }
}

void ChunkStoreService::handle_node_death(NodeId node) {
  // Its writers can no longer store what they claimed: the next writer to
  // probe such a key claims it.
  std::erase_if(claims_,
                [node](const auto& c) { return c.second.node == node; });
  // Degraded (>= k but fewer than k+m clean fragments) chunks are healable
  // — kick the daemon. Fully lost chunks are not: those wait for the encode
  // path's forward-heal (StoreOp::kRestore) at the next generation.
  if (redundant()) schedule_heal_scan();
  // Re-home every shard stranded on the dead endpoint to the next live
  // node in its rendezvous order, then replay its parked requests there in
  // FIFO order — idempotent by chunk key, so callers see latency, never
  // errors.
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (endpoints_[s] != node) continue;
    endpoints_[s] = pick_endpoint(static_cast<int>(s));
    stats_.rehomed_shards++;
    LOG_INFO("chunk store: shard %zu re-homed from dead node %d to node %d "
             "(%zu parked request(s) to replay)",
             s, node, endpoints_[s], shards_[s].parked.size());
    replay_parked(s);
  }
}

void ChunkStoreService::schedule_heal_scan() {
  if (heal_scan_scheduled_) return;
  heal_scan_scheduled_ = true;
  loop_.post_in(params::kRereplicateDelay, [this] {
    heal_scan_scheduled_ = false;
    for (const ChunkKey& key : placement_.degraded_chunks()) {
      heal_pending_.push_back(key);
    }
    pump_heal();
  });
}

void ChunkStoreService::pump_heal() {
  while (heal_in_flight_ < params::kRereplicateWindow &&
         !heal_pending_.empty()) {
    const ChunkKey key = heal_pending_.front();
    heal_pending_.pop_front();
    heal_one(key);
  }
}

void ChunkStoreService::heal_one(const ChunkKey& key) {
  // Read sources *before* heal() — heal reassigns the dead slots, and the
  // rebuild must stream from the fragments that existed when the node died.
  bool needs_decode = false;
  RepairJob job;
  job.sources = placement_.read_plan(key, &needs_decode);
  if (job.sources.empty()) return;  // unknown or lost: forward-heal's job
  job.targets = placement_.heal(key);
  if (job.targets.empty()) return;  // raced with another heal / already whole
  const auto info = placement_.erasure_info(key);
  const u64 fresh = job.targets.size();
  stats_.rereplicated_chunks++;
  stats_.rereplicated_bytes += info.frag_bytes * fresh;
  stats_.rebuilt_fragments += fresh;
  // k fragment reads, k NIC hops to the rebuilder, F fragment writes and
  // F-1 onward hops: (2k + 2F - 1) fragments of movement — the 1 + 2F full
  // copies of a replica heal at k = 1.
  stats_.heal_moved_bytes +=
      info.frag_bytes * (2 * job.sources.size() + 2 * fresh - 1);
  heal_in_flight_++;
  // The first fresh home rebuilds: it gathers the k survivors, decodes
  // (real CPU through the fluid share; none for a copy), keeps its own
  // fragment and forwards the rest — fragments move, never full
  // containers, which is the erasure economy bench_erasure gates.
  job.coder = job.targets.front();
  job.cpu_seconds = erasure::decode_seconds(placement_.bytes_of(key), info.k);
  job.target_bytes = info.frag_bytes;
  const u64 heal_span =
      loop_.begin_span("store.heal", obs::kServicePid, "heal");
  // Walk the repair through the owning shard's scheduler first: an index
  // probe that contends with foreground lookups, as a real repair stream
  // does.
  system_probe(key, [this, job = std::move(job), heal_span]() mutable {
    run_repair(std::move(job), [this, heal_span] {
      loop_.end_span(heal_span);
      heal_in_flight_--;
      pump_heal();
    });
  });
}

void ChunkStoreService::system_probe(const ChunkKey& key,
                                     std::function<void()> then) {
  IndexQueue* q = shards_[static_cast<size_t>(shard_of(key))].q;
  enqueue_index(q, kSystemTenant, QosClass::kCheckpoint,
                params::kStoreLookupBytes,
                [q, then = std::move(then)]() mutable {
                  q->dev->submit(params::kStoreLookupBytes, std::move(then),
                                 /*is_read=*/true);
                });
}

void ChunkStoreService::run_repair(RepairJob job, std::function<void()> done) {
  auto j = std::make_shared<const RepairJob>(std::move(job));
  const auto scatter = [this, j, done = std::move(done)] {
    for (NodeId home : j->trim) {
      if (trimmer_) trimmer_(home, j->trim_bytes);
    }
    auto left = std::make_shared<size_t>(j->targets.size());
    const auto landed = [left, done] {
      if (--*left == 0) done();
    };
    for (NodeId home : j->targets) {
      if (home == j->coder) {
        charge_node(home, j->target_bytes, /*is_read=*/false, landed);
      } else {
        net_.transfer(j->coder, home, j->target_bytes, [this, j, home, landed] {
          charge_node(home, j->target_bytes, /*is_read=*/false, landed);
        });
      }
    }
  };
  const auto coded = [this, j, scatter] {
    if (j->cpu_seconds <= 0) {
      scatter();
      return;
    }
    const u64 span =
        loop_.begin_span("store.erasure_decode", obs::kServicePid, j->lane);
    charge_cpu(j->coder, j->cpu_seconds, [this, span, scatter] {
      loop_.end_span(span);
      scatter();
    });
  };
  auto gathered = std::make_shared<size_t>(j->sources.size());
  for (const auto& src : j->sources) {
    charge_node(src.node, src.bytes, /*is_read=*/true,
                [this, j, src, gathered, coded] {
                  net_.transfer(src.node, j->coder, src.bytes,
                                [gathered, coded] {
                                  if (--*gathered == 0) coded();
                                });
                });
  }
}

void ChunkStoreService::scrub(u64 max_chunks) {
  bool saw_degraded = false;
  const auto batch =
      repo_->chunks_after(scrub_cursor_, static_cast<size_t>(max_chunks));
  // One standalone span per scrub pass, open until the last chunk's
  // verification read lands — the critical path and trace reports see the
  // scrubber's tail exactly as the device queues priced it.
  const u64 scrub_span =
      batch.empty()
          ? 0
          : loop_.begin_span("store.scrub", obs::kServicePid, "scrub");
  auto scrub_left = std::make_shared<u64>(static_cast<u64>(batch.size()));
  auto verified = std::make_shared<std::function<void()>>(
      [this, scrub_span, scrub_left] {
        if (--*scrub_left == 0) loop_.end_span(scrub_span);
      });
  for (const auto& [key, chunk] : batch) {
    scrub_cursor_ = key;
    stats_.scrubbed_chunks++;
    // Fragment rot: a corrupt fragment (or replica copy) is *repaired*,
    // not quarantined — the repair job gathers k clean survivors at the
    // first repaired home, decodes there and rewrites the bad fragments in
    // place. Only a chunk with > m bad fragments is beyond repair and falls
    // through to the quarantine path below, like a rotten container.
    bool beyond_repair = false;
    if (placement_.corrupt_mask(key) != 0) {
      bool needs_decode = false;
      RepairJob job;
      job.sources = placement_.read_plan(key, &needs_decode);
      job.targets = placement_.repair_fragments(key);
      if (job.targets.empty()) {
        beyond_repair = true;
      } else {
        stats_.scrub_repaired_fragments += job.targets.size();
        const auto info = placement_.erasure_info(key);
        job.coder = job.targets.front();
        job.cpu_seconds =
            erasure::decode_seconds(chunk->charged_bytes, info.k);
        job.target_bytes = info.frag_bytes;
        job.lane = "scrub";
        run_repair(std::move(job), [] {});
      }
    }
    // Verify synchronously (GC may reclaim the chunk before its shard queue
    // entry is served); the index probe + holder-device read below model
    // the verification cost. Pattern chunks are descriptors — only real
    // containers can rot.
    const bool missing = !beyond_repair && !placement_.available(key);
    bool corrupt = beyond_repair;
    if (!missing && !corrupt && chunk->kind == sim::ExtentKind::kReal) {
      // Decoding verifies the content against the container's header CRC;
      // the header CRC then stands for the content.
      chunk->materialize();
      corrupt = compress::container_crc(*chunk->stored) != chunk->crc;
    }
    if (!missing && !corrupt && placement_.degraded(key)) {
      // The walk tripped over a degraded survivor (a death the heal
      // daemon's one-shot scan may have raced past): route it back through
      // the heal path.
      saw_degraded = true;
    }
    const i32 holder = placement_.holder(key);
    const u64 read_bytes = chunk->charged_bytes;
    if (corrupt) {
      // Wire the report into the repair path instead of only counting it:
      // quarantine the rotten container (the repo masks the key, so the
      // next generation's encode sees a miss and re-stores fresh bytes
      // from live content — the forward-heal/re-store path) and drop the
      // dead copies from placement so restart pre-flights treat the chunk
      // as unavailable until the re-store lands. Reclaim and trim stay
      // paired, as in GC: the rotten copies are trimmed from their
      // surviving homes' devices and dropped from the owning shard's index
      // at metadata rate. The batch holds no quarantined key, so
      // quarantine() returns the container's bytes.
      stats_.scrub_quarantined_chunks++;
      const u64 rotten = repo_->quarantine(key);
      for (const StoreTarget& trim :
           reclaim(kSystemTenant, endpoint_of(shard_of(key)), key, rotten)) {
        if (trimmer_) trimmer_(trim.node, trim.bytes);
      }
    }
    system_probe(key, [this, corrupt, missing, holder, read_bytes, verified] {
      // The verification reread streams off the surviving holder.
      if (holder >= 0 && read_bytes > 0) {
        charge_node(holder, read_bytes, /*is_read=*/true,
                    [verified] { (*verified)(); });
      } else {
        (*verified)();
      }
      if (corrupt) stats_.scrub_corrupt_chunks++;
      if (missing) stats_.scrub_missing_chunks++;
    });
  }
  if (saw_degraded && redundant()) schedule_heal_scan();
}

int ChunkStoreService::demote_cold(u64 max_chunks) {
  if (!erasure_.cold_enabled() || erasure_.hot_generations <= 0) return 0;
  int demoted = 0;
  // Per-tenant hot depth: a tenant override of --hot-generations shifts
  // *its* owners' hot window; everyone else uses the global config.
  const auto hot_for = [this](const std::string& owner) {
    return tenants_.hot_for(tenant_of_owner(owner),
                            erasure_.hot_generations);
  };
  for (const ChunkKey& key : repo_->cold_keys(hot_for)) {
    if (static_cast<u64>(demoted) >= max_chunks) break;
    const ChunkPlacement::DemotePlan plan = placement_.demote(key);
    // Already cold (demoted in an earlier round), or currently unreadable:
    // rescanning it next round is a free no-op either way.
    if (plan.read.empty() || plan.write.empty()) continue;
    ++demoted;
    stats_.demoted_chunks++;
    stats_.demoted_bytes += plan.logical_bytes;
    // One standalone span per demoted chunk, open from scheduling until
    // the last cold fragment lands (the fire-and-forget tail is exactly
    // what the trace should make visible).
    const u64 demote_span =
        loop_.begin_span("store.demote", obs::kServicePid, "demote");
    // Index update on the owning shard (the fragment layout is re-keyed),
    // then the repair job: gather the k hot fragments at the first cold
    // home, decode + re-encode there, trim the hot fragments and land the
    // cold ones. Background work end to end; nothing waits on it.
    RepairJob job;
    job.sources = plan.read;
    job.coder = plan.write.front();
    job.cpu_seconds =
        erasure::decode_seconds(plan.logical_bytes, erasure_.k) +
        erasure::encode_seconds(plan.logical_bytes, erasure_.cold_k,
                                erasure_.cold_m);
    job.trim = plan.trim;
    job.trim_bytes = plan.trim_bytes;
    job.targets = plan.write;
    job.target_bytes = plan.write_bytes;
    job.lane = "demote";
    system_probe(key, [this, job = std::move(job), demote_span]() mutable {
      run_repair(std::move(job),
                 [this, demote_span] { loop_.end_span(demote_span); });
    });
  }
  return demoted;
}

void ChunkStoreService::rebalance(int new_shards,
                                  std::function<void()> done) {
  DSIM_CHECK_MSG(new_shards >= 1,
                 "rebalance needs at least one shard to move keys to");
  for (const Shard& s : shards_) {
    DSIM_CHECK_MSG(s.parked.empty(),
                   "rebalance with parked requests: finish failover first");
  }
  const int old_shards = num_shards();
  // Surviving shards keep their live endpoints. The others walk the nodes
  // from the current first endpoint, skipping the ones NodeHealth has down:
  // ground truth, not membership's detected state, so a node killed inside
  // the detection window is routed around, not crashed into.
  const NodeId nodes = net_.num_nodes();
  std::vector<NodeId> new_endpoints;
  new_endpoints.reserve(static_cast<size_t>(new_shards));
  for (int s = 0; s < new_shards; ++s) {
    if (s < old_shards && health_->up(endpoint_of(s))) {
      new_endpoints.push_back(endpoint_of(s));
      continue;
    }
    NodeId n = (endpoints_.front() + s) % nodes;
    for (int tries = 0; tries < nodes && !health_->up(n); ++tries) {
      n = (n + 1) % nodes;
    }
    DSIM_CHECK_MSG(health_->up(n),
                   "rebalance assigns a shard endpoint to a dead node");
    new_endpoints.push_back(n);
  }
  const std::vector<NodeId> old_endpoints = endpoints_;
  stats_.rebalances++;

  // Consistent-hash key movement: enumerate the resident index and collect
  // exactly the keys whose rendezvous winner changed with the shard count.
  // Growing S -> S' moves only the keys the new shards won (~(S'-S)/S' of
  // them); shrinking moves only the evicted shards' keys. Everything else
  // stays where it is — the property that makes live resharding affordable.
  struct Move {
    ChunkKey key;
    u64 bytes = 0;
  };
  std::map<std::pair<int, int>, std::vector<Move>> moves;  // (old,new) -> keys
  u64 moved_keys = 0, moved_bytes = 0, scanned_keys = 0;
  for (const auto& [key, chunk] :
       repo_->chunks_after(ChunkKey{}, repo_->stats().live_chunks)) {
    scanned_keys++;
    stats_.rebalance_scanned_bytes += chunk->charged_bytes;
    const int from = shard_of_n(key, old_shards);
    const int to = shard_of_n(key, new_shards);
    if (from == to) continue;
    moves[{from, to}].push_back(Move{key, chunk->charged_bytes});
    moved_keys++;
    moved_bytes += chunk->charged_bytes;
  }
  stats_.rebalance_scanned_keys += scanned_keys;
  stats_.rebalance_moved_keys += moved_keys;
  stats_.rebalance_moved_bytes += moved_bytes;
  LOG_INFO("chunk store: rebalancing %d -> %d shard(s): %llu of %llu keys "
           "move",
           old_shards, new_shards,
           static_cast<unsigned long long>(moved_keys),
           static_cast<unsigned long long>(scanned_keys));

  // Swap in the new shard set first: foreground routing (there is none
  // between rounds, but restarts may race in tests) immediately uses the
  // new assignment, while the migration traffic below drains through both
  // the old queues (index reads) and the new ones (index inserts), which
  // queues_ keeps alive.
  const std::vector<Shard> old_set = std::move(shards_);
  shards_.clear();
  shards_.reserve(static_cast<size_t>(new_shards));
  for (int s = 0; s < new_shards; ++s) {
    shards_.push_back(Shard{make_queue(s), {}});
  }
  endpoints_ = std::move(new_endpoints);
  assigned_endpoints_ = endpoints_;

  // Count batches, then run them: each batch is an index read on the old
  // shard's queue, one metadata RPC old endpoint -> new endpoint (header +
  // per-key record), and an index insert on the new shard's queue. The
  // migration runs between rounds with nothing in flight, so it rides the
  // device queues directly (system-tenant work with no foreground traffic
  // to be fair against).
  u64 batches = 0;
  for (const auto& [route, keys] : moves) {
    batches += (keys.size() + params::kRebalanceBatchKeys - 1) /
               params::kRebalanceBatchKeys;
  }
  if (batches == 0) {
    loop_.post_now(std::move(done));
    return;
  }
  // One standalone span for the whole migration, open until the last
  // batch lands on its new shard.
  const u64 rb_span =
      loop_.begin_span("store.rebalance", obs::kServicePid, "rebalance");
  auto remaining = std::make_shared<u64>(batches);
  auto all_done = std::make_shared<std::function<void()>>(
      [this, rb_span, inner = std::move(done)] {
        loop_.end_span(rb_span);
        inner();
      });
  for (const auto& [route, keys] : moves) {
    const auto [from_s, to_s] = route;
    const NodeId from_ep = old_endpoints[static_cast<size_t>(from_s)];
    const NodeId to_ep = endpoint_of(to_s);
    const auto to_q = shards_[static_cast<size_t>(to_s)].q;
    for (size_t at = 0; at < keys.size();
         at += params::kRebalanceBatchKeys) {
      const u64 n =
          std::min<u64>(params::kRebalanceBatchKeys, keys.size() - at);
      const u64 wire =
          params::kRpcHeaderBytes + n * params::kRpcLookupKeyBytes;
      const auto finish_batch = [remaining, all_done] {
        if (--*remaining == 0) (*all_done)();
      };
      // Old shard queue: read the n index entries out...
      old_set[static_cast<size_t>(from_s)].q->dev->submit(
          n * params::kStoreLookupBytes,
          [this, from_ep, to_ep, to_q, n, wire, finish_batch] {
            // ...ship them endpoint to endpoint as one metadata RPC...
            fabric_.call(
                from_ep, to_ep, wire, params::kRpcHeaderBytes,
                [to_q, n](rpc::RpcFabric::Reply reply) {
                  // ...and insert them into the new shard's queue.
                  to_q->dev->submit(n * params::kStoreLookupBytes,
                                    std::move(reply), /*is_read=*/false);
                },
                finish_batch,
                // An endpoint death mid-rebalance: the batch's accounting
                // is already recorded and the shard itself will be
                // re-homed by the death's failover — count the batch done
                // rather than stranding set_store_shards on a node that
                // will never answer.
                finish_batch);
          },
          /*is_read=*/true);
    }
  }
}

}  // namespace dsim::ckptstore
