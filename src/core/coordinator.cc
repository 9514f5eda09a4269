#include "core/coordinator.h"

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "core/msg_io.h"
#include "core/protocol.h"
#include "core/restart_script.h"
#include "sim/model_params.h"
#include "sim/pctx.h"
#include "util/assertx.h"
#include "util/logging.h"

namespace dsim::core {
namespace {

struct Client {
  Fd fd = kNoFd;
  UniquePid upid{};
  Pid vpid = kNoPid;
  std::string host;
  NodeId node = 0;  // from kRegister: drives automatic store placement
  bool restarting = false;
};

struct BarrierState {
  std::vector<Fd> waiters;
  int expected = 0;
};

struct CoordState {
  std::shared_ptr<DmtcpShared> shared;
  std::map<Fd, Client> clients;
  std::map<std::string, BarrierState> barriers;
  // Discovery service (§4.4 step 2).
  std::map<sim::ConnId, std::pair<i32, i32>> conn_addrs;
  std::map<sim::ConnId, std::vector<Fd>> pending_queries;
  // Restart-script material, per round: host -> image paths.
  std::map<int, std::map<i32, std::vector<std::string>>> round_images;
  // dmtcp_command clients waiting for checkpoint completion.
  std::vector<Fd> ckpt_waiters;
  int current_round = -1;
  // Automatic store-node placement happens once, at the first round, when
  // the registered membership finally says which nodes compute.
  bool endpoints_finalized = false;
  // Discovery entries are valid for one restart only; stale addresses from
  // a previous restart point at rendezvous listeners that no longer exist.
  size_t discovery_epoch = 0;
  // The current restart's stage notes: per stage, the summed seconds and
  // the hosts that reported it. The RestartRun fields hold sum / hosts,
  // refreshed on every note: a host's memory note follows its last fork
  // and can land after restart:refilled.
  size_t stage_epoch = 0;
  std::map<std::string, std::pair<double, int>> stage_sums;
  // collect_metrics at the previous round's close: each round's
  // CkptRound::delta is the current snapshot's difference to it.
  obs::MetricsRegistry last_metrics;
};

void refresh_discovery_epoch(CoordState* st) {
  const size_t epoch = st->shared->stats.restarts.size();
  if (st->discovery_epoch != epoch) {
    st->discovery_epoch = epoch;
    st->conn_addrs.clear();
    st->pending_queries.clear();
  }
}

Task<void> send_to(sim::ProcessCtx& ctx, Fd fd, Msg m) {
  if (auto* s = ctx.fd_tcp(fd)) {
    co_await send_msg(ctx.kernel(), ctx.thread(), *s, m);
  }
}

/// Automatic store-node placement (once, at the first round, when the
/// registrations say which nodes compute): without an explicit
/// --store-node, shard endpoints are pinned onto spare non-compute nodes
/// when any exist — stdchk deploys its storage service on dedicated
/// machines for exactly the reason bench_service pins them by hand: an
/// endpoint sharing a NIC with a rank's store burst couples the metadata
/// path to bulk traffic. No spares (every node computes) keeps the startup
/// default, shards spreading from the coordinator's node.
void finalize_endpoints(CoordState* st, sim::ProcessCtx& ctx) {
  if (st->endpoints_finalized) return;
  st->endpoints_finalized = true;
  auto* svc = st->shared->store_service.get();
  if (svc == nullptr || !st->shared->owns_store ||
      st->shared->opts.store_node != DmtcpOptions::kStoreNodeCoord) {
    return;  // no service, an attached tenant, or an explicitly pinned base
  }
  std::set<NodeId> compute;
  for (const auto& [fd, c] : st->clients) compute.insert(c.node);
  std::vector<NodeId> spares;
  for (NodeId n = 0; n < ctx.kernel().num_nodes(); ++n) {
    if (compute.count(n) || n == ctx.process().node()) continue;
    if (st->shared->membership && !st->shared->membership->alive(n)) continue;
    spares.push_back(n);
  }
  if (spares.empty()) return;
  std::vector<NodeId> endpoints;
  endpoints.reserve(static_cast<size_t>(svc->num_shards()));
  for (int s = 0; s < svc->num_shards(); ++s) {
    endpoints.push_back(spares[static_cast<size_t>(s) % spares.size()]);
  }
  LOG_INFO("coordinator: auto-placing %d shard endpoint(s) on %zu spare "
           "non-compute node(s) (first: node %d)",
           svc->num_shards(), spares.size(), endpoints.front());
  svc->set_endpoints(std::move(endpoints));
}

Task<void> initiate_checkpoint(CoordState* st, sim::ProcessCtx& ctx) {
  if (st->shared->ckpt_active) co_return;  // a round is already in flight
  finalize_endpoints(st, ctx);
  if (auto* svc = st->shared->store_service.get();
      svc != nullptr && st->shared->owns_store) {
    // Round boundary: move failover-re-homed shards back to their assigned
    // endpoints if those nodes were revived (shard stickiness fix — no
    // in-flight foreground traffic here, so the move is safe).
    svc->rehome_to_owners();
  }
  st->shared->ckpt_active = true;
  const int round = static_cast<int>(st->shared->stats.rounds.size());
  st->current_round = round;
  CkptRound r;
  r.requested = ctx.now();
  st->shared->stats.rounds.push_back(r);
  LOG_INFO("coordinator: checkpoint round %d requested (%zu clients)", round,
           st->clients.size());
  if (st->clients.empty()) {
    // Nothing to checkpoint: complete the round trivially (procs == 0 tells
    // the requester the computation had already finished).
    auto& rr = st->shared->stats.rounds.back();
    rr.suspended = rr.elected = rr.drained = rr.checkpointed = rr.refilled =
        ctx.now();
    st->shared->ckpt_active = false;
    co_return;
  }
  Msg req;
  req.type = MsgType::kCkptRequest;
  req.a = round;
  for (const auto& [fd, c] : st->clients) {
    co_await ctx.cpu(to_seconds(sim::params::kCoordMsgCpu));
    co_await send_to(ctx, fd, req);
  }
}

void stamp_barrier(CoordState* st, const std::string& name, SimTime now) {
  auto& stats = st->shared->stats;
  if (!stats.rounds.empty()) {
    CkptRound& r = stats.rounds.back();
    if (name == barrier::kSuspended) r.suspended = now;
    else if (name == barrier::kElected) r.elected = now;
    else if (name == barrier::kDrained) r.drained = now;
    else if (name == barrier::kCheckpointed) r.checkpointed = now;
    else if (name == barrier::kRefilled) r.refilled = now;
  }
  if (!stats.restarts.empty()) {
    RestartRun& rr = stats.restarts.back();
    if (name == "restart:checkpointed") {
      rr.refill_seconds = -to_seconds(now);  // completed at restart:refilled
    } else if (name == "restart:refilled") {
      rr.refilled = now;
      rr.refill_seconds += to_seconds(now);
      if (auto* tr = st->shared->tracer.get();
          tr != nullptr && rr.refilled > rr.script_started) {
        // Same sweep as a checkpoint round, over the restart window;
        // uninstrumented time falls to the restart.load/.refill phases.
        rr.critical_path = obs::critical_path(
            *tr, rr.script_started, rr.refilled, restart_phases(rr));
        DSIM_CHECK_MSG(rr.critical_path.attributed_ns() ==
                           rr.refilled - rr.script_started,
                       "restart critical path must partition the window");
      }
    }
  }
}

Task<void> finish_round(CoordState* st, sim::ProcessCtx& ctx) {
  st->shared->ckpt_active = false;
  // Generate the restart script for this round (§3).
  const int round = st->current_round;
  auto& r = st->shared->stats.rounds.back();
  if (!st->shared->repos.empty()) {
    // Snapshot the repositories after every manager committed + GC'd: the
    // round's stats carry the store's live size and dedup ratio,
    // aggregated across node-local stores.
    u64 live = 0, reclaimed = 0, logical = 0, shared_chunks = 0;
    for (const auto& [node, repo] : st->shared->repos) {
      const auto& rs = repo->stats();
      live += rs.live_stored_bytes;
      reclaimed += rs.reclaimed_bytes;
      logical += rs.live_logical_bytes;
      shared_chunks += repo->shared_chunk_count();
    }
    r.store_live_bytes = live;
    r.store_shared_chunks = shared_chunks;
    r.store_reclaimed_bytes = reclaimed;
    r.dedup_ratio = live == 0 ? 1.0
                              : static_cast<double>(logical) /
                                    static_cast<double>(live);
  }
  {
    // The round's view of every cumulative stat: one registry snapshot,
    // diffed against the previous close. Taken before the daemon kicks
    // below, so their synchronous counts land in the next round's delta.
    obs::MetricsRegistry now = collect_metrics(*st->shared);
    r.delta = now.delta_since(st->last_metrics);
    st->last_metrics = std::move(now);
  }
  if (auto* svc = st->shared->store_service.get();
      svc != nullptr && st->shared->owns_store) {
    // Only the computation that owns the service kicks its daemons;
    // attached tenants would double-kick them. Kick this round's scrub
    // pass; its results land in the next round's delta (the pass drains
    // through the shard queues asynchronously).
    if (st->shared->opts.scrub_chunks > 0) {
      svc->scrub(st->shared->opts.scrub_chunks);
    }
    // Cold-tier demotion rides the same round boundary: chunks only old
    // generations still reference re-stripe to the wider cold profile in
    // the background, capped per round so foreground traffic wins.
    if (svc->erasure().cold_enabled()) {
      svc->demote_cold(sim::params::kDemoteChunksPerRound);
    }
  }
  {
    // Derived per-round signals from the managers' image-stats sums: the
    // store-level compress ratio over this round's new chunks and the
    // workload's dirty-locality fraction (generation 0 reads 1.0).
    r.compress_ratio =
        r.store_raw_new_bytes == 0
            ? 1.0
            : static_cast<double>(r.store_new_chunk_bytes) /
                  static_cast<double>(r.store_raw_new_bytes);
    r.dirty_page_fraction =
        r.total_uncompressed == 0
            ? 0.0
            : 1.0 - static_cast<double>(r.store_dup_bytes) /
                        static_cast<double>(r.total_uncompressed);
  }
  if (auto* tr = st->shared->tracer.get()) {
    // Critical-path attribution over the pause window: the backward sweep
    // partitions [requested, refilled) in integer nanoseconds, so its
    // attributed time equals the round's total exactly — both identities
    // asserted, every round.
    r.critical_path =
        obs::critical_path(*tr, r.requested, r.refilled, round_phases(r));
    DSIM_CHECK_MSG(
        r.critical_path.attributed_ns() == r.refilled - r.requested,
        "round critical path must partition the pause window");
    DSIM_CHECK_MSG(
        std::fabs(r.critical_path.total_seconds() - r.total_seconds()) <=
            1e-9,
        "round critical path must sum to the round's total");
  }
  if (st->shared->health_series) {
    // Health time-series sample: the round's delta flattened to named
    // scalars — counter and sum deltas and backlog gauges under their
    // registry names, histogram deltas as .p99, plus the aliases the SLO
    // rules and docs use (pause_seconds, degraded_chunks, ...).
    obs::RoundSeries::Sample sample;
    sample.round = st->current_round;
    sample.at = r.refilled;
    for (const auto& [name, v] : r.delta.counters()) {
      sample.values[name] = static_cast<double>(v);
    }
    for (const auto& [name, v] : r.delta.sums()) sample.values[name] = v;
    for (const auto& [name, v] : r.delta.gauges()) sample.values[name] = v;
    for (const auto& [name, h] : r.delta.histograms()) {
      if (h.count() != 0) sample.values[name + ".p99"] = h.quantile(0.99);
    }
    sample.values["pause_seconds"] = r.total_seconds();
    sample.values["degraded_chunks"] = sample.values["store.degraded_chunks"];
    sample.values["heal_backlog"] = sample.values["store.degraded_chunks"];
    sample.values["parked_requests"] = sample.values["store.parked_now"];
    sample.values["quarantined_chunks"] =
        sample.values["store.quarantined_chunks"];
    sample.values["admission_held"] =
        sample.values["store.admission_held_requests"];
    sample.values["replayed_requests"] =
        sample.values["store.replayed_requests"];
    st->shared->health_series->push(std::move(sample));
    if (auto* slo = st->shared->slo_engine.get()) {
      const std::vector<obs::AlertEvent> events =
          slo->evaluate(*st->shared->health_series);
      for (const obs::AlertEvent& ev : events) {
        // Alerts become structured trace events: a zero-duration span on
        // an alert.<rule> lane of the service process, stamped with the
        // round's virtual close time (zero-length, so the critical-path
        // sweep never attributes wait to the alert itself).
        if (auto* tr = st->shared->tracer.get()) {
          tr->end(tr->begin(ev.fired ? "alert.fired" : "alert.cleared",
                            obs::kServicePid, "alert." + ev.rule, ctx.now()),
                  ctx.now());
        }
        if (ev.fired) {
          LOG_WARN("coordinator: SLO alert %s", ev.message.c_str());
        } else {
          LOG_INFO("coordinator: SLO %s", ev.message.c_str());
        }
      }
    }
  }
  RestartPlan plan;
  plan.coord_node = st->shared->opts.coord_node;
  plan.coord_port = st->shared->opts.coord_port;
  for (const auto& [host, paths] : st->round_images[round]) {
    plan.hosts.push_back(RestartPlan::HostLine{host, paths});
    plan.total_procs += static_cast<int>(paths.size());
  }
  const std::string script = format_restart_script(plan);
  const std::string path =
      st->shared->opts.ckpt_dir + "/dmtcp_restart_script.sh";
  auto inode =
      ctx.kernel().fs_for(ctx.process().node(), path).create(path);
  inode->data = sim::ByteImage(script.size());
  inode->data.write(0, as_bytes_view(script));
  // Wake dmtcp_command --checkpoint waiters.
  for (Fd fd : st->ckpt_waiters) {
    Msg done;
    done.type = MsgType::kCommandReply;
    done.s = "checkpoint-done";
    done.a = round;
    co_await send_to(ctx, fd, done);
  }
  st->ckpt_waiters.clear();
}

/// Release every barrier whose waiter count reached its expectation. Called
/// on both barrier arrivals and client departures: a client exiting
/// mid-round shrinks the membership and can satisfy a pending barrier.
Task<void> maybe_release_barriers(CoordState* st, sim::ProcessCtx& ctx) {
  for (auto& [name, b] : st->barriers) {
    const int expected =
        b.expected > 0 ? b.expected : static_cast<int>(st->clients.size());
    if (b.waiters.empty() ||
        static_cast<int>(b.waiters.size()) < expected) {
      continue;
    }
    LOG_INFO("coordinator: barrier %s released (%zu waiters)", name.c_str(),
             b.waiters.size());
    stamp_barrier(st, name, ctx.now());
    Msg rel;
    rel.type = MsgType::kBarrierRelease;
    rel.s = name;
    auto waiters = std::move(b.waiters);
    b.waiters.clear();
    b.expected = 0;
    for (Fd w : waiters) co_await send_to(ctx, w, rel);
    if (name == barrier::kRefilled) co_await finish_round(st, ctx);
  }
}

Task<void> client_handler(CoordState* st, sim::ProcessCtx* pctx, Fd fd) {
  auto& ctx = *pctx;
  auto& k = ctx.kernel();
  sim::TcpVNode* sock = ctx.fd_tcp(fd);
  DSIM_CHECK(sock != nullptr);
  while (true) {
    auto m = co_await recv_msg(k, ctx.thread(), *sock);
    if (!m) break;  // client gone
    co_await ctx.cpu(to_seconds(sim::params::kCoordMsgCpu));
    switch (m->type) {
      case MsgType::kRegister: {
        Client c;
        c.fd = fd;
        c.upid = m->upid;
        c.vpid = m->a;
        c.host = m->s;
        c.node = static_cast<NodeId>(m->ua);
        c.restarting = m->b != 0;
        st->clients[fd] = c;
        LOG_INFO("coordinator: register vpid=%d host=%s fd=%d (%zu clients)",
                 c.vpid, c.host.c_str(), fd, st->clients.size());
        if (c.restarting && !st->shared->stats.restarts.empty()) {
          st->shared->stats.restarts.back().procs++;
        }
        break;
      }
      case MsgType::kBarrierWait: {
        auto& b = st->barriers[m->s];
        if (m->a > 0) b.expected = m->a;
        b.waiters.push_back(fd);
        co_await maybe_release_barriers(st, ctx);
        break;
      }
      case MsgType::kCommand: {
        if (m->s == "checkpoint") {
          co_await initiate_checkpoint(st, ctx);
          if (m->a == 1) {
            st->ckpt_waiters.push_back(fd);
          } else {
            Msg rep;
            rep.type = MsgType::kCommandReply;
            rep.s = "checkpoint-requested";
            co_await send_to(ctx, fd, rep);
          }
        } else if (m->s == "status") {
          Msg rep;
          rep.type = MsgType::kCommandReply;
          rep.s = "clients";
          rep.a = static_cast<int>(st->clients.size());
          co_await send_to(ctx, fd, rep);
        } else if (m->s == "interval") {
          st->shared->opts.interval =
              static_cast<SimTime>(m->a) * timeconst::kSecond;
          Msg rep;
          rep.type = MsgType::kCommandReply;
          rep.s = "interval-set";
          co_await send_to(ctx, fd, rep);
        }
        break;
      }
      case MsgType::kAdvertise: {
        refresh_discovery_epoch(st);
        st->conn_addrs[m->conn] = {m->a, m->b};
        auto it = st->pending_queries.find(m->conn);
        if (it != st->pending_queries.end()) {
          Msg info;
          info.type = MsgType::kAddrInfo;
          info.conn = m->conn;
          info.a = m->a;
          info.b = m->b;
          for (Fd q : it->second) co_await send_to(ctx, q, info);
          st->pending_queries.erase(it);
        }
        break;
      }
      case MsgType::kQueryAddr: {
        refresh_discovery_epoch(st);
        auto it = st->conn_addrs.find(m->conn);
        if (it != st->conn_addrs.end()) {
          Msg info;
          info.type = MsgType::kAddrInfo;
          info.conn = m->conn;
          info.a = it->second.first;
          info.b = it->second.second;
          co_await send_to(ctx, fd, info);
        } else {
          st->pending_queries[m->conn].push_back(fd);
        }
        break;
      }
      case MsgType::kImageStats: {
        // A full image reports zero for every chunk-store field.
        const ImageStats img = ImageStats::from_msg(*m);
        auto& r = st->shared->stats.rounds.at(static_cast<size_t>(img.round));
        r.procs++;
        r.total_uncompressed += img.uncompressed;
        r.total_compressed += img.written;
        r.total_chunks += img.total_chunks;
        r.new_chunks += img.new_chunks;
        r.store_dup_bytes += img.dup_bytes;
        r.store_new_chunk_bytes += img.new_chunk_bytes;
        r.store_raw_new_bytes += img.raw_new_bytes;
        if (img.skipped) r.async_skipped_procs++;
        st->round_images[img.round][img.node].push_back(img.path);
        break;
      }
      case MsgType::kStageNote: {
        auto& restarts = st->shared->stats.restarts;
        if (!restarts.empty()) {
          if (st->stage_epoch != restarts.size()) {
            st->stage_epoch = restarts.size();
            st->stage_sums.clear();
          }
          auto& [sum, hosts] = st->stage_sums[m->s];
          sum += to_seconds(static_cast<SimTime>(m->ua));
          const double avg = sum / ++hosts;
          RestartRun& rr = restarts.back();
          if (m->s == "files") rr.files_ptys_seconds = avg;
          else if (m->s == "reconnect") rr.reconnect_seconds = avg;
          else if (m->s == "memory") rr.memory_threads_seconds = avg;
        }
        break;
      }
      default:
        DSIM_UNREACHABLE("coordinator: unexpected message type");
    }
  }
  LOG_INFO("coordinator: client fd=%d vpid=%d disconnected", fd,
           st->clients.count(fd) ? st->clients[fd].vpid : -1);
  st->clients.erase(fd);
  for (auto& [name, b] : st->barriers) std::erase(b.waiters, fd);
  if (st->shared->ckpt_active && st->clients.empty()) {
    // Every client of the round in flight is gone (a kill mid-round): the
    // round is abandoned, its refilled left 0, and the next request starts
    // a new one.
    st->barriers.clear();
    st->shared->ckpt_active = false;
  }
  // The departure may satisfy a barrier the remaining clients wait in.
  co_await maybe_release_barriers(st, ctx);
  k.close_fd(ctx.process(), fd);
}

Task<void> interval_timer(CoordState* st, sim::ProcessCtx* pctx) {
  auto& ctx = *pctx;
  while (true) {
    const SimTime iv = st->shared->opts.interval;
    if (iv <= 0) {
      co_await ctx.sleep(50 * timeconst::kMillisecond);
      continue;
    }
    co_await ctx.sleep(iv);
    if (st->shared->opts.interval > 0) {
      co_await initiate_checkpoint(st, ctx);
    }
  }
}

Task<void> handler_entry(CoordState* st, sim::ProcessCtx* pctx, Fd fd) {
  co_await client_handler(st, pctx, fd);
}

Task<int> coordinator_main(sim::ProcessCtx& ctx,
                           std::shared_ptr<DmtcpShared> shared) {
  auto st = std::make_unique<CoordState>();
  st->shared = shared;

  const Fd lfd = co_await ctx.socket();
  const bool ok = co_await ctx.bind(lfd, shared->opts.coord_port);
  DSIM_CHECK_MSG(ok, "coordinator: port already in use");
  co_await ctx.listen(lfd);

  if (shared->store_service && shared->owns_store) {
    // Endpoint setup: shard 0 runs where --store-node says (default:
    // alongside the coordinator, as dmtcp's helper daemons do) and the
    // remaining shards spread round-robin from there. Managers reach every
    // shard over the RPC fabric from here on; the option set was validated
    // against the cluster shape at launch (DmtcpOptions::validate_cluster),
    // so the base node is in range by construction.
    auto& svc = *shared->store_service;
    const NodeId base =
        shared->opts.store_node >= 0
            ? static_cast<NodeId>(shared->opts.store_node)
            : ctx.process().node();
    std::vector<NodeId> endpoints;
    endpoints.reserve(static_cast<size_t>(svc.num_shards()));
    for (int s = 0; s < svc.num_shards(); ++s) {
      endpoints.push_back(
          static_cast<NodeId>((base + s) % ctx.kernel().num_nodes()));
    }
    svc.set_endpoints(std::move(endpoints));
    LOG_INFO("coordinator: chunk-store service with %d shard(s) from node "
             "%d (%d replica(s) per chunk, %d lookup key(s) per RPC)",
             svc.num_shards(), base, shared->opts.chunk_replicas,
             shared->opts.lookup_batch);
  }

  {
    sim::Thread& t =
        ctx.process().add_thread(sim::ThreadKind::kManager);
    t.start(interval_timer(st.get(), &t.pctx()));
  }

  while (true) {
    const Fd cfd = co_await ctx.accept_raw(lfd);
    if (cfd == kNoFd) break;
    sim::Thread& t = ctx.process().add_thread(sim::ThreadKind::kManager);
    t.start(handler_entry(st.get(), &t.pctx(), cfd));
  }
  co_return 0;
}

Task<int> command_main(sim::ProcessCtx& ctx,
                       std::shared_ptr<DmtcpShared> shared) {
  // argv: [command] — "checkpoint" (waits for completion) or "status".
  DSIM_CHECK(!ctx.process().argv().empty());
  const std::string cmd = ctx.process().argv()[0];
  const Fd fd = co_await ctx.socket();
  const sim::SockAddr coord{shared->opts.coord_node, shared->opts.coord_port};
  while (!co_await ctx.connect(fd, coord)) {
    co_await ctx.sleep(1 * timeconst::kMillisecond);
  }
  auto* sock = ctx.fd_tcp(fd);
  Msg m;
  m.type = MsgType::kCommand;
  m.s = cmd;
  m.a = (cmd == "checkpoint") ? 1 : 0;  // wait for completion
  co_await send_msg(ctx.kernel(), ctx.thread(), *sock, m);
  auto reply = co_await recv_msg(ctx.kernel(), ctx.thread(), *sock);
  co_return reply.has_value() ? 0 : 1;
}

}  // namespace

sim::Program make_coordinator_program(SharedResolver resolve) {
  sim::Program p;
  p.name = "dmtcp_coordinator";
  p.main = [resolve](sim::ProcessCtx& ctx) {
    return coordinator_main(ctx, resolve(ctx.process()));
  };
  return p;
}

sim::Program make_command_program(SharedResolver resolve) {
  sim::Program p;
  p.name = "dmtcp_command";
  p.main = [resolve](sim::ProcessCtx& ctx) {
    return command_main(ctx, resolve(ctx.process()));
  };
  return p;
}

}  // namespace dsim::core
