#include "core/hijack.h"

#include <algorithm>
#include <set>

#include "ckptasync/pipeline.h"
#include "ckptstore/erasure.h"
#include "ckptstore/tenant.h"
#include "core/msg_io.h"
#include "mtcp/mtcp.h"
#include "sim/cpu.h"
#include "sim/model_params.h"
#include "sim/sync.h"
#include "util/assertx.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dsim::core {

using sim::SegKind;
using sim::SockSegment;
using sim::TcpVNode;
namespace params = sim::params;

namespace {

std::string sanitize(std::string s) {
  for (char& c : s) {
    if (c == '/' || c == ':' || c == ' ') c = '_';
  }
  return s;
}

/// Striping a new chunk container into k+m fragments is checkpoint-path CPU
/// like compression, priced by the parity rows at kErasureBw (none under
/// replication, whose fragments are copies, or without the service).
double stripe_seconds(const ckptstore::ChunkStoreService* svc, u64 bytes) {
  return svc == nullptr ? 0.0
                        : ckptstore::erasure::encode_seconds(
                              bytes, svc->erasure().k, svc->erasure().m);
}

/// The store sequence of one chunk-store checkpoint, run by both modes as
/// a callback chain off the event loop:
///
///   Lookups in the writer's rendezvous order -> per chunk it is to store:
///   its encode share on the writer's core pool -> after the last verdict,
///   each encoded chunk's Store (heals re-store directly) -> home-device
///   and manifest writes -> --sync flush of every device written ->
///   retention -> done
///
/// The synchronous write co_awaits it inside the write barrier. Its Lookups
/// take claims: of the writers presenting one chunk, the one whose probe
/// the key's shard serves first stores it, and each chunk's encode starts
/// on its own verdict. The async pipeline runs it after its chunk stage
/// without claims: it stores exactly the chunks its scan found new, so
/// every encode starts before the Lookups leave. Without the service the
/// encodes still run on the pool and one local write follows the last.
/// Kept alive by the callbacks it registers; it owns nothing of
/// DmtcpShared or the service, so a drain still in flight at teardown
/// cannot pin them in a cycle.
struct StoreDrain : std::enable_shared_from_this<StoreDrain> {
  sim::Kernel* k = nullptr;
  DmtcpShared* shared = nullptr;
  ckptstore::ChunkStoreService* svc = nullptr;  // null: local-repo path
  ckptstore::TenantId tenant = ckptstore::kDefaultTenant;
  NodeId node = 0;
  int round = 0;
  std::string path;
  /// The chunks this writer's scan put in the repository (key, bytes), in
  /// scan order, and the resident chunks it references, one entry per
  /// reference (EncodedDelta::stored_chunks and dup_chunks).
  std::vector<std::pair<ckptstore::ChunkKey, u64>> fresh;
  std::vector<std::pair<ckptstore::ChunkKey, u64>> dup_chunks;
  std::vector<bool> dup_known;  // EncodedDelta::dup_known: no Lookup
  /// Per fresh chunk: its codec CPU plus its erasure stripe.
  std::vector<double> encode;
  bool claims = false;  // the Lookups take claims (synchronous writes)
  /// --sync after: flush every device the round wrote before retention.
  bool flush = false;
  /// Filled once the writes land: the writer's node and every placement
  /// home, for the writer's next --sync previous.
  std::shared_ptr<std::set<NodeId>> written;
  u64 manifest_size = 0;
  u64 submitted_bytes = 0;
  std::function<void()> done;

  /// One Store this drain sends, in the order it took them on.
  struct Write {
    ckptstore::ChunkKey key;
    u64 bytes = 0;
    size_t p = 0;          // the chunk it stores (see `probes`): scan order
    bool heal = false;     // a re-store of a lost dedup hit (kRestore)
    bool encoded = false;  // its encode share has run
  };
  std::vector<Write> writes;
  std::set<ckptstore::ChunkKey> taken;  // the keys in `writes`
  /// The Lookup's keys: p < fresh.size() names fresh[p], any other p names
  /// dup_chunks[p - fresh.size()].
  std::vector<size_t> probes;
  bool verdicts_in = false;
  int pending = 0;
  std::map<NodeId, u64> home_bytes;
  /// The writer's encode pool while it has jobs; they hold it, and their
  /// callbacks hold this drain, so a strong reference here would be a
  /// cycle.
  std::weak_ptr<sim::CpuPool> pool;

  void run() {
    auto self = shared_from_this();
    if (!svc) {
      pending = static_cast<int>(fresh.size());
      if (pending == 0) {
        write_local();
        return;
      }
      for (size_t i = 0; i < fresh.size(); ++i) {
        encode_then(encode[i], [self] {
          if (--self->pending == 0) self->write_local();
        });
      }
      return;
    }
    // Without claims the writer stores exactly what its scan found new, so
    // every encode starts now, beside the Lookups.
    if (!claims) {
      for (size_t i = 0; i < fresh.size(); ++i) take(i);
    }
    // Every chunk the writer cannot vouch for is a Lookup RPC (hit or miss
    // alike) routed to its key's shard: the probes cross this node's NIC,
    // pay the endpoint's message CPU and serialize on the shard queues, so
    // N ranks' probes contend the way the paper's coordinator/peer
    // messages do (§4.3). A known dup repeats a span the process has not
    // written since its previous generation, whose manifest still pins
    // the key, so it needs no probe. The writer sends its probes in its
    // own rendezvous order of (key, node), a window of them in flight
    // (ChunkStoreService::kClaimWindow), so where several writers present
    // the same keys, each reaches the shards first with a different share
    // of them, whichever writer starts first.
    std::vector<std::pair<u64, size_t>> order;
    for (size_t i = 0; i < fresh.size(); ++i) {
      order.emplace_back(rendezvous(fresh[i].first), i);
    }
    for (size_t i = 0; i < dup_chunks.size(); ++i) {
      if (!dup_known[i]) {
        order.emplace_back(rendezvous(dup_chunks[i].first),
                           fresh.size() + i);
      }
    }
    std::sort(order.begin(), order.end());
    ckptstore::StoreRequest lk;
    lk.op = ckptstore::StoreOp::kLookup;
    lk.tenant = tenant;
    lk.from = node;
    lk.keys.reserve(order.size());
    probes.reserve(order.size());
    for (const auto& [score, p] : order) {
      probes.push_back(p);
      lk.keys.push_back(chunk(p).first);
    }
    if (claims) {
      lk.verdict = [self](size_t i, bool store) {
        if (store) self->take(self->probes[i]);
      };
    }
    lk.done = [self] { self->stores(); };
    svc->submit(std::move(lk));
  }

  u64 rendezvous(const ckptstore::ChunkKey& key) const {
    return mix64(key.hi ^ mix64(key.lo ^ mix64(0x7A4Eu + static_cast<u64>(
                                                             node))));
  }
  const std::pair<ckptstore::ChunkKey, u64>& chunk(size_t p) const {
    return p < fresh.size() ? fresh[p] : dup_chunks[p - fresh.size()];
  }

  /// Take on the Store of the chunk probe `p` names (once, however many
  /// references name it) and start its encode. A chunk this writer's scan
  /// found resident is priced as its first scanner paid: from the
  /// repository chunk's length and kind.
  void take(size_t p) {
    const auto& [key, bytes] = chunk(p);
    if (!taken.insert(key).second) return;
    double secs = p < encode.size() ? encode[p] : 0.0;
    if (p >= fresh.size()) {
      shared->stats.claimed_resident++;
      const ckptstore::Chunk* c = shared->repo_for(node).find(key);
      DSIM_CHECK_MSG(c != nullptr,
                     "a claimed chunk left the repository while this "
                     "writer's generation references it");
      secs = mtcp::encode_cpu_seconds(c->len, c->kind, shared->opts.codec) +
             stripe_seconds(svc, bytes);
    }
    writes.push_back({key, bytes, p});
    encode_then(secs, [self = shared_from_this(), w = writes.size() - 1] {
      self->writes[w].encoded = true;
      if (self->verdicts_in) self->store(w);
    });
  }

  /// Run `then` once `secs` of encode has run on the writer's core pool —
  /// at once when there is none (codec none without erasure): no
  /// zero-length jobs.
  void encode_then(double secs, std::function<void()> then) {
    if (secs <= 0) {
      then();
      return;
    }
    std::shared_ptr<sim::CpuPool> jobs = pool.lock();
    if (!jobs) {
      jobs = std::make_shared<sim::CpuPool>(
          k->loop(), k->node(node).cpu(), node, "ckpt.encode", "ckpt");
      pool = jobs;
    }
    CkptRound& r = shared->stats.rounds[static_cast<size_t>(round)];
    r.encode_cpu_seconds += secs;
    r.encode_jobs++;
    jobs->submit(secs, std::move(then));
    r.peak_encode_jobs = std::max(r.peak_encode_jobs, jobs->peak());
  }

  /// The last verdict is in: Stores leave from here on, each as soon as
  /// its encode has run, so none queues between this writer's probes.
  void stores() {
    // Dedup hits normally cost nothing — but a hit on a chunk whose every
    // replica died with its node would pin permanently unrestorable data
    // into this generation's manifest, so those are re-stored over the
    // survivors: the store heals forward as generations land. lost(), not
    // !available(): a hit on a key another rank's Store is still carrying
    // is merely unrecorded. dup_chunks holds one entry per *reference*,
    // known or not, so each lost key heals once.
    if (svc->health()->any_down()) {
      for (size_t i = 0; i < dup_chunks.size(); ++i) {
        const auto& [key, bytes] = dup_chunks[i];
        if (svc->placement().lost(key) && taken.insert(key).second) {
          writes.push_back({key, bytes, fresh.size() + i, /*heal=*/true,
                            /*encoded=*/true});
        }
      }
    }
    verdicts_in = true;
    if (writes.empty()) {
      charges();
      return;
    }
    pending = static_cast<int>(writes.size());
    // The encoded ones leave now, in scan order; the rest as each encode
    // ends.
    std::vector<size_t> ready;
    for (size_t w = 0; w < writes.size(); ++w) {
      if (writes[w].encoded) ready.push_back(w);
    }
    std::sort(ready.begin(), ready.end(), [this](size_t a, size_t b) {
      return writes[a].p < writes[b].p;
    });
    for (const size_t w : ready) store(w);
  }

  /// One Store (or heal re-store) through the service queue: it lands on
  /// the key's placement homes, whose device writes follow in charges().
  void store(size_t w) {
    const Write& wr = writes[w];
    if (!wr.heal) {
      shared->stats.rounds[static_cast<size_t>(round)]
          .stored_keys[node]
          .push_back(wr.key);
    }
    ckptstore::StoreRequest st;
    st.op = wr.heal ? ckptstore::StoreOp::kRestore
                    : ckptstore::StoreOp::kStore;
    st.tenant = tenant;
    st.from = node;
    st.keys = {wr.key};
    st.bytes = wr.bytes;
    st.done = [self = shared_from_this()] {
      if (--self->pending == 0) self->charges();
    };
    const auto reply = svc->submit(std::move(st));
    for (const auto& t : reply.targets) home_bytes[t.node] += t.bytes;
  }

  void charges() {
    auto self = shared_from_this();
    pending = static_cast<int>(home_bytes.size()) + 1;  // +1: the manifest
    auto one = [self] {
      if (--self->pending == 0) self->durable();
    };
    for (const auto& [home, bytes] : home_bytes) {
      k->charge_storage_bg(home, path, bytes, /*is_read=*/false, one);
    }
    // The manifest itself stays a file in this process's ckpt_dir.
    k->charge_storage_bg(node, path, manifest_size, /*is_read=*/false, one);
  }

  void write_local() {
    k->charge_storage_bg(node, path, submitted_bytes, /*is_read=*/false,
                         [self = shared_from_this()] { self->durable(); });
  }

  /// The writer's device holds the manifest (all of the write without the
  /// service), and each placement home its share of the chunk bytes.
  void durable() {
    written->insert(node);
    for (const auto& [home, bytes] : home_bytes) written->insert(home);
    if (!flush) {
      gc_and_done();
      return;
    }
    pending = static_cast<int>(written->size());
    for (const NodeId n : *written) {
      k->sync_storage_bg(n, path, [self = shared_from_this()] {
        if (--self->pending == 0) self->gc_and_done();
      });
    }
  }

  /// Retention: drop generations beyond the keep window and trim the
  /// reclaimed chunk bytes. The service reclaims each dead chunk (one Drop
  /// request through its queue) and names the placement homes that held
  /// it, which are trimmed on the checkpoint path; without the service the
  /// trim lands on this node's device. The pass is scoped to this tenant's
  /// owner namespace, so each tenant keeps its own last N.
  void gc_and_done() {
    ckptstore::Repository& repo = shared->repo_for(node);
    if (svc) {
      std::vector<ckptstore::Repository::ReclaimedChunk> dead;
      repo.collect_garbage(shared->opts.keep_generations, &dead,
                           ckptstore::tenant_prefix(tenant));
      for (const auto& rc : dead) {
        for (const auto& trim : svc->reclaim(tenant, node, rc.key, rc.bytes)) {
          k->discard_storage(trim.node, path, trim.bytes);
        }
      }
    } else {
      const u64 reclaimed =
          repo.collect_garbage(shared->opts.keep_generations);
      if (reclaimed > 0) k->discard_storage(node, path, reclaimed);
    }
    done();
  }
};

}  // namespace

Task<void> hijack_manager_entry(Hijack* h, sim::ProcessCtx* ctx) {
  co_await h->manager_main(*ctx);
}

Hijack::Hijack(sim::Process& p, std::shared_ptr<DmtcpShared> shared)
    : p_(p), shared_(std::move(shared)) {
  vpid_ = p.pid();
  upid_ = UniquePid{hostid_of(p.node()), vpid_,
                    static_cast<u64>(p.kernel().loop().now())};
  if (!shared_->active_vpids.insert(vpid_).second) {
    // Virtual-pid conflict (§4.5): a restored process already owns this pid.
    // The parent's fork wrapper will observe `conflicted` and re-fork.
    conflicted_ = true;
  } else {
    shared_->vpid_map[vpid_] = p.pid();
  }
}

std::shared_ptr<Hijack> Hijack::make_restored(
    sim::Process& p, std::shared_ptr<DmtcpShared> shared, ConnTable table,
    Pid vpid, Pid virt_ppid, UniquePid upid, int expected_procs) {
  auto h = std::shared_ptr<Hijack>(new Hijack(p, std::move(shared)));
  // Undo the fresh-attach vpid claim and take over the image's identity.
  h->shared_->active_vpids.erase(h->vpid_);
  h->shared_->vpid_map.erase(h->vpid_);
  h->vpid_ = vpid;
  h->upid_ = upid;
  h->shared_->active_vpids.insert(vpid);
  h->shared_->vpid_map[vpid] = p.pid();  // translation re-pointed (§4.5)
  h->is_restored_ = true;
  h->virt_ppid_ = virt_ppid;
  h->restart_expected_ = expected_procs;
  h->restored_table_ = std::move(table);
  for (const auto& [desc, fd] : h->restored_table_.preaccepted) {
    h->preaccepted_[desc].push_back(fd);
  }
  return h;
}

void Hijack::on_attach() {
  // "Launches a checkpoint management thread in every user process" (§4).
  sim::Thread& t = p_.add_thread(sim::ThreadKind::kManager);
  t.start(hijack_manager_entry(this, &t.pctx()));
}

void Hijack::on_process_exit() { shared_->active_vpids.erase(vpid_); }

// --- wrapped syscalls -------------------------------------------------------

Task<std::pair<Fd, Fd>> Hijack::wrap_pipe(sim::ProcessCtx& ctx) {
  // §4.5: "a wrapper around the pipe system call promotes pipes into
  // sockets" so the drain/refill machinery handles them.
  auto [a, b] = co_await ctx.socketpair();
  if (auto* va = ctx.fd_tcp(a)) va->promoted_pipe = true;
  if (auto* vb = ctx.fd_tcp(b)) vb->promoted_pipe = true;
  co_return std::make_pair(a, b);
}

Task<Pid> Hijack::wrap_spawn(sim::ProcessCtx& ctx, NodeId node,
                             std::string prog, std::vector<std::string> argv,
                             std::map<std::string, std::string> env) {
  // Hold new spawns while a checkpoint is in flight so the coordinator's
  // barrier membership stays stable for the round.
  while (shared_->ckpt_active) {
    co_await ctx.sleep(500 * timeconst::kMicrosecond);
  }
  // The ssh/exec interception point (§3): make sure the child — possibly on
  // a remote node — runs under DMTCP with the same coordinator.
  env["DMTCP_ENABLED"] = "1";
  for (int attempt = 0; attempt < 64; ++attempt) {
    const Pid child = co_await ctx.spawn_raw(node, prog, argv, env);
    sim::Process* cp = ctx.kernel().find_process(child);
    DSIM_CHECK(cp != nullptr);
    auto* ch = dynamic_cast<Hijack*>(cp->interposer());
    if (ch != nullptr && ch->conflicted_) {
      // §4.5: terminate the child with the conflicting virtual pid and fork
      // once again.
      LOG_INFO("vpid conflict on pid %d; re-forking", child);
      ctx.kernel().kill_process(child);
      continue;
    }
    co_return child;
  }
  DSIM_UNREACHABLE("could not resolve vpid conflict after 64 attempts");
}

Pid Hijack::wrap_getpid(sim::ProcessCtx& ctx) {
  (void)ctx;
  return vpid_;
}

Task<int> Hijack::wrap_waitpid(sim::ProcessCtx& ctx, Pid child) {
  // Translate the (stable) virtual pid to the current real pid (§4.5).
  Pid real = child;
  if (auto it = shared_->vpid_map.find(child);
      it != shared_->vpid_map.end()) {
    real = it->second;
  }
  sim::Process* c = ctx.kernel().find_process(real);
  if (!c) co_return 255;  // child predates the last restart; nothing to reap
  if (c->state() == sim::ProcState::kDead) co_return 255;  // already reaped
  if (c->ppid() != p_.pid()) {
    // Restored processes are forked from dmtcp_restart; re-establish the
    // original parent/child link so wait semantics hold.
    c->set_ppid(p_.pid());
    p_.children().push_back(real);
  }
  co_return co_await ctx.waitpid_raw(real);
}

Task<Fd> Hijack::wrap_accept(sim::ProcessCtx& ctx, Fd fd) {
  auto of = ctx.fd_get(fd);
  DSIM_CHECK(of != nullptr);
  auto it = preaccepted_.find(of->description_id);
  if (it != preaccepted_.end() && !it->second.empty()) {
    const Fd ready = it->second.front();
    it->second.pop_front();
    co_return ready;
  }
  co_return co_await ctx.accept_raw(fd);
}

// --- manager -----------------------------------------------------------------

sim::TcpVNode* Hijack::coord_sock() {
  auto of = p_.fds().get(coord_fd_);
  DSIM_CHECK(of && of->vnode->kind() == sim::VKind::kTcp);
  return static_cast<TcpVNode*>(of->vnode.get());
}

sim::TcpVNode* Hijack::vnode_for_desc(u64 desc_id) {
  for (const auto& [fd, of] : p_.fds().entries()) {
    if (of->description_id == desc_id &&
        of->vnode->kind() == sim::VKind::kTcp) {
      return static_cast<TcpVNode*>(of->vnode.get());
    }
  }
  return nullptr;
}

Task<void> Hijack::manager_main(sim::ProcessCtx& ctx) {
  auto& k = ctx.kernel();
  // Open the coordinator connection (kept out of checkpoints).
  coord_fd_ = co_await ctx.socket();
  p_.fds().get(coord_fd_)->dmtcp_internal = true;
  const sim::SockAddr coord{
      static_cast<NodeId>(std::stoi(p_.env_or("DMTCP_COORD_NODE", "0"))),
      static_cast<u16>(std::stoi(p_.env_or("DMTCP_COORD_PORT", "7779")))};
  while (!co_await ctx.connect(coord_fd_, coord)) {
    co_await ctx.sleep(1 * timeconst::kMillisecond);
  }
  Msg reg;
  reg.type = MsgType::kRegister;
  reg.upid = upid_;
  reg.a = vpid_;
  reg.b = is_restored_ ? 1 : 0;
  reg.ua = static_cast<u64>(p_.node());  // automatic store placement input
  reg.s = k.node(p_.node()).hostname();
  co_await send_msg(k, ctx.thread(), *coord_sock(), reg);

  if (is_restored_) {
    co_await restart_resume(ctx);
  }

  // Barrier 1 (§4.3): wait until the coordinator requests a checkpoint.
  while (true) {
    auto m = co_await recv_msg(k, ctx.thread(), *coord_sock());
    if (!m) co_return;  // coordinator gone; computation is shutting down
    if (m->type == MsgType::kCkptRequest) {
      co_await do_checkpoint(ctx, m->a);
    }
  }
}

Task<void> Hijack::barrier(sim::ProcessCtx& ctx, const std::string& name,
                           int expected) {
  co_await barrier_wait(ctx.kernel(), ctx.thread(), *coord_sock(), name,
                        expected);
}

void Hijack::suspend_user_threads() {
  for (auto& t : p_.threads()) {
    if (t->kind() == sim::ThreadKind::kManager || !t->alive()) continue;
    t->ckpt_suspend();
  }
}

void Hijack::resume_user_threads() {
  for (auto& t : p_.threads()) {
    if (t->kind() == sim::ThreadKind::kManager || !t->alive()) continue;
    t->ckpt_resume();
  }
}

int Hijack::flush_accept_backlogs() {
  // Connections sitting in listener backlogs become real fds so they are
  // checkpointed; accept() hands them out from the stash afterwards.
  int flushed = 0;
  auto entries = p_.fds().entries();  // copy: we install new fds below
  for (const auto& [fd, of] : entries) {
    if (of->dmtcp_internal || of->vnode->kind() != sim::VKind::kTcp) continue;
    auto* s = static_cast<TcpVNode*>(of->vnode.get());
    if (s->state != TcpVNode::State::kListening) continue;
    while (auto accepted = p_.kernel().try_accept(*s)) {
      const Fd nfd = p_.fds().install(accepted, 512);  // high fd range
      preaccepted_[of->description_id].push_back(nfd);
      ++flushed;
    }
  }
  return flushed;
}

ConnTable Hijack::build_conn_table() {
  ConnTable table;
  std::map<u64, bool> seen;
  for (const auto& [fd, of] : p_.fds().entries()) {
    if (of->dmtcp_internal) continue;
    table.fds.push_back(FdEntry{fd, of->description_id});
    if (seen.count(of->description_id)) continue;
    seen[of->description_id] = true;

    ConnRecord rec;
    rec.desc_id = of->description_id;
    rec.offset = of->offset;
    switch (of->vnode->kind()) {
      case sim::VKind::kFile: {
        rec.type = ConnType::kFile;
        rec.path = static_cast<sim::FileVNode&>(*of->vnode).path();
        break;
      }
      case sim::VKind::kTcp: {
        auto* s = static_cast<TcpVNode*>(of->vnode.get());
        rec.conn_id = s->conn_id;
        rec.unix_domain = s->unix_domain;
        rec.promoted_pipe = s->promoted_pipe;
        if (s->state == TcpVNode::State::kListening) {
          rec.type = ConnType::kListener;
          rec.listen_port = s->local.port;
        } else if (s->state == TcpVNode::State::kEstablished) {
          rec.type = ConnType::kEstablished;
          rec.is_acceptor = s->is_acceptor;
          rec.drain_leader = (of->fown_pid == p_.pid());
          rec.peer_gone = s->peer_closed || s->peer.expired();
        } else {
          rec.type = ConnType::kRawSocket;
        }
        break;
      }
      case sim::VKind::kPtyMaster:
      case sim::VKind::kPtySlave: {
        auto& pv = static_cast<sim::PtyVNode&>(*of->vnode);
        rec.type = of->vnode->kind() == sim::VKind::kPtyMaster
                       ? ConnType::kPtyMaster
                       : ConnType::kPtySlave;
        rec.pty_id = pv.pair().id;
        rec.termios = pv.pair().termios;
        break;
      }
      case sim::VKind::kPipeRead:
      case sim::VKind::kPipeWrite:
        DSIM_UNREACHABLE(
            "raw pipe under DMTCP: the pipe() wrapper should have promoted "
            "it to a socketpair");
      default:
        rec.type = ConnType::kFile;
        break;
    }
    table.conns.push_back(std::move(rec));
  }
  for (const auto& [desc, fds] : preaccepted_) {
    for (Fd fd : fds) table.preaccepted.emplace_back(desc, fd);
  }
  return table;
}

Task<void> Hijack::drain_all(sim::ProcessCtx& ctx, ConnTable& table) {
  // §4.3 step 4, run concurrently over all led sockets: flush a token, drain
  // until the peer's token arrives, then handshake on the connection id.
  struct Job {
    TcpVNode* sock;
    ConnRecord* rec;
    int state = 0;  // 0 token, 1 drain, 2 send-handshake, 3 await, 4 done
    std::vector<std::byte> drained;
  };
  std::vector<Job> jobs;
  for (auto& rec : table.conns) {
    if (rec.type != ConnType::kEstablished || !rec.drain_leader) continue;
    TcpVNode* s = vnode_for_desc(rec.desc_id);
    DSIM_CHECK(s != nullptr);
    jobs.push_back(Job{s, &rec, 0, {}});
  }
  // TCP flush dynamics the socket model abstracts away (Table 1a's ~0.1 s
  // drain stage); see model_params.h.
  if (!jobs.empty()) co_await ctx.sleep(params::kDrainFlushBase);
  auto& k = ctx.kernel();
  while (true) {
    bool all_done = true;
    bool progress = false;
    for (auto& j : jobs) {
      if (j.state == 4) continue;
      if (j.sock->peer_closed && j.sock->recv_q.empty() && j.state <= 1) {
        j.rec->drained = std::move(j.drained);
        j.state = 4;  // half-closed connection: keep what we got
        progress = true;
        continue;
      }
      switch (j.state) {
        case 0: {
          SockSegment tok;
          tok.kind = SegKind::kToken;
          tok.bytes = {std::byte{0xD7}};
          if (k.try_send_segment(*j.sock, std::move(tok))) {
            j.state = 1;
            progress = true;
          }
          break;
        }
        case 1: {
          while (auto seg = k.try_recv_segment(*j.sock)) {
            progress = true;
            if (seg->kind == SegKind::kToken) {
              j.state = 2;
              break;
            }
            DSIM_CHECK_MSG(seg->kind == SegKind::kData,
                           "unexpected protocol segment during drain");
            j.drained.insert(j.drained.end(), seg->bytes.begin(),
                             seg->bytes.end());
          }
          break;
        }
        case 2: {
          ByteWriter w;
          j.rec->conn_id.serialize(w);
          SockSegment ctrl;
          ctrl.kind = SegKind::kCtrl;
          ctrl.bytes = w.take();
          if (k.try_send_segment(*j.sock, std::move(ctrl))) {
            j.state = 3;
            progress = true;
          }
          break;
        }
        case 3: {
          if (auto seg = k.try_recv_segment(*j.sock)) {
            DSIM_CHECK(seg->kind == SegKind::kCtrl);
            ByteReader r(seg->bytes);
            const auto peer_id = sim::ConnId::deserialize(r);
            DSIM_CHECK_MSG(peer_id == j.rec->conn_id,
                           "drain handshake: remote side reports a "
                           "different globally unique socket id");
            j.rec->drained = std::move(j.drained);
            j.state = 4;
            progress = true;
          }
          break;
        }
      }
      if (j.state != 4) all_done = false;
    }
    if (all_done) break;
    if (!progress) co_await ctx.sleep(150 * timeconst::kMicrosecond);
  }
}

Task<void> Hijack::refill_all(sim::ProcessCtx& ctx, const ConnTable& table) {
  // §4.3 step 6: each leader sends its drained bytes back to the sender
  // (ctrl plane), and re-sends the peer's blob as ordinary data so it lands
  // back in the peer's kernel receive buffer.
  struct Job {
    TcpVNode* sock;
    const ConnRecord* rec;
    int state = 0;  // 0 send-ctrl, 1 await-ctrl, 2 resend, 3 done
    std::vector<std::byte> peer_blob;
    u64 resent = 0;
  };
  std::vector<Job> jobs;
  for (const auto& rec : table.conns) {
    if (rec.type != ConnType::kEstablished || !rec.drain_leader) continue;
    TcpVNode* s = vnode_for_desc(rec.desc_id);
    DSIM_CHECK(s != nullptr);
    jobs.push_back(Job{s, &rec, 0, {}, 0});
  }
  auto& k = ctx.kernel();
  while (true) {
    bool all_done = true;
    bool progress = false;
    for (auto& j : jobs) {
      if (j.state == 3) continue;
      if (j.sock->peer_closed || j.sock->peer.expired()) {
        // Half-closed connection: the peer cannot re-send, so the drained
        // bytes go straight back into our own receive buffer (they precede
        // the EOF the application will eventually observe).
        if (j.state == 0 && !j.rec->drained.empty()) {
          SockSegment seg;
          seg.kind = SegKind::kData;
          seg.bytes = j.rec->drained;
          j.sock->recv_q.push_back(std::move(seg));
          j.sock->recv_q_bytes += j.rec->drained.size();
          j.sock->readable.wake_all();
        }
        j.state = 3;
        progress = true;
        continue;
      }
      switch (j.state) {
        case 0: {
          ByteWriter w;
          w.put_blob(j.rec->drained);
          SockSegment ctrl;
          ctrl.kind = SegKind::kCtrl;
          ctrl.bytes = w.take();
          if (k.try_send_segment(*j.sock, std::move(ctrl))) {
            j.state = 1;
            progress = true;
          }
          break;
        }
        case 1: {
          if (auto seg = k.try_recv_segment(*j.sock)) {
            DSIM_CHECK(seg->kind == SegKind::kCtrl);
            ByteReader r(seg->bytes);
            j.peer_blob = r.get_blob();
            j.state = j.peer_blob.empty() ? 3 : 2;
            progress = true;
          }
          break;
        }
        case 2: {
          while (j.resent < j.peer_blob.size()) {
            const u64 n = std::min<u64>(params::kTcpSegmentBytes,
                                        j.peer_blob.size() - j.resent);
            SockSegment seg;
            seg.kind = SegKind::kData;
            seg.bytes.assign(
                j.peer_blob.begin() + static_cast<ptrdiff_t>(j.resent),
                j.peer_blob.begin() + static_cast<ptrdiff_t>(j.resent + n));
            if (!k.try_send_segment(*j.sock, std::move(seg))) break;
            j.resent += n;
            progress = true;
          }
          if (j.resent == j.peer_blob.size()) j.state = 3;
          break;
        }
      }
      if (j.state != 3) all_done = false;
    }
    if (all_done) break;
    if (!progress) co_await ctx.sleep(150 * timeconst::kMicrosecond);
  }
}

std::string Hijack::ckpt_path() const {
  return shared_->opts.ckpt_dir + "/ckpt_" + sanitize(p_.prog_name()) + "_" +
         upid_.str() + ".dmtcp";
}

Task<ImageStats> Hijack::write_image(sim::ProcessCtx& ctx, int round,
                                     const ConnTable& table) {
  auto& k = ctx.kernel();
  ImageStats stats{.round = round, .node = p_.node(), .path = ckpt_path()};

  // Async backpressure: a new round reaching a process whose previous drain
  // is still in flight either waits for it (block) or sits this round out
  // (skip), leaving the previous generation's manifest in place. Resolved
  // before the snapshot so a skipped process does zero encode work.
  ckptasync::CkptAsyncPipeline* pipe =
      shared_->opts.ckpt_async ? shared_->async_pipeline.get() : nullptr;
  if (pipe != nullptr && pipe->busy(upid_.str())) {
    if (shared_->opts.async_backpressure == AsyncBackpressure::kSkip) {
      stats.chunked = stats.skipped = true;
      co_return stats;
    }
    const SimTime blocked_from = k.loop().now();
    while (pipe->busy(upid_.str())) {
      co_await ctx.sleep(250 * timeconst::kMicrosecond);
    }
    pipe->note_blocked(to_seconds(k.loop().now() - blocked_from));
  }
  if (shared_->opts.sync == SyncMode::kSyncPrevious && generations_ > 0) {
    // Once the previous drain has landed: its image is on this node's
    // device and, under the chunk store, on each placement home it wrote.
    std::set<NodeId> nodes{p_.node()};
    if (written_) nodes.insert(written_->begin(), written_->end());
    auto synced =
        std::make_shared<sim::CountLatch>(static_cast<int>(nodes.size()));
    for (const NodeId n : nodes) {
      k.sync_storage_bg(n, stats.path, [synced] { synced->done_one(); });
    }
    while (synced->remaining > 0) co_await synced->wq.wait(ctx.thread());
  }

  mtcp::ProcessImage img = mtcp::capture(p_);
  img.virt_pid = vpid_;
  img.dmtcp_blob = table.encode();
  // Incremental mode: at the same instant, take each live private
  // segment's soft-dirty log and arm a fresh token (SegmentMemo::capture),
  // so the scan below rereads only what was written since the last
  // capture. Shared segments are never armed: other processes write them,
  // so they are always scanned whole.
  std::vector<mtcp::SegmentMemo*> memos;
  if (shared_->opts.incremental) {
    std::erase_if(scan_memo_, [this](const auto& entry) {
      return p_.mem().find(entry.first) == nullptr;
    });
    for (const auto& seg : p_.mem().segments()) {
      mtcp::SegmentMemo* memo = nullptr;
      if (!seg->shared) {
        memo = &scan_memo_[seg->name];
        memo->capture(seg->data);
      }
      memos.push_back(memo);
    }
  }

  const std::string& path = stats.path;
  auto inode = k.fs_for(p_.node(), path).create(path);
  // §5.3: copy-on-write makes a fork cheap, so a forked child or the async
  // pipeline writes while the parent resumes after this pause.
  const double rss_mb =
      static_cast<double>(p_.mem().total_bytes()) / (1024.0 * 1024.0);
  const SimTime fork_pause =
      params::kForkBase +
      static_cast<SimTime>(rss_mb * static_cast<double>(params::kForkPerMb));
  // Those writes land after the round; background_done keeps the last.
  auto background_done = [kp = &k, sh = shared_.get(), round] {
    auto& r = sh->stats.rounds[static_cast<size_t>(round)];
    r.background_done = std::max(r.background_done, kp->loop().now());
  };

  if (shared_->opts.incremental) {
    // Incremental mode: chunk the image against the content-addressed
    // repository and write only the chunks no earlier generation stored,
    // plus the generation manifest. The model charges a scan of the full
    // image (assemble_seconds); on the host the scan repeats last
    // generation's spans and keys outside the dirty ranges and rereads
    // only the windows around them. The codec only runs over new chunk
    // bytes.
    ckptstore::Repository& repo = shared_->repo_for(p_.node());
    // Manifest/GC ownership is tenant-namespaced ("t<id>/<vpid>") so each
    // tenant's retention runs independently while chunk content — keyed by
    // content alone — still dedups across tenants.
    mtcp::EncodedDelta delta = mtcp::encode_incremental(
        img, shared_->opts.codec, shared_->opts.chunking_params(),
        ckptstore::tenant_owner(shared_->opts.tenant_id,
                                std::to_string(vpid_)),
        round, repo, memos);
    stats.uncompressed = delta.virtual_uncompressed;
    stats.written = delta.submitted_bytes;  // chunks + manifest
    stats.chunked = true;
    stats.total_chunks = delta.total_chunks;
    stats.new_chunks = delta.new_chunks;
    stats.dup_bytes = delta.dup_chunk_bytes;
    stats.new_chunk_bytes = delta.new_chunk_bytes;
    stats.raw_new_bytes = delta.raw_new_bytes;
    if (pipe == nullptr) {
      // The manager's serial pass is the scan and hash; each new chunk's
      // encode streams through the drain below.
      co_await ctx.cpu(delta.assemble_seconds);
    } else {
      // Async mode: the app pays only the fork/COW snapshot cost here; the
      // scan/chunk stage and the encodes run in the background pipeline.
      co_await ctx.sleep(fork_pause);
    }
    inode->data = sim::ByteImage(delta.manifest_bytes.size());
    inode->data.write(0, delta.manifest_bytes);
    inode->charged_size = delta.submitted_bytes;

    ckptstore::ChunkStoreService* svc = shared_->store_service.get();
    auto drain = std::make_shared<StoreDrain>();
    drain->k = &k;
    drain->shared = shared_.get();
    drain->svc = svc;
    drain->tenant = shared_->opts.tenant_id;
    drain->node = p_.node();
    drain->round = round;
    drain->path = path;
    drain->fresh = std::move(delta.stored_chunks);
    drain->dup_chunks = std::move(delta.dup_chunks);
    drain->dup_known = std::move(delta.dup_known);
    drain->manifest_size = delta.manifest_bytes.size();
    drain->submitted_bytes = delta.submitted_bytes;
    drain->written = written_ = std::make_shared<std::set<NodeId>>();
    // Each new chunk's encode share: its codec CPU plus its erasure stripe.
    // The async drain runs the codec at --compress-bw per core; both content
    // classes' rates are fixed multiples of kGzipDataBw, so scaling the
    // share prices zero input at the same zero:data ratio.
    const double codec_scale =
        pipe == nullptr ? 1.0 : params::kGzipDataBw / pipe->compress_bw();
    drain->encode = std::move(delta.encode_seconds);
    for (size_t i = 0; i < drain->fresh.size(); ++i) {
      drain->encode[i] = drain->encode[i] * codec_scale +
                         stripe_seconds(svc, drain->fresh[i].second);
    }
    if (pipe != nullptr) {
      // Hand the drain to the pipeline: the chunk stage, then the store
      // sequence without claims, since it stores what its scan found new.
      ckptasync::JobSpec spec;
      spec.key = upid_.str();
      spec.node = p_.node();
      spec.chunk_seconds = delta.assemble_seconds;
      spec.queued_bytes = delta.submitted_bytes;
      spec.segments = p_.mem().segments();
      spec.store = [drain](std::function<void()> done) {
        drain->done = std::move(done);
        drain->run();
      };
      spec.on_complete = background_done;
      pipe->start(std::move(spec));
    } else {
      drain->claims = true;
      drain->flush = shared_->opts.sync == SyncMode::kSyncAfter;
      auto drained = std::make_shared<sim::CountLatch>(1);
      drain->done = [drained] { drained->done_one(); };
      drain->run();
      while (drained->remaining > 0) co_await drained->wq.wait(ctx.thread());
    }
    co_return stats;
  }

  mtcp::EncodedImage enc = mtcp::encode(img, shared_->opts.codec);
  stats.uncompressed = enc.virtual_uncompressed;
  stats.written = enc.virtual_compressed;
  const double encode_seconds = enc.assemble_seconds + enc.compress_seconds;
  // Forked checkpointing (§5.3): the child compresses and writes; its
  // compression occupies a core via the fluid-share CPU model.
  const bool forked = shared_->opts.forked_checkpointing;
  if (forked) {
    co_await ctx.sleep(fork_pause);
  } else {
    co_await ctx.cpu(encode_seconds);
  }
  inode->data = sim::ByteImage(enc.bytes.size());
  inode->data.write(0, enc.bytes);
  if (forked) {
    k.node(p_.node()).cpu().submit(
        encode_seconds, [kp = &k, node = p_.node(), path,
                         charge = enc.virtual_compressed, background_done] {
          kp->charge_storage_bg(node, path, charge, /*is_read=*/false,
                                background_done);
        });
  } else {
    co_await k.charge_storage(ctx.thread(), p_.node(), path,
                              enc.virtual_compressed, /*is_read=*/false);
    if (shared_->opts.sync == SyncMode::kSyncAfter) {
      co_await k.sync_storage(ctx.thread(), p_.node(), path);
    }
  }
  co_return stats;
}

Task<void> Hijack::do_checkpoint(sim::ProcessCtx& ctx, int round) {
  // dmtcpaware: the application may briefly delay checkpoints around a
  // critical section.
  while (delay_count_ > 0) {
    co_await ctx.sleep(200 * timeconst::kMicrosecond);
  }
  if (hook_pre_) hook_pre_();

  // Stage 2: suspend user threads; save fd owners (§4.3).
  suspend_user_threads();
  int nthreads = 0;
  for (auto& t : p_.threads()) {
    if (t->alive() && t->kind() != sim::ThreadKind::kManager) ++nthreads;
  }
  flush_accept_backlogs();
  co_await ctx.sleep(params::kSuspendBase +
                     nthreads * params::kSuspendPerThread);
  co_await barrier(ctx, barrier::kSuspended);

  // Stage 3: elect shared-FD leaders via the F_SETOWN trick.
  int nsock = 0;
  for (const auto& [fd, of] : p_.fds().entries()) {
    if (of->dmtcp_internal || of->vnode->kind() != sim::VKind::kTcp) continue;
    of->fown_saved = of->fown_pid;
    of->fown_pid = p_.pid();  // last writer wins the election
    ++nsock;
  }
  co_await ctx.sleep(params::kElectBase + nsock * params::kElectPerFd);
  co_await barrier(ctx, barrier::kElected);

  // Stage 4: drain kernel buffers; handshake; write connection table.
  ConnTable table = build_conn_table();
  co_await drain_all(ctx, table);
  co_await barrier(ctx, barrier::kDrained);

  // Stage 5: write the checkpoint image and report it.
  const ImageStats stats = co_await write_image(ctx, round, table);
  co_await send_msg(ctx.kernel(), ctx.thread(), *coord_sock(),
                    stats.to_msg(upid_));
  co_await barrier(ctx, barrier::kCheckpointed);

  // Stage 6: refill kernel buffers.
  co_await refill_all(ctx, table);
  co_await barrier(ctx, barrier::kRefilled);

  // Stage 7: restore F_SETOWN owners and resume user threads.
  for (const auto& [fd, of] : p_.fds().entries()) {
    if (of->dmtcp_internal || of->vnode->kind() != sim::VKind::kTcp) continue;
    of->fown_pid = of->fown_saved;
  }
  if (hook_post_) hook_post_();
  resume_user_threads();
  ++generations_;
}

Task<void> Hijack::restart_resume(sim::ProcessCtx& ctx) {
  // §4.4 step 5: "the user process will resume at Barrier 5 of the
  // checkpoint algorithm", then refill (step 6) and resume (step 7).
  co_await barrier(ctx, "restart:checkpointed", restart_expected_);
  co_await refill_all(ctx, restored_table_);
  co_await barrier(ctx, "restart:refilled", restart_expected_);
  // A restored description has no F_SETOWN owner, and the image carries
  // none: no program can set one, and the §4.3 election's owner lasts only
  // until the refill.
  // Re-establish the original parent/child link (pid virtualization, §4.5):
  // the vpid map is complete once every restored process has passed the
  // global barrier above. Without this, an exiting restored child would be
  // auto-reaped (its fork parent is the defunct restart process).
  if (auto it = shared_->vpid_map.find(virt_ppid_);
      it != shared_->vpid_map.end()) {
    if (sim::Process* parent = p_.kernel().find_process(it->second);
        parent && parent->state() == sim::ProcState::kRunning) {
      p_.set_ppid(parent->pid());
      parent->children().push_back(p_.pid());
    }
  }
  if (hook_post_restart_) hook_post_restart_();
  resume_user_threads();
  ++generations_;
}

}  // namespace dsim::core
