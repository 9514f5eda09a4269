#include "sim/kernel.h"

#include <algorithm>
#include <cstring>

#include "sim/interposer.h"
#include "sim/model_params.h"
#include "sim/pctx.h"
#include "util/assertx.h"
#include "util/logging.h"

namespace dsim::sim {
namespace {

/// One-shot completion for bridging callback APIs into coroutines. Held by
/// shared_ptr so a killed waiter cannot dangle under a late callback.
struct SyncPoint {
  bool done = false;
  WaitQueue wq;
  void complete() {
    done = true;
    wq.wake_all();
  }
};

Task<void> run_program_main(ProcessCtx* ctx, const Program* prog) {
  const int rc = co_await prog->main(*ctx);
  ctx->process().set_exit_code(rc);
}

Task<void> run_program_worker(ProcessCtx* ctx, const Program* prog, u32 role) {
  co_await prog->worker(*ctx, role);
}

}  // namespace

std::string ConnId::str() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "conn[%llx:%u:%llu:%u]",
                static_cast<unsigned long long>(host), pid,
                static_cast<unsigned long long>(timestamp), seq);
  return buf;
}

void TcpVNode::on_last_close() { kernel_.on_socket_close(*this); }

Kernel::Kernel(const KernelConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      net_(loop_, cfg.num_nodes),
      shared_fs_("shared:/"),
      san_dev_(loop_, "san", params::kSanBandwidth, params::kSanLatency),
      nfs_dev_(loop_, "nfs", params::kNfsBandwidth, params::kNfsLatency) {
  nodes_.reserve(cfg.num_nodes);
  for (int i = 0; i < cfg.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(loop_, i, cfg.cores_per_node,
                                            i < cfg.san_direct_nodes));
  }
  if (cfg.jitter_sigma > 0) {
    net_.set_jitter(&rng_, cfg.jitter_sigma);
    san_dev_.set_jitter(&rng_, cfg.jitter_sigma);
    nfs_dev_.set_jitter(&rng_, cfg.jitter_sigma);
    for (auto& n : nodes_) n->storage().set_jitter(&rng_, cfg.jitter_sigma);
  }
}

Kernel::~Kernel() {
  // Kill all processes first so coroutine frames (which reference kernel
  // objects) unwind before members are destroyed.
  for (auto& [pid, p] : procs_) {
    for (auto& t : p->threads()) t->kill();
  }
}

Node& Kernel::node(NodeId id) {
  DSIM_CHECK(id >= 0 && id < static_cast<NodeId>(nodes_.size()));
  return *nodes_[id];
}

// --- process management --------------------------------------------------

Pid Kernel::spawn_process(NodeId node_id, const std::string& prog,
                          std::vector<std::string> argv,
                          std::map<std::string, std::string> env, Pid ppid,
                          const FdTable* inherit_fds) {
  const Pid pid = next_pid_++;
  auto proc = std::make_unique<Process>(*this, pid, node_id, prog,
                                        std::move(argv), std::move(env), ppid);
  if (inherit_fds) proc->fds() = inherit_fds->clone_for_exec();
  Process& p = *proc;
  procs_.emplace(pid, std::move(proc));
  if (Process* parent = find_process(ppid)) parent->children().push_back(pid);

  if (attach_factory_ && p.env_or("DMTCP_ENABLED", "") == "1") {
    p.set_interposer(attach_factory_(p));
    p.interposer()->on_attach();
  }
  start_fresh(p);
  LOG_DEBUG("spawn pid=%d prog=%s node=%d", pid, prog.c_str(), node_id);
  return pid;
}

void Kernel::start_fresh(Process& p) {
  const Program* prog = programs_.find(p.prog_name());
  DSIM_CHECK_MSG(prog != nullptr, "unknown program");
  Thread& t = p.add_thread(ThreadKind::kMain);
  t.start(run_program_main(&t.pctx(), prog));
}

Process* Kernel::find_process(Pid pid) {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : it->second.get();
}

void Kernel::kill_process(Pid pid) {
  Process* p = find_process(pid);
  if (!p || p->state() != ProcState::kRunning) return;
  p->set_exit_code(137);
  process_exit(*p);
}

void Kernel::process_exit(Process& p) {
  if (p.state() != ProcState::kRunning) return;
  if (p.interposer()) p.interposer()->on_process_exit();
  for (auto& t : p.threads()) t->kill();
  // Close all descriptors (wakes peers with EOF etc.).
  auto entries = p.fds().entries();
  p.fds().clear();
  for (auto& [fd, of] : entries) release_description(std::move(of));
  // Release the address space: a zombie keeps only its exit status, so a
  // killed incarnation's memory is freed now rather than when the run
  // ends. Shared segments live on through their other mappers, and the
  // async checkpoint pipeline holds its own references to the segments
  // it is still draining.
  p.mem().clear();
  p.set_state(ProcState::kZombie);
  Process* parent = find_process(p.ppid());
  if (parent && parent->state() == ProcState::kRunning) {
    parent->child_exit_wq().wake_all();
  } else {
    p.set_state(ProcState::kDead);  // auto-reaped
  }
  LOG_DEBUG("exit pid=%d code=%d", p.pid(), p.exit_code());
}

void Kernel::on_thread_done(Pid pid, Tid tid) {
  Process* p = find_process(pid);
  if (!p || p->state() != ProcState::kRunning) return;
  Thread* t = p->find_thread(tid);
  if (!t) return;
  if (t->kind() == ThreadKind::kMain) process_exit(*p);
}

Task<int> Kernel::wait_child(Thread& t, Pid child) {
  Process& parent = t.process();
  while (true) {
    Process* c = find_process(child);
    DSIM_CHECK_MSG(c != nullptr, "waitpid: no such child");
    DSIM_CHECK_MSG(c->ppid() == parent.pid(), "waitpid: not our child");
    if (c->state() == ProcState::kZombie) {
      c->set_state(ProcState::kDead);
      co_return c->exit_code();
    }
    DSIM_CHECK_MSG(c->state() != ProcState::kDead, "waitpid: already reaped");
    co_await parent.child_exit_wq().wait(t);
  }
}

std::vector<Pid> Kernel::live_pids() const {
  std::vector<Pid> out;
  for (const auto& [pid, p] : procs_) {
    if (p->state() == ProcState::kRunning) out.push_back(pid);
  }
  return out;
}

Process& Kernel::fork_bare_child(Process& parent) {
  const Pid pid = next_pid_++;
  auto proc = std::make_unique<Process>(*this, pid, parent.node(),
                                        parent.prog_name() + ":child",
                                        parent.argv(), parent.env(),
                                        parent.pid());
  proc->fds() = parent.fds().clone();
  Process& p = *proc;
  procs_.emplace(pid, std::move(proc));
  parent.children().push_back(pid);
  return p;
}

void Kernel::start_restored(Process& p, const std::string& prog_name,
                            std::vector<std::string> argv,
                            const std::vector<ThreadContext>& threads,
                            bool start_suspended) {
  p.set_prog_name(prog_name);
  p.set_argv(std::move(argv));
  const Program* prog = programs_.find(prog_name);
  DSIM_CHECK_MSG(prog != nullptr, "restore: unknown program");
  bool main_done = false;
  for (const auto& ctx : threads) {
    if (!main_done) {
      Thread& t = p.add_thread(ThreadKind::kMain);
      t.set_context(ctx);
      if (start_suspended) t.ckpt_suspend();
      t.start(run_program_main(&t.pctx(), prog));
      main_done = true;
    } else {
      Thread& t = p.add_thread(ThreadKind::kWorker);
      t.set_context(ctx);
      DSIM_CHECK_MSG(prog->worker != nullptr,
                     "restore: program has worker threads but no entry");
      if (start_suspended) t.ckpt_suspend();
      t.start(run_program_worker(&t.pctx(), prog, ctx.role));
    }
  }
}

// --- time / cpu -------------------------------------------------------------

namespace {
struct SleepAwaiter {
  Kernel& k;
  Thread& t;
  SimTime dt;
  bool await_ready() const noexcept { return dt <= 0; }
  void await_suspend(std::coroutine_handle<> h) {
    t.park(h, nullptr);
    Thread* tp = &t;
    const EventId ev = k.loop().post_in(dt, [tp] {
      tp->clear_timer();
      tp->wake();
    });
    t.set_timer(ev);
  }
  void await_resume() const noexcept {}
};

struct CpuAwaiter {
  CpuModel& cpu;
  Thread& t;
  double seconds;
  bool await_ready() const noexcept { return seconds <= 0; }
  void await_suspend(std::coroutine_handle<> h) {
    t.park(h, nullptr);
    Thread* tp = &t;
    const auto job = cpu.submit(seconds, [tp] {
      tp->clear_cpu_job();
      tp->wake();
    });
    t.set_cpu_job(&cpu, job);
  }
  void await_resume() const noexcept {}
};
}  // namespace

Task<void> Kernel::sleep_for(Thread& t, SimTime dt) {
  co_await SleepAwaiter{*this, t, dt};
}

Task<void> Kernel::cpu_burst(Thread& t, double core_seconds) {
  double s = core_seconds;
  if (cfg_.jitter_sigma > 0) {
    s *= std::max(0.2, 1.0 + rng_.next_gaussian() * cfg_.jitter_sigma);
  }
  co_await CpuAwaiter{node(t.process().node()).cpu(), t, s};
}

// --- sockets -----------------------------------------------------------------

std::shared_ptr<OpenFile> Kernel::make_socket(Process& p, bool unix_domain) {
  auto vn = std::make_shared<TcpVNode>(*this);
  vn->local.node = p.node();
  vn->unix_domain = unix_domain;
  auto of = std::make_shared<OpenFile>();
  of->vnode = vn;
  of->description_id = next_description_id();
  return of;
}

bool Kernel::sock_bind(Process& p, TcpVNode& s, u16 port) {
  SockAddr addr{p.node(), port == 0 ? node(p.node()).alloc_ephemeral_port()
                                    : port};
  auto it = listeners_.find(addr);
  if (it != listeners_.end() && !it->second.expired()) return false;
  s.local = addr;
  return true;
}

void Kernel::sock_listen(Process& p, TcpVNode& s) {
  (void)p;
  DSIM_CHECK_MSG(s.local.port != 0, "listen() before bind()");
  s.state = TcpVNode::State::kListening;
  listeners_[s.local] = s.weak_from_this();
}

Task<std::shared_ptr<OpenFile>> Kernel::sock_accept(Thread& t, TcpVNode& s) {
  while (s.accept_q.empty()) {
    if (s.state != TcpVNode::State::kListening) co_return nullptr;
    co_await s.acceptable.wait(t);
  }
  auto vn = std::move(s.accept_q.front());
  s.accept_q.pop_front();
  auto of = std::make_shared<OpenFile>();
  of->vnode = vn;
  of->description_id = next_description_id();
  co_return of;
}

Task<bool> Kernel::sock_connect(Thread& t, TcpVNode& s, SockAddr addr) {
  DSIM_CHECK_MSG(s.state == TcpVNode::State::kRaw, "connect on used socket");
  // SYN + SYN/ACK round trip.
  const bool local = addr.node == s.local.node;
  co_await sleep_for(t, 2 * (local ? params::kLoopbackLatency
                                   : params::kNetLatency));
  auto it = listeners_.find(addr);
  if (it == listeners_.end()) co_return false;
  auto listener = it->second.lock();
  if (!listener || listener->state != TcpVNode::State::kListening) {
    co_return false;
  }
  if (s.local.port == 0) {
    s.local.port = node(s.local.node).alloc_ephemeral_port();
  }
  auto srv = std::make_shared<TcpVNode>(*this);
  srv->state = TcpVNode::State::kEstablished;
  srv->local = addr;
  srv->remote = s.local;
  srv->is_acceptor = true;
  srv->unix_domain = s.unix_domain;
  srv->peer = s.shared_from_this();
  s.peer = srv;
  s.remote = addr;
  s.state = TcpVNode::State::kEstablished;
  // Connection identity (§4.4): hostid+pid of the connector, creation time,
  // per-kernel sequence. Known to both ends from establishment — the
  // observable equivalent of DMTCP's connect/accept information handshake.
  s.conn_id = ConnId{0xd317c0ffee000000ULL | static_cast<u64>(s.local.node),
                     static_cast<u32>(t.process().pid()),
                     static_cast<u64>(loop_.now()), next_conn_seq_++};
  srv->conn_id = s.conn_id;
  listener->accept_q.push_back(std::move(srv));
  listener->acceptable.wake_all();
  co_return true;
}

bool Kernel::try_send_segment(TcpVNode& s, SockSegment seg) {
  DSIM_CHECK(!seg.bytes.empty());
  if (s.state != TcpVNode::State::kEstablished || s.peer.expired()) {
    return true;  // dropped on closed socket; "success" so callers move on
  }
  if (s.send_q_bytes >= params::kSockSendBuf) return false;
  s.send_q_bytes += seg.bytes.size();
  s.send_q.push_back(std::move(seg));
  pump_socket(s.shared_from_this());
  return true;
}

std::optional<SockSegment> Kernel::try_recv_segment(TcpVNode& s) {
  if (s.recv_q.empty()) return std::nullopt;
  SockSegment seg = std::move(s.recv_q.front());
  s.recv_q.pop_front();
  if (seg.consumed > 0) {
    seg.bytes.erase(seg.bytes.begin(),
                    seg.bytes.begin() + static_cast<ptrdiff_t>(seg.consumed));
    seg.consumed = 0;
  }
  s.recv_q_bytes -= seg.bytes.size();
  if (auto p = s.peer.lock()) pump_socket(p);
  return seg;
}

std::shared_ptr<OpenFile> Kernel::try_accept(TcpVNode& s) {
  if (s.accept_q.empty()) return nullptr;
  auto vn = std::move(s.accept_q.front());
  s.accept_q.pop_front();
  auto of = std::make_shared<OpenFile>();
  of->vnode = std::move(vn);
  of->description_id = next_description_id();
  return of;
}

Task<u64> Kernel::sock_send(Thread& t, TcpVNode& s,
                            std::span<const std::byte> bytes, SegKind kind) {
  return send_data(t, s, bytes, {}, kind);
}

Task<u64> Kernel::sock_send_owned(Thread& t, TcpVNode& s,
                                  std::vector<std::byte> bytes) {
  return send_data(t, s, {}, std::move(bytes), SegKind::kData);
}

Task<u64> Kernel::send_data(Thread& t, TcpVNode& s,
                            std::span<const std::byte> bytes,
                            std::vector<std::byte> owned, SegKind kind) {
  if (!owned.empty()) bytes = owned;
  DSIM_CHECK(!bytes.empty());
  while (s.send_q_bytes >= params::kSockSendBuf) {
    if (s.state != TcpVNode::State::kEstablished || s.peer.expired()) {
      co_return 0;  // EPIPE
    }
    co_await s.writable.wait(t);
  }
  if (s.state != TcpVNode::State::kEstablished || s.peer.expired()) {
    co_return 0;
  }
  const u64 room = params::kSockSendBuf - s.send_q_bytes;
  const u64 n = std::min<u64>(room, bytes.size());
  if (n == owned.size() && n <= params::kTcpSegmentBytes) {
    // All of the caller's buffer, in one segment: it is the segment.
    s.send_q.push_back(SockSegment{kind, std::move(owned)});
  } else {
    u64 queued = 0;
    while (queued < n) {
      const u64 seg_n = std::min<u64>(params::kTcpSegmentBytes, n - queued);
      SockSegment seg;
      seg.kind = kind;
      seg.bytes.assign(bytes.begin() + static_cast<ptrdiff_t>(queued),
                       bytes.begin() + static_cast<ptrdiff_t>(queued + seg_n));
      s.send_q.push_back(std::move(seg));
      queued += seg_n;
    }
  }
  s.send_q_bytes += n;
  pump_socket(s.shared_from_this());
  co_return n;
}

template <typename Sink>
Task<u64> Kernel::recv_data(Thread& t, TcpVNode& s, u64 max, Sink sink) {
  while (s.recv_q.empty()) {
    if (s.peer_closed || s.state != TcpVNode::State::kEstablished) {
      co_return 0;  // EOF
    }
    co_await s.readable.wait(t);
  }
  SockSegment& front = s.recv_q.front();
  DSIM_CHECK_MSG(front.kind == SegKind::kData,
                 "user recv() reached a protocol segment");
  const u64 n = std::min<u64>(max, front.remaining());
  const bool whole = front.consumed == 0 && n == front.bytes.size();
  const std::span<const std::byte> bytes(front.bytes.data() + front.consumed,
                                         n);
  front.consumed += n;
  s.recv_q_bytes -= n;
  // The sink runs after the pump: an image sink's write observer may post
  // events (the async checkpoint's copy-on-write charge), and they must
  // come after the pump's, as when a caller writes the bytes out of a span
  // once sock_recv returns. A used-up segment's buffer lives here until then.
  std::vector<std::byte> used_up;
  if (front.remaining() == 0) {
    used_up = std::move(front.bytes);
    s.recv_q.pop_front();
  }
  if (auto p = s.peer.lock()) pump_socket(p);  // receive window opened
  // A step that took the whole segment offers the sink its buffer too.
  const bool adopted =
      sink(bytes, whole ? std::move(used_up) : std::vector<std::byte>{});
  (adopted ? recv_adopted_bytes_ : recv_copied_bytes_) += n;
  co_return n;
}

Task<u64> Kernel::sock_recv(Thread& t, TcpVNode& s, std::span<std::byte> out) {
  DSIM_CHECK(!out.empty());
  return recv_data(t, s, out.size(),
                   [out](std::span<const std::byte> b, std::vector<std::byte>) {
                     std::memcpy(out.data(), b.data(), b.size());
                     return false;
                   });
}

Task<u64> Kernel::sock_recv_into(Thread& t, TcpVNode& s, ByteImage& dst,
                                 u64 off, u64 len) {
  DSIM_CHECK(len > 0);
  return recv_data(
      t, s, len,
      [&dst, off](std::span<const std::byte> b,
                  std::vector<std::byte> whole) {
        if (whole.empty()) {
          dst.write(off, b);
          return false;
        }
        return dst.write_owned(off, std::move(whole));
      });
}

Task<SockSegment> Kernel::sock_recv_segment(Thread& t, TcpVNode& s) {
  while (s.recv_q.empty()) {
    if (s.peer_closed || s.state != TcpVNode::State::kEstablished) {
      co_return SockSegment{};  // empty kData == EOF sentinel
    }
    co_await s.readable.wait(t);
  }
  SockSegment seg = std::move(s.recv_q.front());
  s.recv_q.pop_front();
  if (seg.consumed > 0) {
    seg.bytes.erase(seg.bytes.begin(),
                    seg.bytes.begin() + static_cast<ptrdiff_t>(seg.consumed));
    seg.consumed = 0;
  }
  s.recv_q_bytes -= seg.bytes.size();
  if (auto p = s.peer.lock()) pump_socket(p);
  co_return seg;
}

Task<void> Kernel::sock_send_segment(Thread& t, TcpVNode& s, SockSegment seg) {
  DSIM_CHECK(!seg.bytes.empty());
  while (s.send_q_bytes >= params::kSockSendBuf) {
    if (s.state != TcpVNode::State::kEstablished || s.peer.expired()) {
      co_return;
    }
    co_await s.writable.wait(t);
  }
  s.send_q_bytes += seg.bytes.size();
  s.send_q.push_back(std::move(seg));
  pump_socket(s.shared_from_this());
}

std::pair<std::shared_ptr<OpenFile>, std::shared_ptr<OpenFile>>
Kernel::make_socketpair(Process& p) {
  auto a = make_socket(p, /*unix_domain=*/true);
  auto b = make_socket(p, /*unix_domain=*/true);
  auto& va = static_cast<TcpVNode&>(*a->vnode);
  auto& vb = static_cast<TcpVNode&>(*b->vnode);
  va.local.port = node(p.node()).alloc_ephemeral_port();
  vb.local.port = node(p.node()).alloc_ephemeral_port();
  va.remote = vb.local;
  vb.remote = va.local;
  va.peer = std::static_pointer_cast<TcpVNode>(b->vnode);
  vb.peer = std::static_pointer_cast<TcpVNode>(a->vnode);
  va.state = vb.state = TcpVNode::State::kEstablished;
  vb.is_acceptor = true;  // deterministic "acceptor" end for restart
  va.conn_id = ConnId{0xd317c0ffee000000ULL | static_cast<u64>(p.node()),
                      static_cast<u32>(p.pid()),
                      static_cast<u64>(loop_.now()), next_conn_seq_++};
  vb.conn_id = va.conn_id;
  return {std::move(a), std::move(b)};
}

void Kernel::pump_socket(std::shared_ptr<TcpVNode> s) {
  if (s->state != TcpVNode::State::kEstablished && !s->lingering) return;
  auto peer = s->peer.lock();
  if (!peer) return;
  bool moved = false;
  while (!s->send_q.empty()) {
    const u64 n = s->send_q.front().remaining();
    const u64 used = peer->recv_q_bytes + s->in_flight;
    if (used > 0 && used + n > params::kSockRecvBuf) break;
    auto seg = std::make_shared<SockSegment>(std::move(s->send_q.front()));
    s->send_q.pop_front();
    s->send_q_bytes -= n;
    s->in_flight += n;
    net_.transfer(s->local.node, peer->local.node, std::max<u64>(n, 1),
                  [this, s, peer, n, seg] {
                    s->in_flight -= n;
                    if (peer->state == TcpVNode::State::kClosed) return;
                    peer->recv_q.push_back(std::move(*seg));
                    peer->recv_q_bytes += n;
                    peer->readable.wake_all();
                    pump_socket(s);
                  });
    moved = true;
  }
  if (moved) s->writable.wake_all();
}

void Kernel::on_socket_close(TcpVNode& s) {
  if (s.state == TcpVNode::State::kListening) {
    listeners_.erase(s.local);
  } else if (s.state == TcpVNode::State::kEstablished) {
    // TCP semantics: buffered and in-flight bytes are delivered before the
    // peer observes the FIN. Linger until the pipeline drains.
    s.state = TcpVNode::State::kClosed;
    s.lingering = true;
    linger_poll(s.shared_from_this());
  } else {
    s.state = TcpVNode::State::kClosed;
  }
  s.readable.wake_all();
  s.writable.wake_all();
  s.acceptable.wake_all();
  s.accept_q.clear();
}

void Kernel::linger_poll(std::shared_ptr<TcpVNode> s) {
  if (!s->lingering) return;
  if (s->send_q.empty() && s->in_flight == 0) {
    s->lingering = false;
    if (auto p = s->peer.lock()) {
      p->peer_closed = true;
      p->readable.wake_all();
    }
    return;
  }
  pump_socket(s);
  loop_.post_in(20 * timeconst::kMicrosecond,
                [this, s] { linger_poll(std::move(s)); });
}

// --- pipes / ptys ------------------------------------------------------------

std::pair<std::shared_ptr<OpenFile>, std::shared_ptr<OpenFile>>
Kernel::make_pipe(Process& p) {
  (void)p;
  auto buf = std::make_shared<PipeBuf>();
  auto rd = std::make_shared<OpenFile>();
  rd->vnode = std::make_shared<PipeVNode>(VKind::kPipeRead, buf);
  rd->description_id = next_description_id();
  auto wr = std::make_shared<OpenFile>();
  wr->vnode = std::make_shared<PipeVNode>(VKind::kPipeWrite, buf);
  wr->description_id = next_description_id();
  return {std::move(rd), std::move(wr)};
}

std::pair<std::shared_ptr<OpenFile>, std::shared_ptr<OpenFile>>
Kernel::make_pty(Process& p, i32 id) {
  Node& n = node(p.node());
  if (id < 0) {
    id = n.alloc_pty_id();
  } else {
    n.reserve_pty_id(id);
  }
  auto pair = std::make_shared<PtyPair>();
  pair->id = id;
  pair->slave_name = "/dev/pts/" + std::to_string(pair->id);
  auto master = std::make_shared<OpenFile>();
  master->vnode = std::make_shared<PtyVNode>(VKind::kPtyMaster, pair);
  master->description_id = next_description_id();
  auto slave = std::make_shared<OpenFile>();
  slave->vnode = std::make_shared<PtyVNode>(VKind::kPtySlave, pair);
  slave->description_id = next_description_id();
  return {std::move(master), std::move(slave)};
}

Task<u64> Kernel::pipe_read(Thread& t, PipeVNode& v, std::span<std::byte> out) {
  PipeBuf& b = v.buf();
  while (b.data.empty()) {
    if (b.writer_closed) co_return 0;
    co_await b.readable.wait(t);
  }
  const u64 n = std::min<u64>(out.size(), b.data.size());
  for (u64 i = 0; i < n; ++i) {
    out[i] = b.data.front();
    b.data.pop_front();
  }
  b.writable.wake_all();
  co_return n;
}

Task<u64> Kernel::pipe_write(Thread& t, PipeVNode& v,
                             std::span<const std::byte> bytes) {
  PipeBuf& b = v.buf();
  while (b.data.size() >= b.capacity) {
    if (b.reader_closed) co_return 0;  // EPIPE
    co_await b.writable.wait(t);
  }
  if (b.reader_closed) co_return 0;
  const u64 n = std::min<u64>(bytes.size(), b.capacity - b.data.size());
  for (u64 i = 0; i < n; ++i) b.data.push_back(bytes[i]);
  b.readable.wake_all();
  co_return n;
}

Task<u64> Kernel::pty_read(Thread& t, PtyVNode& v, std::span<std::byte> out) {
  PtyPair& p = v.pair();
  const bool master = v.kind() == VKind::kPtyMaster;
  auto& q = master ? p.to_master : p.to_slave;
  auto& wq = master ? p.master_readable : p.slave_readable;
  const bool& other_closed = master ? p.slave_closed : p.master_closed;
  while (q.empty()) {
    if (other_closed) co_return 0;
    co_await wq.wait(t);
  }
  const u64 n = std::min<u64>(out.size(), q.size());
  for (u64 i = 0; i < n; ++i) {
    out[i] = q.front();
    q.pop_front();
  }
  co_return n;
}

Task<u64> Kernel::pty_write(Thread& t, PtyVNode& v,
                            std::span<const std::byte> bytes) {
  (void)t;
  PtyPair& p = v.pair();
  const bool master = v.kind() == VKind::kPtyMaster;
  if ((master && p.slave_closed) || (!master && p.master_closed)) co_return 0;
  auto& q = master ? p.to_slave : p.to_master;
  for (std::byte b : bytes) q.push_back(b);
  (master ? p.slave_readable : p.master_readable).wake_all();
  co_return bytes.size();
}

// --- files --------------------------------------------------------------------

FileSystem& Kernel::fs_for(NodeId node_id, const std::string& path) {
  if (path.rfind("/shared", 0) == 0) return shared_fs_;
  return node(node_id).fs();
}

StorageBackend Kernel::backend_for(const std::string& path) const {
  return path.rfind("/shared", 0) == 0 ? StorageBackend::kShared
                                       : StorageBackend::kLocalDisk;
}

StorageDevice& Kernel::shared_device_for(NodeId node_id) {
  return node(node_id).has_fc() ? san_dev_ : nfs_dev_;
}

std::shared_ptr<OpenFile> Kernel::open_file(Process& p,
                                            const std::string& path,
                                            OpenFlags flags) {
  FileSystem& fs = fs_for(p.node(), path);
  std::shared_ptr<Inode> inode =
      flags.create ? fs.create(path) : fs.lookup(path);
  if (!inode) return nullptr;
  if (flags.truncate) inode->data.resize(0);
  auto of = std::make_shared<OpenFile>();
  of->vnode = std::make_shared<FileVNode>(path, inode);
  of->offset = flags.append ? inode->data.size() : 0;
  of->description_id = next_description_id();
  return of;
}

Task<void> Kernel::charge_storage(Thread& t, NodeId node_id,
                                  const std::string& path, u64 bytes,
                                  bool is_read) {
  auto sp = std::make_shared<SyncPoint>();
  charge_storage_bg(node_id, path, bytes, is_read, [sp] { sp->complete(); });
  while (!sp->done) co_await sp->wq.wait(t);
}

void Kernel::charge_storage_bg(NodeId node_id, const std::string& path,
                               u64 bytes, bool is_read,
                               std::function<void()> done) {
  if (backend_for(path) == StorageBackend::kLocalDisk) {
    auto& st = node(node_id).storage();
    if (is_read) {
      st.read(bytes, std::move(done));
    } else {
      st.write(bytes, std::move(done));
    }
  } else {
    shared_device_for(node_id).submit(bytes, std::move(done), is_read);
  }
}

Task<void> Kernel::sync_storage(Thread& t, NodeId node_id,
                                const std::string& path) {
  auto sp = std::make_shared<SyncPoint>();
  sync_storage_bg(node_id, path, [sp] { sp->complete(); });
  while (!sp->done) co_await sp->wq.wait(t);
}

void Kernel::sync_storage_bg(NodeId node_id, const std::string& path,
                             std::function<void()> done) {
  if (backend_for(path) == StorageBackend::kLocalDisk) {
    node(node_id).storage().sync(std::move(done));
  } else {
    shared_device_for(node_id).submit(1, std::move(done));
  }
}

void Kernel::discard_storage(NodeId node_id, const std::string& path,
                             u64 bytes) {
  if (backend_for(path) == StorageBackend::kLocalDisk) {
    node(node_id).storage().discard(bytes);
  } else {
    shared_device_for(node_id).discard(bytes);
  }
}

Task<u64> Kernel::file_read(Thread& t, OpenFile& of, std::span<std::byte> out) {
  auto& fv = static_cast<FileVNode&>(*of.vnode);
  Inode& inode = fv.inode();
  const u64 size = inode.data.size();
  if (of.offset >= size) co_return 0;
  const u64 n = std::min<u64>(out.size(), size - of.offset);
  co_await charge_storage(t, t.process().node(), fv.path(), n,
                          /*is_read=*/true);
  inode.data.read(of.offset, out.first(n));
  of.offset += n;
  co_return n;
}

Task<u64> Kernel::file_write(Thread& t, OpenFile& of,
                             std::span<const std::byte> bytes) {
  auto& fv = static_cast<FileVNode&>(*of.vnode);
  co_await charge_storage(t, t.process().node(), fv.path(), bytes.size(),
                          /*is_read=*/false);
  // Mutate content only after the device time has elapsed, so concurrent
  // observers never see a half-written file.
  Inode& inode = fv.inode();
  const u64 end = of.offset + bytes.size();
  if (end > inode.data.size()) inode.data.resize(end);
  inode.data.write(of.offset, bytes);
  inode.version++;
  of.offset = end;
  co_return bytes.size();
}

void Kernel::close_fd(Process& p, Fd fd) {
  auto of = p.fds().remove(fd);
  if (of) release_description(std::move(of));
}

void Kernel::release_description(std::shared_ptr<OpenFile> of) {
  if (!of) return;
  if (of.use_count() > 1) return;  // still open elsewhere (dup/fork share)
  // This was the last descriptor-table reference: run close semantics now.
  // The vnode itself may be kept alive a little longer by in-flight network
  // delivery closures — those are transient and must not defer the FIN.
  auto vn = of->vnode;
  of.reset();
  if (vn) vn->on_last_close();
}

// --- shared memory ------------------------------------------------------------

std::shared_ptr<MemSegment> Kernel::mmap_shared(Process& p,
                                                const std::string& path,
                                                u64 size) {
  FileSystem& fs = fs_for(p.node(), path);
  auto inode = fs.create(path);
  if (inode->data.size() < size) inode->data.resize(size);
  // One live MemSegment per backing file: processes mapping the same file
  // share the same bytes (real mmap MAP_SHARED semantics).
  const std::string key = fs.name() + path;
  auto it = shm_live_.find(key);
  if (it != shm_live_.end()) {
    if (auto seg = it->second.lock()) return seg;
  }
  auto seg = std::make_shared<MemSegment>();
  seg->id = 0;
  seg->name = "shm:" + path;
  seg->kind = MemKind::kShm;
  seg->shared = true;
  seg->backing_path = path;
  seg->data = inode->data;  // COW copy of current file content
  shm_live_[key] = seg;
  return seg;
}

}  // namespace dsim::sim
