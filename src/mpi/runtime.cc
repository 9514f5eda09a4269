#include "mpi/runtime.h"

#include <sstream>

#include "apps/app_util.h"
#include "core/dmtcpaware.h"
#include "mpi/mpi.h"
#include "sim/pctx.h"
#include "util/assertx.h"

namespace dsim::mpi {
namespace {

using apps::argi;
using apps::args;
using apps::buffer;
using apps::StateView;
using sim::MemRef;
using sim::Task;

// Fixed-size control frame (restart-safe exact-length transfers).
constexpr u64 kFrame = 256;
constexpr u32 kOpSpawn = 1;
constexpr u32 kOpWaitAll = 2;
constexpr u32 kOpPing = 3;
constexpr u32 kOpReply = 100;
// 4-byte connection-role hello sent after connecting to an mpd.
constexpr i32 kHelloRing = 0x52494e47;  // "RING"
constexpr i32 kHelloCtl = 0x43544c30;   // "CTL0"


struct Frame {
  u32 op = 0;
  u32 n = 0;
  char payload[kFrame - 8] = {};
};
static_assert(sizeof(Frame) == kFrame);

Frame make_frame(u32 op, u32 n, const std::string& payload) {
  Frame f;
  f.op = op;
  f.n = n;
  DSIM_CHECK(payload.size() < sizeof(f.payload));
  std::memcpy(f.payload, payload.data(), payload.size());
  return f;
}

std::vector<std::string> split_words(const std::string& s) {
  std::istringstream in(s);
  std::vector<std::string> out;
  std::string w;
  while (in >> w) out.push_back(w);
  return out;
}

std::string join_words(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& w : v) {
    if (!out.empty()) out += ' ';
    out += w;
  }
  return out;
}

// ---------------------------------------------------------------------------
// The control protocol both launchers speak, written once and templated over
// each program's stored state (whose layout is part of every image).
// ---------------------------------------------------------------------------

/// Daemon side (mpd, orted): serve spawn / wait-all / ping frames on `s.ctl`
/// until the client hangs up. Each step is recorded in the stored state, so
/// a restored daemon resumes the frame it was serving.
template <class State>
Task<void> serve_control(sim::ProcessCtx& ctx, StateView<State>& st, State& s,
                         MemRef frame) {
  while (true) {
    if (s.ctl_stage == 0) {
      if (!co_await ctx.read_exact_or_eof(s.ctl, frame, kFrame, 0)) co_return;
      s.ctl_stage = 1;
      st.set(s);
    }
    Frame f = ctx.load<Frame>(frame);
    switch (f.op) {
      case kOpSpawn: {
        // Delay checkpoints across the fork so the coordinator's client set
        // stays stable (dmtcpaware critical section, §3.1).
        core::DmtcpDelayGuard guard(ctx);
        auto argv = split_words(
            std::string(f.payload, strnlen(f.payload, sizeof f.payload)));
        DSIM_CHECK(!argv.empty());
        const std::string prog = argv.front();
        argv.erase(argv.begin());
        const Pid kid = co_await ctx.spawn(prog, std::move(argv));
        s.kids[s.nkids++] = kid;
        st.set(s);
        ctx.store(frame, make_frame(kOpReply, static_cast<u32>(kid), ""));
        break;
      }
      case kOpWaitAll: {
        while (s.nwaited < s.nkids) {
          co_await ctx.waitpid(s.kids[s.nwaited]);
          s.nwaited++;
          st.set(s);
        }
        ctx.store(frame, make_frame(kOpReply, 0, "alldone"));
        break;
      }
      case kOpPing: {
        ctx.store(frame, make_frame(kOpReply, 0, "pong"));
        break;
      }
      default:
        DSIM_UNREACHABLE("mpi daemon: bad control op");
    }
    co_await ctx.write_exact_or_eof(s.ctl, frame, kFrame, 1);
    s.ctl_stage = 0;
    st.set(s);
  }
}

/// mpirun side: spawn the ranks round-robin (rank r on node r % nnodes)
/// through each node's daemon, then wait for every daemon's ranks to exit.
template <class State>
Task<void> spawn_ranks_and_wait(sim::ProcessCtx& ctx, StateView<State>& st,
                                State& s, MemRef frame, int np, int nnodes) {
  const std::string prog = args(ctx, 2, "");
  const auto& argv = ctx.process().argv();
  while (s.nspawned < np) {
    const int r = s.nspawned;
    std::vector<std::string> rank_argv{prog};
    for (size_t i = 3; i < argv.size(); ++i) rank_argv.push_back(argv[i]);
    rank_argv.push_back(std::to_string(r));
    rank_argv.push_back(std::to_string(np));
    rank_argv.push_back(std::to_string(nnodes));
    if (s.stage == 0) {
      ctx.store(frame, make_frame(kOpSpawn, 0, join_words(rank_argv)));
      co_await ctx.write_exact(s.ctl[r % nnodes], frame, kFrame, 0);
      s.stage = 1;
      st.set(s);
    }
    co_await ctx.read_exact(s.ctl[r % nnodes], frame, kFrame, 1);
    s.stage = 0;
    s.nspawned++;
    st.set(s);
  }
  while (s.nwait_sent < nnodes) {
    if (s.stage == 0) {
      ctx.store(frame, make_frame(kOpWaitAll, 0, ""));
      co_await ctx.write_exact(s.ctl[s.nwait_sent], frame, kFrame, 0);
      s.stage = 1;
      st.set(s);
    }
    co_await ctx.read_exact(s.ctl[s.nwait_sent], frame, kFrame, 1);
    s.stage = 0;
    s.nwait_sent++;
    st.set(s);
  }
}

// ---------------------------------------------------------------------------
// mpd <index> <nnodes>
// ---------------------------------------------------------------------------

struct MpdState {
  i32 lfd = kNoFd;
  i32 ring_next = kNoFd;  // to (idx+1)%n
  i32 ring_prev = kNoFd;  // from (idx-1+n)%n
  i32 ctl = kNoFd;        // control connection (mpirun / mpdboot)
  i32 pend = kNoFd;       // accepted, awaiting role hello
  i32 kids[kMaxRanks / 2] = {};
  i32 nkids = 0;
  i32 nwaited = 0;
  u8 keepalive_up = 0;
  u8 ctl_stage = 0;
  u8 pad_[2] = {};  // explicit: stored state must have no padding bits
};

Task<void> mpd_keepalive(sim::ProcessCtx& ctx, u32 role) {
  (void)role;
  // Circulate an 8-byte token around the mpd ring forever; this keeps real
  // bytes in kernel buffers and on the wire at checkpoint time.
  StateView<MpdState> st(ctx, "state");
  MemRef tok = buffer(ctx, "katok", 8);
  const bool initiator = ctx.process().argv().size() > 0 &&
                         std::stoi(ctx.process().argv()[0]) == 0;
  while (true) {
    const MpdState s = st.get();
    if (s.ring_next == kNoFd || s.ring_prev == kNoFd) {
      co_await ctx.sleep(2 * timeconst::kMillisecond);
      continue;
    }
    if (initiator) {
      if (ctx.phase() == 0) {
        co_await ctx.write_exact(s.ring_next, tok, 8, 2);
        ctx.phase() = 1;
      }
      co_await ctx.read_exact(s.ring_prev, tok, 8, 3);
      ctx.phase() = 0;
      co_await ctx.sleep(5 * timeconst::kMillisecond);
    } else {
      if (ctx.phase() == 0) {
        co_await ctx.read_exact(s.ring_prev, tok, 8, 2);
        ctx.phase() = 1;
      }
      co_await ctx.write_exact(s.ring_next, tok, 8, 3);
      ctx.phase() = 0;
    }
  }
}

Task<int> mpd_main(sim::ProcessCtx& ctx) {
  const int idx = static_cast<int>(argi(ctx, 0, 0));
  const int n = static_cast<int>(argi(ctx, 1, 1));
  StateView<MpdState> st(ctx);
  MemRef frame = buffer(ctx, "frame", kFrame);
  MpdState s = st.get();

  if (ctx.phase() == 0) {
    const Fd lfd = co_await ctx.socket();
    const bool ok =
        co_await ctx.bind(lfd, static_cast<u16>(kMpdPortBase + idx));
    DSIM_CHECK_MSG(ok, "mpd: port taken");
    co_await ctx.listen(lfd);
    s.lfd = lfd;
    st.set(s);
    ctx.phase() = 1;
  }
  MemRef hello = buffer(ctx, "hello", 4);
  if (ctx.phase() == 1 && n > 1) {
    // Ring: connect to the next daemon and identify as its ring peer.
    if (s.ring_next == kNoFd) {
      const Fd fd = co_await ctx.socket();
      s.ring_next = fd;
      st.set(s);
    }
    if (sim::TcpVNode* v = ctx.fd_tcp(s.ring_next);
        v && v->state == sim::TcpVNode::State::kRaw) {
      const int next = (idx + 1) % n;
      const sim::SockAddr addr{static_cast<NodeId>(next),
                               static_cast<u16>(kMpdPortBase + next)};
      while (!co_await ctx.connect(s.ring_next, addr)) {
        co_await ctx.sleep(2 * timeconst::kMillisecond);
      }
    }
    ctx.store<i32>(hello, kHelloRing);
    co_await ctx.write_exact(s.ring_next, hello, 4, 4);
    ctx.phase() = 3;
  } else if (ctx.phase() == 1) {
    ctx.phase() = 3;  // single-node ring degenerates
  }
  // Accept loop: classify each incoming connection by its role hello, then
  // serve control connections (one at a time) or install the ring peer.
  while (true) {
    if (ctx.phase() == 3) {
      if (s.pend == kNoFd) {
        const Fd fd = co_await ctx.accept(s.lfd);
        DSIM_CHECK(fd != kNoFd);
        s.pend = fd;
        st.set(s);
      }
      co_await ctx.read_exact(s.pend, hello, 4, 5);
      const i32 role = ctx.load<i32>(hello);
      if (role == kHelloRing) {
        s.ring_prev = s.pend;
        s.pend = kNoFd;
        st.set(s);
        if (!s.keepalive_up) {
          ctx.spawn_thread(/*keepalive role=*/1);
          s.keepalive_up = 1;
          st.set(s);
        }
        continue;  // keep accepting
      }
      DSIM_CHECK(role == kHelloCtl);
      s.ctl = s.pend;
      s.pend = kNoFd;
      st.set(s);
      ctx.phase() = 4;
    }
    // Serve the control connection until its client exits, then the next.
    co_await serve_control(ctx, st, s, frame);
    co_await ctx.close(s.ctl);
    s.ctl = kNoFd;
    st.set(s);
    ctx.phase() = 3;
  }
}

// ---------------------------------------------------------------------------
// mpdboot <nnodes>
// ---------------------------------------------------------------------------

struct BootState {
  i32 spawned = 0;
  i32 probe_fd = kNoFd;
  u8 probe_stage = 0;
  u8 pad_[3] = {};  // explicit: stored state must have no padding bits
};

Task<int> mpdboot_main(sim::ProcessCtx& ctx) {
  const int n = static_cast<int>(argi(ctx, 0, 1));
  StateView<BootState> st(ctx);
  MemRef frame = buffer(ctx, "frame", kFrame);
  BootState s = st.get();
  // Spawn one mpd per node via ssh — the wrapper rewrites the remote spawn
  // so the daemons also run under DMTCP (§3).
  while (s.spawned < n) {
    std::vector<std::string> argv{std::to_string(s.spawned),
                                  std::to_string(n)};
    co_await ctx.ssh(static_cast<NodeId>(s.spawned), "mpd", std::move(argv));
    s.spawned++;
    st.set(s);
  }
  // Probe the ring: ping mpd 0 until it responds.
  if (s.probe_stage == 0) {
    const Fd fd = co_await ctx.socket();
    s.probe_fd = fd;
    st.set(s);
    s.probe_stage = 1;
    st.set(s);
  }
  if (s.probe_stage == 1) {
    if (sim::TcpVNode* v = ctx.fd_tcp(s.probe_fd);
        v && v->state == sim::TcpVNode::State::kRaw) {
      while (!co_await ctx.connect(s.probe_fd,
                                   sim::SockAddr{0, kMpdPortBase})) {
        co_await ctx.sleep(2 * timeconst::kMillisecond);
      }
    }
    {
      MemRef hello = buffer(ctx, "hello", 4);
      ctx.store<i32>(hello, kHelloCtl);
      co_await ctx.write_exact(s.probe_fd, hello, 4, 2);
    }
    ctx.store(frame, make_frame(kOpPing, 0, ""));
    co_await ctx.write_exact(s.probe_fd, frame, kFrame, 0);
    s.probe_stage = 2;
    st.set(s);
  }
  co_await ctx.read_exact(s.probe_fd, frame, kFrame, 1);
  co_return 0;
}

// ---------------------------------------------------------------------------
// mpd_mpirun <np> <nnodes> <prog> <appargs...>  (connects to mpds)
// ---------------------------------------------------------------------------

struct MpirunState {
  i32 ctl[64] = {};   // control fd per node
  i32 nconn = 0;
  i32 nspawned = 0;
  i32 nwait_sent = 0;
  i32 nwait_done = 0;
  u8 stage = 0;
  u8 pad_[3] = {};  // explicit: stored state must have no padding bits
};

Task<int> mpd_mpirun_main(sim::ProcessCtx& ctx) {
  const int np = static_cast<int>(argi(ctx, 0, 1));
  const int nnodes = static_cast<int>(argi(ctx, 1, 1));
  DSIM_CHECK(nnodes <= 64);
  StateView<MpirunState> st(ctx);
  MemRef frame = buffer(ctx, "frame", kFrame);
  MpirunState s = st.get();

  // Connect to every node's mpd and identify as a control client.
  MemRef hello = buffer(ctx, "hello", 4);
  while (s.nconn < nnodes) {
    const Fd fd = co_await ctx.socket();
    while (!co_await ctx.connect(
        fd, sim::SockAddr{static_cast<NodeId>(s.nconn),
                          static_cast<u16>(kMpdPortBase + s.nconn)})) {
      co_await ctx.sleep(2 * timeconst::kMillisecond);
    }
    ctx.store<i32>(hello, kHelloCtl);
    co_await ctx.write_exact(fd, hello, 4, 2);
    s.ctl[s.nconn] = fd;
    s.nconn++;
    st.set(s);
  }
  co_await spawn_ranks_and_wait(ctx, st, s, frame, np, nnodes);
  co_return 0;
}

// ---------------------------------------------------------------------------
// OpenMPI-like: orte_mpirun spawns orteds (children!) which call back.
// orted <index> <mpirun_node>
// orte_mpirun <np> <nnodes> <prog> <appargs...>
// ---------------------------------------------------------------------------

struct OrtedState {
  i32 ctl = kNoFd;
  i32 kids[kMaxRanks / 2] = {};
  i32 nkids = 0;
  i32 nwaited = 0;
  u8 ctl_stage = 0;
  u8 pad_[3] = {};  // explicit: stored state must have no padding bits
};

Task<int> orted_main(sim::ProcessCtx& ctx) {
  const NodeId back = static_cast<NodeId>(argi(ctx, 1, 0));
  StateView<OrtedState> st(ctx);
  MemRef frame = buffer(ctx, "frame", kFrame);
  OrtedState s = st.get();
  if (ctx.phase() == 0) {
    const Fd fd = co_await ctx.socket();
    s.ctl = fd;
    st.set(s);
    ctx.phase() = 1;
  }
  if (ctx.phase() == 1) {
    if (sim::TcpVNode* v = ctx.fd_tcp(s.ctl);
        v && v->state == sim::TcpVNode::State::kRaw) {
      while (!co_await ctx.connect(s.ctl, sim::SockAddr{back, kOrtePort})) {
        co_await ctx.sleep(2 * timeconst::kMillisecond);
      }
    }
    ctx.phase() = 2;
  }
  co_await serve_control(ctx, st, s, frame);
  co_return 0;  // mpirun exited; orted's job is done
}

struct OrteRunState {
  i32 lfd = kNoFd;
  i32 ctl[64] = {};  // by node index (identified at callback)
  i32 nspawned_daemons = 0;
  i32 naccepted = 0;
  i32 nspawned = 0;
  i32 nwait_sent = 0;
  u8 stage = 0;
  u8 pad_[3] = {};  // explicit: stored state must have no padding bits
};

Task<int> orte_mpirun_main(sim::ProcessCtx& ctx) {
  const int np = static_cast<int>(argi(ctx, 0, 1));
  const int nnodes = static_cast<int>(argi(ctx, 1, 1));
  DSIM_CHECK(nnodes <= 64);
  StateView<OrteRunState> st(ctx);
  MemRef frame = buffer(ctx, "frame", kFrame);
  OrteRunState s = st.get();

  if (ctx.phase() == 0) {
    const Fd lfd = co_await ctx.socket();
    const bool ok = co_await ctx.bind(lfd, kOrtePort);
    DSIM_CHECK(ok);
    co_await ctx.listen(lfd);
    s.lfd = lfd;
    st.set(s);
    ctx.phase() = 1;
  }
  // Spawn one orted per node (ssh; DMTCP-wrapped); they call back here.
  while (s.nspawned_daemons < nnodes) {
    std::vector<std::string> argv{
        std::to_string(s.nspawned_daemons),
        std::to_string(ctx.process().node())};
    co_await ctx.ssh(static_cast<NodeId>(s.nspawned_daemons), "orted",
                     std::move(argv));
    s.nspawned_daemons++;
    st.set(s);
  }
  while (s.naccepted < nnodes) {
    const Fd fd = co_await ctx.accept(s.lfd);
    DSIM_CHECK(fd != kNoFd);
    // Identify the daemon by its source node.
    sim::TcpVNode* v = ctx.fd_tcp(fd);
    s.ctl[v->remote.node] = fd;
    s.naccepted++;
    st.set(s);
  }
  co_await spawn_ranks_and_wait(ctx, st, s, frame, np, nnodes);
  co_return 0;
}

}  // namespace

std::vector<std::string> mpirun_argv(int np, int nnodes,
                                     const std::string& prog,
                                     std::vector<std::string> app_args) {
  std::vector<std::string> argv{std::to_string(np), std::to_string(nnodes),
                                prog};
  for (auto& a : app_args) argv.push_back(std::move(a));
  return argv;
}

void register_runtime_programs(sim::Kernel& k) {
  {
    sim::Program p;
    p.name = "mpd";
    p.main = mpd_main;
    p.worker = mpd_keepalive;
    k.programs().add(std::move(p));
  }
  auto add = [&](const char* name, auto fn) {
    sim::Program p;
    p.name = name;
    p.main = fn;
    k.programs().add(std::move(p));
  };
  add("mpdboot", mpdboot_main);
  add("mpd_mpirun", mpd_mpirun_main);
  add("orted", orted_main);
  add("orte_mpirun", orte_mpirun_main);
}

}  // namespace dsim::mpi
