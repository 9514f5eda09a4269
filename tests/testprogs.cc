#include "tests/testprogs.h"

#include "apps/app_util.h"
#include "util/crc32.h"

namespace dsim::test {
namespace {

using apps::argi;
using apps::args;
using apps::buffer;
using apps::StateView;
using sim::MemRef;
using sim::Task;

// ---------------------------------------------------------------------------
// pp_server <port> <rounds> <msglen> <result-name>
// Echo server: accepts one client, echoes `rounds` messages, records a CRC.
// ---------------------------------------------------------------------------

struct PPSrvState {
  i32 lfd = kNoFd;
  i32 cfd = kNoFd;
  u64 i = 0;
  u32 crc = 0;
  u8 received = 0;
  u8 pad_[3] = {};  // explicit: stored state must have no padding bits
};

Task<int> pp_server_main(sim::ProcessCtx& ctx) {
  const u16 port = static_cast<u16>(argi(ctx, 0, 9000));
  const u64 rounds = static_cast<u64>(argi(ctx, 1, 10));
  const u64 msglen = static_cast<u64>(argi(ctx, 2, 1024));
  const std::string result = args(ctx, 3, "pp_server");

  StateView<PPSrvState> st(ctx);
  MemRef buf = buffer(ctx, "buf", msglen);
  std::vector<std::byte> host(msglen);

  PPSrvState s = st.get();
  while (true) {
    switch (ctx.phase()) {
      case 0: {
        const Fd lfd = co_await ctx.socket();
        const bool ok = co_await ctx.bind(lfd, port);
        DSIM_CHECK(ok);
        co_await ctx.listen(lfd);
        s.lfd = lfd;
        st.set(s);
        ctx.phase() = 1;
        break;
      }
      case 1: {
        const Fd cfd = co_await ctx.accept(s.lfd);
        DSIM_CHECK(cfd != kNoFd);
        s.cfd = cfd;
        st.set(s);
        ctx.phase() = 2;
        break;
      }
      case 2: {
        while (s.i < rounds) {
          if (!s.received) {
            co_await ctx.read_exact(s.cfd, buf, msglen, 0);
            buf.seg->data.read(buf.off, host);
            s.crc = crc32_update(s.crc, host);
            s.received = 1;
            st.set(s);
          }
          co_await ctx.write_exact(s.cfd, buf, msglen, 1);
          s.received = 0;
          s.i++;
          st.set(s);
        }
        ctx.phase() = 3;
        break;
      }
      case 3: {
        char out[64];
        std::snprintf(out, sizeof out, "crc=%08x rounds=%llu", s.crc,
                      static_cast<unsigned long long>(s.i));
        co_await apps::write_result(ctx, result, out);
        ctx.phase() = 4;
        break;
      }
      case 4:
        co_return 0;
    }
  }
}

// ---------------------------------------------------------------------------
// pp_client <server-node> <port> <rounds> <msglen> <seed> <result-name>
// Sends deterministic messages; verifies the echo; records a CRC.
// ---------------------------------------------------------------------------

struct PPCliState {
  u64 i = 0;
  i32 fd = kNoFd;
  u32 crc = 0;
  u8 stage = 0;  // 0 = sending (buffer filled deterministically), 1 = reading
  u8 pad_[7] = {};  // explicit: stored state must have no padding bits
};

Task<int> pp_client_main(sim::ProcessCtx& ctx) {
  const NodeId srv_node = static_cast<NodeId>(argi(ctx, 0, 0));
  const u16 port = static_cast<u16>(argi(ctx, 1, 9000));
  const u64 rounds = static_cast<u64>(argi(ctx, 2, 10));
  const u64 msglen = static_cast<u64>(argi(ctx, 3, 1024));
  const u64 seed = static_cast<u64>(argi(ctx, 4, 42));
  const std::string result = args(ctx, 5, "pp_client");

  StateView<PPCliState> st(ctx);
  MemRef out = buffer(ctx, "out", msglen);
  MemRef in = buffer(ctx, "in", msglen);
  std::vector<std::byte> host(msglen);

  PPCliState s = st.get();
  while (true) {
    switch (ctx.phase()) {
      case 0: {
        const Fd fd = co_await ctx.socket();
        while (!co_await ctx.connect(fd, sim::SockAddr{srv_node, port})) {
          co_await ctx.sleep(2 * timeconst::kMillisecond);
        }
        s.fd = fd;
        st.set(s);
        ctx.phase() = 1;
        break;
      }
      case 1: {
        while (s.i < rounds) {
          if (s.stage == 0) {
            // Deterministic fill: harmless to redo if restarted mid-send.
            for (u64 j = 0; j < msglen; ++j) {
              host[j] =
                  static_cast<std::byte>(apps::payload_byte(seed, s.i, j));
            }
            out.seg->data.write(out.off, host);
            co_await ctx.write_exact(s.fd, out, msglen, 0);
            s.stage = 1;  // send complete — recorded before the next await
            st.set(s);
          }
          co_await ctx.read_exact(s.fd, in, msglen, 1);
          // Verify the echo matches what we sent.
          in.seg->data.read(in.off, host);
          for (u64 j = 0; j < msglen; ++j) {
            if (static_cast<u8>(host[j]) != apps::payload_byte(seed, s.i, j)) {
              std::fprintf(stderr,
                           "pp_client mismatch: round=%llu byte=%llu got=%02x "
                           "want=%02x\n",
                           (unsigned long long)s.i, (unsigned long long)j,
                           static_cast<u8>(host[j]),
                           apps::payload_byte(seed, s.i, j));
              std::fprintf(stderr, "got : ");
              for (u64 x = j; x < std::min<u64>(j + 12, msglen); ++x)
                std::fprintf(stderr, "%02x ", static_cast<u8>(host[x]));
              std::fprintf(stderr, "\n");
              for (u64 cand = (s.i > 2 ? s.i - 2 : 0); cand <= s.i + 2;
                   ++cand) {
                std::fprintf(stderr, "r%llu : ", (unsigned long long)cand);
                for (u64 x = j; x < std::min<u64>(j + 12, msglen); ++x)
                  std::fprintf(stderr, "%02x ",
                               apps::payload_byte(seed, cand, x));
                std::fprintf(stderr, "\n");
              }
              DSIM_CHECK_MSG(false, "echoed bytes corrupted");
            }
          }
          s.crc = crc32_update(s.crc, host);
          s.stage = 0;
          s.i++;
          st.set(s);
        }
        ctx.phase() = 2;
        break;
      }
      case 2: {
        char outb[64];
        std::snprintf(outb, sizeof outb, "crc=%08x rounds=%llu", s.crc,
                      static_cast<unsigned long long>(s.i));
        co_await apps::write_result(ctx, result, outb);
        ctx.phase() = 3;
        break;
      }
      case 3:
        co_return 0;
    }
  }
}

// ---------------------------------------------------------------------------
// compute_loop <iters> <us-per-iter> <result-name>
// Pure compute with resumable bursts; records a hash over iteration ids.
// ---------------------------------------------------------------------------

struct ComputeState {
  u64 i = 0;
  u64 acc = 0;
};

Task<int> compute_loop_main(sim::ProcessCtx& ctx) {
  const u64 iters = static_cast<u64>(argi(ctx, 0, 100));
  const double us = static_cast<double>(argi(ctx, 1, 500));
  const std::string result = args(ctx, 2, "compute_loop");

  StateView<ComputeState> st(ctx);
  ComputeState s = st.get();
  while (s.i < iters) {
    co_await ctx.cpu_chunked(us * 1e-6, 0);
    s.acc = mix_seed(s.acc, s.i);
    s.i++;
    st.set(s);
  }
  if (ctx.phase() == 0) {
    char out[64];
    std::snprintf(out, sizeof out, "acc=%016llx iters=%llu",
                  static_cast<unsigned long long>(s.acc),
                  static_cast<unsigned long long>(s.i));
    co_await apps::write_result(ctx, result, out);
    ctx.phase() = 1;
  }
  co_return 0;
}

// ---------------------------------------------------------------------------
// pipe_chain <nbytes> <result-name>   (parent)
// Creates a pipe (promoted to a socketpair under DMTCP), spawns a child
// that reads and CRCs everything, writes a deterministic stream, waits.
// ---------------------------------------------------------------------------

struct PipeParentState {
  u64 written = 0;
  i32 rfd = kNoFd;
  i32 wfd = kNoFd;
  i32 child = kNoPid;
  u8 spawned = 0;
  u8 closed = 0;
  u8 pad_[2] = {};  // explicit: stored state must have no padding bits
};

Task<int> pipe_chain_main(sim::ProcessCtx& ctx) {
  const u64 nbytes = static_cast<u64>(argi(ctx, 0, 64 * 1024));
  const std::string result = args(ctx, 1, "pipe_chain");

  StateView<PipeParentState> st(ctx);
  MemRef buf = buffer(ctx, "buf", 4096);
  PipeParentState s = st.get();

  while (true) {
    switch (ctx.phase()) {
      case 0: {
        auto [rfd, wfd] = co_await ctx.pipe();
        s.rfd = rfd;
        s.wfd = wfd;
        st.set(s);
        ctx.phase() = 1;
        break;
      }
      case 1: {
        if (!s.spawned) {
          std::vector<std::string> cargv{std::to_string(s.rfd),
                                         std::to_string(nbytes), result};
          const Pid child =
              co_await ctx.spawn("pipe_chain_child", std::move(cargv));
          s.child = child;
          s.spawned = 1;
          st.set(s);
        }
        // Parent's copy of the read end is closed so the child sees EOF.
        co_await ctx.close(s.rfd);
        ctx.phase() = 2;
        break;
      }
      case 2: {
        std::vector<std::byte> host(4096);
        while (s.written < nbytes) {
          const u64 n = std::min<u64>(host.size(), nbytes - s.written);
          for (u64 j = 0; j < n; ++j) {
            host[j] = static_cast<std::byte>(
                apps::payload_byte(7, s.written / 4096, j));
          }
          buf.seg->data.write(buf.off, std::span(host).first(n));
          co_await ctx.write_exact(s.wfd, buf, n, 0);
          s.written += n;
          st.set(s);
          // Pace the producer (realistic flow; keeps tests mid-run at
          // checkpoint time).
          co_await ctx.sleep(500 * timeconst::kMicrosecond);
        }
        if (!s.closed) {
          co_await ctx.close(s.wfd);
          s.closed = 1;
          st.set(s);
        }
        ctx.phase() = 3;
        break;
      }
      case 3: {
        co_await ctx.waitpid(s.child);
        ctx.phase() = 4;
        break;
      }
      case 4:
        co_return 0;
    }
  }
}

// pipe_chain_child <rfd> <nbytes> <result-name>
struct PipeChildState {
  u64 got = 0;
  u32 crc = 0;
  u8 pad_[4] = {};  // explicit: stored state must have no padding bits
};

Task<int> pipe_chain_child_main(sim::ProcessCtx& ctx) {
  const Fd rfd = static_cast<Fd>(argi(ctx, 0, kNoFd));
  const u64 nbytes = static_cast<u64>(argi(ctx, 1, 0));
  const std::string result = args(ctx, 2, "pipe_chain");

  StateView<PipeChildState> st(ctx);
  PipeChildState s = st.get();
  std::vector<std::byte> host(4096);
  while (ctx.phase() == 0) {
    if (s.got >= nbytes) {
      ctx.phase() = 1;
      break;
    }
    const i64 n = co_await ctx.read(rfd, host);
    DSIM_CHECK_MSG(n > 0, "pipe closed early");
    s.crc = crc32_update(s.crc,
                         std::span<const std::byte>(host).first(
                             static_cast<u64>(n)));
    s.got += static_cast<u64>(n);
    st.set(s);
  }
  if (ctx.phase() == 1) {
    char out[64];
    std::snprintf(out, sizeof out, "crc=%08x bytes=%llu", s.crc,
                  static_cast<unsigned long long>(s.got));
    co_await apps::write_result(ctx, result + ".child", out);
    ctx.phase() = 2;
  }
  co_return 0;
}

// ---------------------------------------------------------------------------
// shm_pair <path> <rounds> <result-name>  — parent maps shared memory,
// spawns a child mapping the same file; they alternate increments through a
// socketpair ping-pong. Exercises §4.5 shared-memory checkpoint rules.
// ---------------------------------------------------------------------------

struct ShmState {
  i32 sync_fd = kNoFd;
  i32 child = kNoPid;
  u64 i = 0;
  u8 spawned = 0;
  u8 stage = 0;  // 0 increment, 1 token sent, 2 awaiting reply
  u8 pad_[6] = {};  // explicit: stored state must have no padding bits
};

Task<int> shm_pair_main(sim::ProcessCtx& ctx) {
  const std::string path = args(ctx, 0, "/shared/shm/counters");
  const u64 rounds = static_cast<u64>(argi(ctx, 1, 16));
  const std::string result = args(ctx, 2, "shm_pair");

  StateView<ShmState> st(ctx);
  ShmState s = st.get();
  if (!ctx.seg("shm:" + path)) ctx.mmap_shared(path, 4096);
  sim::MemSegment* shm_seg = ctx.seg("shm:" + path);
  DSIM_CHECK(shm_seg != nullptr);
  MemRef counter{shm_seg, 0};
  MemRef token = buffer(ctx, "tok", 8);

  while (true) {
    switch (ctx.phase()) {
      case 0: {
        auto [a, b] = co_await ctx.socketpair();
        s.sync_fd = a;
        std::vector<std::string> cargv{path, std::to_string(b),
                                       std::to_string(rounds), result};
        const Pid child =
            co_await ctx.spawn("shm_pair_child", std::move(cargv));
        s.child = child;
        s.spawned = 1;
        st.set(s);
        // Close our copy of the child's end.
        co_await ctx.close(b);
        ctx.phase() = 1;
        break;
      }
      case 1: {
        while (s.i < rounds) {
          if (s.stage == 0) {
            // Parent increments, then passes the token (no awaits between
            // the increment and the stage transition).
            const u64 v = ctx.load<u64>(counter);
            ctx.store<u64>(counter, v + 1);
            ctx.store<u64>(token, s.i);
            s.stage = 1;
            st.set(s);
          }
          if (s.stage == 1) {
            co_await ctx.write_exact(s.sync_fd, token, 8, 0);
            s.stage = 2;
            st.set(s);
          }
          co_await ctx.read_exact(s.sync_fd, token, 8, 1);
          s.stage = 0;
          s.i++;
          st.set(s);
          co_await ctx.sleep(700 * timeconst::kMicrosecond);
        }
        ctx.phase() = 2;
        break;
      }
      case 2: {
        co_await ctx.waitpid(s.child);
        const u64 v = ctx.load<u64>(counter);
        char out[64];
        std::snprintf(out, sizeof out, "counter=%llu",
                      static_cast<unsigned long long>(v));
        co_await apps::write_result(ctx, result, out);
        ctx.phase() = 3;
        break;
      }
      case 3:
        co_return 0;
    }
  }
}

// shm_pair_child <path> <sync-fd> <rounds> <result-name>
struct ShmChildState {
  u64 i = 0;
  u8 stage = 0;  // 0 awaiting token, 1 incremented (replying)
  u8 pad_[7] = {};  // explicit: stored state must have no padding bits
};

Task<int> shm_pair_child_main(sim::ProcessCtx& ctx) {
  const std::string path = args(ctx, 0, "/shared/shm/counters");
  const Fd sync_fd = static_cast<Fd>(argi(ctx, 1, kNoFd));
  const u64 rounds = static_cast<u64>(argi(ctx, 2, 16));

  if (!ctx.seg("shm:" + path)) ctx.mmap_shared(path, 4096);
  sim::MemSegment* shm_seg = ctx.seg("shm:" + path);
  MemRef counter{shm_seg, 0};
  MemRef token = buffer(ctx, "tok", 8);
  StateView<ShmChildState> st(ctx);
  ShmChildState s = st.get();

  while (s.i < rounds) {
    if (s.stage == 0) {
      co_await ctx.read_exact(sync_fd, token, 8, 0);
      const u64 v = ctx.load<u64>(counter);
      ctx.store<u64>(counter, v + 1);
      s.stage = 1;
      st.set(s);
    }
    co_await ctx.write_exact(sync_fd, token, 8, 1);
    s.stage = 0;
    s.i++;
    st.set(s);
  }
  co_return 0;
}

// ---------------------------------------------------------------------------
// pty_shell <rounds> <result-name> — pty master/slave with termios changes;
// the child (same process, worker thread) uppercases what the master sends.
// The result names the pty (ptsname of the master) as well as the stream.
// ---------------------------------------------------------------------------

struct PtyState {
  i32 master = kNoFd;
  i32 slave = kNoFd;
  u64 i = 0;
  u32 crc = 0;
  u8 stage = 0;  // 0 sending, 1 reading the transformed echo
  u8 worker_started = 0;
  u8 pad_[2] = {};  // explicit: stored state must have no padding bits
};

Task<int> pty_shell_main(sim::ProcessCtx& ctx) {
  const u64 rounds = static_cast<u64>(argi(ctx, 0, 8));
  const std::string result = args(ctx, 1, "pty_shell");

  StateView<PtyState> st(ctx);
  MemRef line = buffer(ctx, "line", 64);
  std::vector<std::byte> host(64);
  PtyState s = st.get();

  while (true) {
    switch (ctx.phase()) {
      case 0: {
        auto [m, sl] = co_await ctx.openpty();
        s.master = m;
        s.slave = sl;
        ctx.set_ctty(0);
        sim::Termios tio = ctx.tcgetattr(sl);
        tio.echo = false;
        tio.icanon = false;
        ctx.tcsetattr(sl, tio);
        st.set(s);
        if (!s.worker_started) {
          ctx.spawn_thread(/*role=*/1);
          s.worker_started = 1;
          st.set(s);
        }
        ctx.phase() = 1;
        break;
      }
      case 1: {
        while (s.i < rounds) {
          if (s.stage == 0) {
            for (u64 j = 0; j < 64; ++j) {
              host[j] = static_cast<std::byte>('a' + ((s.i + j) % 26));
            }
            line.seg->data.write(line.off, host);
            co_await ctx.write_exact(s.master, line, 64, 0);
            s.stage = 1;
            st.set(s);
          }
          co_await ctx.read_exact(s.master, line, 64, 1);
          line.seg->data.read(line.off, host);
          for (u64 j = 0; j < 64; ++j) {
            DSIM_CHECK_MSG(static_cast<char>(host[j]) ==
                               static_cast<char>('A' + ((s.i + j) % 26)),
                           "pty transform mismatch");
          }
          s.crc = crc32_update(s.crc, host);
          s.stage = 0;
          s.i++;
          st.set(s);
          co_await ctx.sleep(800 * timeconst::kMicrosecond);
        }
        ctx.phase() = 2;
        break;
      }
      case 2: {
        const sim::Termios tio = ctx.tcgetattr(s.slave);
        char out[96];
        std::snprintf(out, sizeof out, "crc=%08x echo=%d icanon=%d pts=%s",
                      s.crc, tio.echo ? 1 : 0, tio.icanon ? 1 : 0,
                      ctx.ptsname(s.master).c_str());
        co_await apps::write_result(ctx, result, out);
        ctx.phase() = 3;
        break;
      }
      case 3:
        co_return 0;
    }
  }
}

// pty worker thread: reads from the slave, uppercases, writes back. The
// thread's own phase distinguishes "reading" from "replying"; the transform
// itself is idempotent, so re-driving it after a restart is safe.
Task<void> pty_shell_worker(sim::ProcessCtx& ctx, u32 role) {
  (void)role;
  StateView<PtyState> st(ctx);
  MemRef wline = buffer(ctx, "wline", 64);
  std::vector<std::byte> host(64);
  while (true) {
    const PtyState s = st.get();
    if (s.slave == kNoFd) {
      co_await ctx.sleep(1 * timeconst::kMillisecond);
      continue;
    }
    if (ctx.phase() == 0) {
      co_await ctx.read_exact(s.slave, wline, 64, 0);
      wline.seg->data.read(wline.off, host);
      for (auto& b : host) {
        const char c = static_cast<char>(b);
        if (c >= 'a' && c <= 'z') b = static_cast<std::byte>(c - 'a' + 'A');
      }
      wline.seg->data.write(wline.off, host);
      ctx.phase() = 1;
    }
    co_await ctx.write_exact(s.slave, wline, 64, 1);
    ctx.phase() = 0;
  }
}

// ---------------------------------------------------------------------------
// spawn_tree <children> <iters> <result-name> — parent spawns compute
// children and sums their (deterministic) exit codes. Exercises wait(),
// fd-less children, and pid virtualization.
// ---------------------------------------------------------------------------

struct TreeState {
  i32 kids[8] = {};
  i32 nspawned = 0;
  i32 nwaited = 0;
  u64 sum = 0;
};

Task<int> spawn_tree_main(sim::ProcessCtx& ctx) {
  const int children = static_cast<int>(argi(ctx, 0, 4));
  const u64 iters = static_cast<u64>(argi(ctx, 1, 20));
  const std::string result = args(ctx, 2, "spawn_tree");
  DSIM_CHECK(children <= 8);

  StateView<TreeState> st(ctx);
  TreeState s = st.get();
  while (s.nspawned < children) {
    std::vector<std::string> cargv{std::to_string(s.nspawned),
                                   std::to_string(iters)};
    const Pid child = co_await ctx.spawn("spawn_tree_child", std::move(cargv));
    s.kids[s.nspawned] = child;
    s.nspawned++;
    st.set(s);
  }
  while (s.nwaited < children) {
    const int code = co_await ctx.waitpid(s.kids[s.nwaited]);
    s.sum += static_cast<u64>(code);
    s.nwaited++;
    st.set(s);
  }
  if (ctx.phase() == 0) {
    char out[96];
    std::snprintf(out, sizeof out, "sum=%llu",
                  static_cast<unsigned long long>(s.sum));
    co_await apps::write_result(ctx, result, out);
    // The virtual pid is reported separately: it must be stable across
    // restarts but legitimately differs from a no-DMTCP baseline run.
    char vp[32];
    std::snprintf(vp, sizeof vp, "vpid=%d", ctx.getpid());
    co_await apps::write_result(ctx, result + ".vpid", vp);
    ctx.phase() = 1;
  }
  co_return 0;
}

Task<int> spawn_tree_child_main(sim::ProcessCtx& ctx) {
  const u64 id = static_cast<u64>(argi(ctx, 0, 0));
  const u64 iters = static_cast<u64>(argi(ctx, 1, 20));
  StateView<ComputeState> st(ctx);
  ComputeState s = st.get();
  while (s.i < iters) {
    co_await ctx.cpu_chunked(200e-6, 0);
    s.i++;
    st.set(s);
  }
  co_return static_cast<int>((id * 7 + 3) % 64);
}

// ---------------------------------------------------------------------------
// dup2_log <records> <path> <result-name> — opens a log file, dup2s its
// descriptor onto a second fd number and keeps both, then writes records
// of varying length alternately through each. The two fds share one
// description, so each record starts where the previous one ended. The
// result is the CRC and length of the file, read back through a third
// descriptor.
// ---------------------------------------------------------------------------

struct Dup2State {
  u64 i = 0;
  i32 fd = kNoFd;
  i32 fd2 = kNoFd;
};

constexpr Fd kDup2Target = 20;  // the second fd number

Task<int> dup2_log_main(sim::ProcessCtx& ctx) {
  const u64 records = static_cast<u64>(argi(ctx, 0, 160));
  const std::string path = args(ctx, 1, "/data/dup2.log");
  const std::string result = args(ctx, 2, "dup2_log");

  StateView<Dup2State> st(ctx);
  MemRef rec = buffer(ctx, "rec", 128);
  std::vector<std::byte> host(128);
  Dup2State s = st.get();

  while (true) {
    switch (ctx.phase()) {
      case 0: {
        const Fd fd = co_await ctx.open(path, /*create=*/true,
                                        /*truncate=*/true);
        DSIM_CHECK(fd != kNoFd);
        co_await ctx.dup2(fd, kDup2Target);
        s.fd = fd;
        s.fd2 = kDup2Target;
        st.set(s);
        ctx.phase() = 1;
        break;
      }
      case 1: {
        while (s.i < records) {
          const u64 len = 40 + (s.i % 7) * 12;
          for (u64 j = 0; j < len; ++j) {
            host[j] = static_cast<std::byte>(apps::payload_byte(11, s.i, j));
          }
          rec.seg->data.write(rec.off, std::span(host).first(len));
          co_await ctx.write_exact(s.i % 2 == 0 ? s.fd : s.fd2, rec, len, 0);
          s.i++;
          st.set(s);
          co_await ctx.sleep(500 * timeconst::kMicrosecond);
        }
        ctx.phase() = 2;
        break;
      }
      case 2: {
        // Read back from the start; redone whole if a restart lands here.
        const Fd rd = co_await ctx.open(path);
        DSIM_CHECK(rd != kNoFd);
        u32 crc = 0;
        u64 total = 0;
        while (true) {
          const i64 n = co_await ctx.read(rd, host);
          if (n <= 0) break;
          crc = crc32_update(crc, std::span(host).first(static_cast<u64>(n)));
          total += static_cast<u64>(n);
        }
        co_await ctx.close(rd);
        char out[96];
        std::snprintf(out, sizeof out, "crc=%08x bytes=%llu records=%llu", crc,
                      static_cast<unsigned long long>(total),
                      static_cast<unsigned long long>(s.i));
        co_await apps::write_result(ctx, result, out);
        ctx.phase() = 3;
        break;
      }
      case 3:
        co_return 0;
    }
  }
}

}  // namespace

void register_test_programs(sim::Kernel& k) {
  auto add = [&](const char* name, auto main_fn) {
    sim::Program p;
    p.name = name;
    p.main = main_fn;
    k.programs().add(std::move(p));
  };
  add(kPingServer, pp_server_main);
  add(kPingClient, pp_client_main);
  add(kComputeLoop, compute_loop_main);
  add(kPipeChain, pipe_chain_main);
  add("pipe_chain_child", pipe_chain_child_main);
  add(kShmPair, shm_pair_main);
  add("shm_pair_child", shm_pair_child_main);
  add(kSpawnTree, spawn_tree_main);
  add("spawn_tree_child", spawn_tree_child_main);
  add(kDup2Log, dup2_log_main);
  {
    sim::Program p;
    p.name = kPtyShell;
    p.main = pty_shell_main;
    p.worker = pty_shell_worker;
    k.programs().add(std::move(p));
  }
}

std::string read_result(sim::Kernel& k, const std::string& name) {
  auto inode = k.shared_fs().lookup("/shared/results/" + name);
  if (!inode) return "";
  auto bytes = inode->data.materialize(0, inode->data.size());
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

}  // namespace dsim::test
