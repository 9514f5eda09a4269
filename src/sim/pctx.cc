#include "sim/pctx.h"

#include <algorithm>
#include <memory>

#include "sim/interposer.h"
#include "util/assertx.h"

namespace dsim::sim {
namespace {
constexpr double kCpuChunkSeconds = 0.010;  // resumable compute granularity
constexpr u64 kExactPieceBytes = 64 * 1024;  // one step of the exact helpers
}

// --- compute ----------------------------------------------------------------

Task<void> ProcessCtx::cpu_chunked(double seconds, RegSlot r) {
  const u64 total_us = static_cast<u64>(seconds * 1e6);
  while (reg(r) < total_us) {
    const double remaining = static_cast<double>(total_us - reg(r)) * 1e-6;
    const double burst = std::min(kCpuChunkSeconds, remaining);
    co_await cpu(burst);
    reg(r) += static_cast<u64>(burst * 1e6);
  }
  reg(r) = 0;
}

// --- process management --------------------------------------------------------

std::map<std::string, std::string> ProcessCtx::child_env(
    std::map<std::string, std::string> extra) const {
  auto env = p_.env();
  for (auto& [k, v] : extra) env[k] = v;
  return env;
}

Task<Pid> ProcessCtx::spawn(const std::string& prog,
                            std::vector<std::string> argv,
                            std::map<std::string, std::string> extra_env) {
  auto env = child_env(std::move(extra_env));
  if (p_.interposer()) {
    return p_.interposer()->wrap_spawn(*this, p_.node(), prog, std::move(argv),
                                       std::move(env));
  }
  return spawn_raw(p_.node(), prog, std::move(argv), std::move(env));
}

Task<Pid> ProcessCtx::ssh(NodeId node, const std::string& prog,
                          std::vector<std::string> argv,
                          std::map<std::string, std::string> extra_env) {
  auto env = child_env(std::move(extra_env));
  if (p_.interposer()) {
    return p_.interposer()->wrap_spawn(*this, node, prog, std::move(argv),
                                       std::move(env));
  }
  return spawn_raw(node, prog, std::move(argv), std::move(env));
}

Task<Pid> ProcessCtx::spawn_raw(NodeId node, const std::string& prog,
                                std::vector<std::string> argv,
                                std::map<std::string, std::string> env) {
  // fork+exec costs one scheduling round trip.
  co_await sleep(200 * timeconst::kMicrosecond);
  co_return k_.spawn_process(node, prog, std::move(argv), std::move(env),
                             p_.pid(), &p_.fds());
}

Task<int> ProcessCtx::waitpid(Pid child) {
  if (p_.interposer()) return p_.interposer()->wrap_waitpid(*this, child);
  return waitpid_raw(child);
}

Pid ProcessCtx::getpid() {
  if (p_.interposer()) return p_.interposer()->wrap_getpid(*this);
  return p_.pid();
}

Tid ProcessCtx::spawn_thread(u32 role) {
  const Program* prog = k_.programs().find(p_.prog_name());
  DSIM_CHECK_MSG(prog && prog->worker, "program has no worker entry");
  Thread& t = p_.add_thread(ThreadKind::kWorker);
  t.context().role = role;
  struct Runner {
    static Task<void> run(ProcessCtx* ctx, const Program* prog, u32 role) {
      co_await prog->worker(*ctx, role);
    }
  };
  t.start(Runner::run(&t.pctx(), prog, role));
  return t.tid();
}

std::shared_ptr<MemSegment> ProcessCtx::mmap_shared(const std::string& path,
                                                    u64 size) {
  auto seg = k_.mmap_shared(p_, path, size);
  p_.mem().attach(seg);
  return seg;
}

// --- descriptors -----------------------------------------------------------------

Task<Fd> ProcessCtx::open(const std::string& path, bool create, bool truncate,
                          bool append) {
  co_await sleep(30 * timeconst::kMicrosecond);  // metadata op
  auto of = k_.open_file(p_, path, {create, truncate, append});
  if (!of) co_return kNoFd;
  co_return p_.fds().install(of);
}

Task<void> ProcessCtx::close(Fd fd) {
  k_.close_fd(p_, fd);
  co_return;
}

Task<void> ProcessCtx::dup2(Fd oldfd, Fd newfd) {
  auto of = p_.fds().get(oldfd);
  DSIM_CHECK_MSG(of != nullptr, "dup2: bad fd");
  if (oldfd == newfd) co_return;
  if (p_.fds().contains(newfd)) k_.close_fd(p_, newfd);
  p_.fds().install_at(newfd, of);
  co_return;
}

TcpVNode* ProcessCtx::fd_tcp(Fd fd) {
  auto of = p_.fds().get(fd);
  if (!of || of->vnode->kind() != VKind::kTcp) return nullptr;
  return static_cast<TcpVNode*>(of->vnode.get());
}

Task<i64> ProcessCtx::read(Fd fd, std::span<std::byte> out) {
  auto of = p_.fds().get(fd);
  DSIM_CHECK_MSG(of != nullptr, "read: bad fd");
  switch (of->vnode->kind()) {
    case VKind::kFile:
      co_return static_cast<i64>(co_await k_.file_read(t_, *of, out));
    case VKind::kTcp:
      co_return static_cast<i64>(co_await k_.sock_recv(
          t_, static_cast<TcpVNode&>(*of->vnode), out));
    case VKind::kPipeRead:
      co_return static_cast<i64>(co_await k_.pipe_read(
          t_, static_cast<PipeVNode&>(*of->vnode), out));
    case VKind::kPtyMaster:
    case VKind::kPtySlave:
      co_return static_cast<i64>(co_await k_.pty_read(
          t_, static_cast<PtyVNode&>(*of->vnode), out));
    case VKind::kDevNull:
      co_return 0;
    default:
      DSIM_UNREACHABLE("read: unsupported descriptor kind");
  }
}

Task<i64> ProcessCtx::write(Fd fd, std::span<const std::byte> bytes) {
  auto of = p_.fds().get(fd);
  DSIM_CHECK_MSG(of != nullptr, "write: bad fd");
  switch (of->vnode->kind()) {
    case VKind::kFile:
      co_return static_cast<i64>(co_await k_.file_write(t_, *of, bytes));
    case VKind::kTcp:
      co_return static_cast<i64>(co_await k_.sock_send(
          t_, static_cast<TcpVNode&>(*of->vnode), bytes));
    case VKind::kPipeWrite:
      co_return static_cast<i64>(co_await k_.pipe_write(
          t_, static_cast<PipeVNode&>(*of->vnode), bytes));
    case VKind::kPtyMaster:
    case VKind::kPtySlave:
      co_return static_cast<i64>(co_await k_.pty_write(
          t_, static_cast<PtyVNode&>(*of->vnode), bytes));
    case VKind::kDevNull:
      co_return static_cast<i64>(bytes.size());
    default:
      DSIM_UNREACHABLE("write: unsupported descriptor kind");
  }
}

// The exact helpers move a record in pieces of up to kExactPieceBytes and
// look the descriptor up at every step, as read() and write() do. Over TCP
// each piece is one host copy each way: the sender materializes it and
// hands the buffer to the socket as its segment, and the receiver writes
// from the segment straight into the destination image. Other descriptors
// go through a scratch buffer that is never zero-filled.

Task<bool> ProcessCtx::read_exact_steps(Fd fd, MemRef buf, u64 len,
                                        RegSlot r, bool eof_ok) {
  std::unique_ptr<std::byte[]> scratch;
  while (reg(r) < len) {
    const u64 want = std::min<u64>(kExactPieceBytes, len - reg(r));
    const u64 at = buf.off + reg(r);
    auto of = p_.fds().get(fd);
    DSIM_CHECK_MSG(of != nullptr, "read: bad fd");
    i64 n = 0;
    if (of->vnode->kind() == VKind::kTcp) {
      n = static_cast<i64>(co_await k_.sock_recv_into(
          t_, static_cast<TcpVNode&>(*of->vnode), buf.seg->data, at, want));
    } else {
      if (!scratch) {
        scratch = std::make_unique_for_overwrite<std::byte[]>(
            std::min<u64>(len, kExactPieceBytes));
      }
      n = co_await read(fd, std::span(scratch.get(), want));
      if (n > 0) {
        buf.seg->data.write(
            at, std::span<const std::byte>(scratch.get(), static_cast<u64>(n)));
      }
    }
    if (n <= 0) {
      if (eof_ok) {
        DSIM_CHECK_MSG(reg(r) == 0, "EOF mid-record");
        co_return false;
      }
      std::fprintf(stderr, "read_exact fail: prog=%s pid=%d fd=%d\n",
                   p_.prog_name().c_str(), p_.pid(), fd);
    }
    DSIM_CHECK_MSG(n > 0, "read_exact: EOF mid-record");
    reg(r) += static_cast<u64>(n);
  }
  DSIM_CHECK(reg(r) == len);
  reg(r) = 0;
  co_return true;
}

Task<bool> ProcessCtx::write_exact_steps(Fd fd, MemRef buf, u64 len,
                                         RegSlot r, bool eof_ok) {
  std::unique_ptr<std::byte[]> scratch;
  while (reg(r) < len) {
    const u64 want = std::min<u64>(kExactPieceBytes, len - reg(r));
    const u64 at = buf.off + reg(r);
    auto of = p_.fds().get(fd);
    DSIM_CHECK_MSG(of != nullptr, "write: bad fd");
    i64 n = 0;
    if (of->vnode->kind() == VKind::kTcp) {
      n = static_cast<i64>(co_await k_.sock_send_owned(
          t_, static_cast<TcpVNode&>(*of->vnode),
          buf.seg->data.materialize(at, want)));
    } else {
      if (!scratch) {
        scratch = std::make_unique_for_overwrite<std::byte[]>(
            std::min<u64>(len, kExactPieceBytes));
      }
      const std::span<std::byte> piece(scratch.get(), want);
      buf.seg->data.read(at, piece);
      n = co_await write(fd, piece);
    }
    if (n <= 0) {
      if (eof_ok) {
        reg(r) = 0;  // peer gone; record abandoned
        co_return false;
      }
      std::fprintf(stderr, "write_exact fail: prog=%s pid=%d fd=%d",
                   p_.prog_name().c_str(), p_.pid(), fd);
      if (auto* v = fd_tcp(fd)) {
        std::fprintf(stderr, " remote=%d:%u conn=%s", v->remote.node,
                     v->remote.port, v->conn_id.str().c_str());
      }
      std::fprintf(stderr, " argv0=%s arg3=%s\n",
                   p_.argv().empty() ? "" : p_.argv()[0].c_str(),
                   p_.argv().size() > 3 ? p_.argv()[3].c_str() : "");
    }
    DSIM_CHECK_MSG(n > 0, "write_exact: peer closed mid-record");
    reg(r) += static_cast<u64>(n);
  }
  DSIM_CHECK(reg(r) == len);
  reg(r) = 0;
  co_return true;
}

Task<void> ProcessCtx::read_exact(Fd fd, MemRef buf, u64 len, RegSlot r) {
  co_await read_exact_steps(fd, buf, len, r, /*eof_ok=*/false);
}

Task<void> ProcessCtx::write_exact(Fd fd, MemRef buf, u64 len, RegSlot r) {
  co_await write_exact_steps(fd, buf, len, r, /*eof_ok=*/false);
}

Task<bool> ProcessCtx::read_exact_or_eof(Fd fd, MemRef buf, u64 len,
                                         RegSlot r) {
  return read_exact_steps(fd, buf, len, r, /*eof_ok=*/true);
}

Task<bool> ProcessCtx::write_exact_or_eof(Fd fd, MemRef buf, u64 len,
                                          RegSlot r) {
  return write_exact_steps(fd, buf, len, r, /*eof_ok=*/true);
}

// --- sockets -----------------------------------------------------------------------

Task<Fd> ProcessCtx::socket(bool unix_domain) {
  auto of = k_.make_socket(p_, unix_domain);
  co_return p_.fds().install(of);
}

Task<bool> ProcessCtx::bind(Fd fd, u16 port) {
  TcpVNode* s = fd_tcp(fd);
  DSIM_CHECK_MSG(s != nullptr, "bind: not a socket");
  co_return k_.sock_bind(p_, *s, port);
}

Task<void> ProcessCtx::listen(Fd fd) {
  TcpVNode* s = fd_tcp(fd);
  DSIM_CHECK_MSG(s != nullptr, "listen: not a socket");
  k_.sock_listen(p_, *s);
  co_return;
}

Task<Fd> ProcessCtx::accept(Fd fd) {
  if (p_.interposer()) return p_.interposer()->wrap_accept(*this, fd);
  return accept_raw(fd);
}

Task<Fd> ProcessCtx::accept_raw(Fd fd) {
  TcpVNode* s = fd_tcp(fd);
  DSIM_CHECK_MSG(s != nullptr, "accept: not a socket");
  auto of = co_await k_.sock_accept(t_, *s);
  if (!of) co_return kNoFd;
  co_return p_.fds().install(of);
}

Task<bool> ProcessCtx::connect(Fd fd, SockAddr addr) {
  TcpVNode* s = fd_tcp(fd);
  DSIM_CHECK_MSG(s != nullptr, "connect: not a socket");
  co_return co_await k_.sock_connect(t_, *s, addr);
}

Task<std::pair<Fd, Fd>> ProcessCtx::socketpair() {
  auto [a, b] = k_.make_socketpair(p_);
  const Fd fa = p_.fds().install(a);
  const Fd fb = p_.fds().install(b);
  co_return std::make_pair(fa, fb);
}

Task<std::pair<Fd, Fd>> ProcessCtx::pipe() {
  if (p_.interposer()) return p_.interposer()->wrap_pipe(*this);
  return pipe_raw();
}

Task<std::pair<Fd, Fd>> ProcessCtx::pipe_raw() {
  auto [rd, wr] = k_.make_pipe(p_);
  const Fd fr = p_.fds().install(rd);
  const Fd fw = p_.fds().install(wr);
  co_return std::make_pair(fr, fw);
}

// --- terminals ------------------------------------------------------------------------

Task<std::pair<Fd, Fd>> ProcessCtx::openpty() {
  auto [m, s] = k_.make_pty(p_);
  const Fd fm = p_.fds().install(m);
  const Fd fs = p_.fds().install(s);
  co_return std::make_pair(fm, fs);
}

std::string ProcessCtx::ptsname(Fd master) {
  auto of = p_.fds().get(master);
  DSIM_CHECK_MSG(of && of->vnode->kind() == VKind::kPtyMaster,
                 "ptsname: not a pty master");
  return static_cast<PtyVNode&>(*of->vnode).pair().slave_name;
}

Termios ProcessCtx::tcgetattr(Fd fd) {
  auto of = p_.fds().get(fd);
  DSIM_CHECK_MSG(of && (of->vnode->kind() == VKind::kPtyMaster ||
                        of->vnode->kind() == VKind::kPtySlave),
                 "tcgetattr: not a tty");
  return static_cast<PtyVNode&>(*of->vnode).pair().termios;
}

void ProcessCtx::tcsetattr(Fd fd, const Termios& tio) {
  auto of = p_.fds().get(fd);
  DSIM_CHECK_MSG(of && (of->vnode->kind() == VKind::kPtyMaster ||
                        of->vnode->kind() == VKind::kPtySlave),
                 "tcsetattr: not a tty");
  static_cast<PtyVNode&>(*of->vnode).pair().termios = tio;
}

}  // namespace dsim::sim
