// ProcessCtx: the syscall facade simulated programs run against.
//
// One ProcessCtx exists per (process, thread). Five calls go through the
// process's Interposer when it has one, which is the simulator's LD_PRELOAD
// boundary (§4.2): accept, pipe, spawn/ssh, waitpid and getpid, the calls
// whose result core::Hijack changes. accept_raw, spawn_raw and waitpid_raw
// bypass it; the hijack calls them to reach the kernel underneath itself.
// The other calls DMTCP wraps (socket, bind, listen, connect, socketpair,
// close, dup2, openpty, ptsname) go straight to the kernel: the hijack
// reads the state those wrappers record from the descriptor table at
// checkpoint time. The coverage table in docs/architecture.md lists every
// public call with the test that carries it through checkpoint, kill and
// restart.
//
// Restart-safe primitives: `read_exact` / `write_exact` / `cpu_chunked`
// persist their progress in a ThreadContext register (`RegSlot`), and
// buffers live in simulated memory (`MemRef`). After a kill+restart, the
// program re-invokes the same primitive with the same arguments and it
// continues from the persisted position — the observable equivalent of
// MTCP restoring registers mid-syscall.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/ipc.h"
#include "sim/kernel.h"
#include "sim/process.h"
#include "sim/socket.h"
#include "sim/task.h"
#include "sim/thread.h"
#include "util/types.h"

namespace dsim::sim {

/// Index of a progress register in ThreadContext::regs.
using RegSlot = int;

/// A location in simulated process memory (survives checkpoint/restart).
struct MemRef {
  MemSegment* seg = nullptr;
  u64 off = 0;
  MemRef at(u64 delta) const { return {seg, off + delta}; }
};

class ProcessCtx {
 public:
  ProcessCtx(Kernel& kernel, Process& process, Thread& thread)
      : k_(kernel), p_(process), t_(thread) {}

  Kernel& kernel() { return k_; }
  Process& process() { return p_; }
  Thread& thread() { return t_; }
  SimTime now() const { return k_.loop().now(); }

  /// Application program counter (persisted across restart).
  u32& phase() { return t_.context().phase; }
  /// Progress registers (persisted across restart).
  u64& reg(RegSlot r) { return t_.context().regs[static_cast<size_t>(r)]; }

  // --- time / compute ---------------------------------------------------------
  Task<void> sleep(SimTime dt) { return k_.sleep_for(t_, dt); }
  /// Uninterruptible-by-restart compute burst (manager internals, short ops).
  Task<void> cpu(double seconds) { return k_.cpu_burst(t_, seconds); }
  /// Restart-resumable compute: progress persisted in `reg` (microseconds).
  Task<void> cpu_chunked(double seconds, RegSlot reg);

  // --- process management -----------------------------------------------------
  /// fork+exec on this node (wrapped: DMTCP registers the child, virtualizes
  /// its pid, and re-forks on a virtual-pid conflict, §4.5).
  Task<Pid> spawn(const std::string& prog, std::vector<std::string> argv = {},
                  std::map<std::string, std::string> extra_env = {});
  /// Remote spawn via ssh (wrapped: DMTCP rewrites the command so the remote
  /// process also runs under checkpoint control, §3).
  Task<Pid> ssh(NodeId node, const std::string& prog,
                std::vector<std::string> argv = {},
                std::map<std::string, std::string> extra_env = {});
  Task<int> waitpid(Pid child);  // wrapped: DMTCP translates virtual pids
  Pid getpid();                  // wrapped: the virtual pid under DMTCP

  /// Spawn an additional user thread running the program's worker entry.
  Tid spawn_thread(u32 role);

  // --- memory -------------------------------------------------------------------
  MemSegment& alloc(const std::string& name, MemKind kind, u64 size) {
    return p_.mem().add(name, kind, size);
  }
  MemSegment* seg(const std::string& name) { return p_.mem().find(name); }
  std::shared_ptr<MemSegment> mmap_shared(const std::string& path, u64 size);

  /// Typed access to simulated memory (state structs must be trivially
  /// copyable).
  template <typename T>
  T load(MemRef ref) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    ref.seg->data.read(ref.off, std::as_writable_bytes(std::span(&v, 1)));
    return v;
  }
  template <typename T>
  void store(MemRef ref, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    ref.seg->data.write(ref.off, std::as_bytes(std::span(&v, 1)));
  }

  // --- descriptors ----------------------------------------------------------------
  Task<Fd> open(const std::string& path, bool create = false,
                bool truncate = false, bool append = false);
  Task<void> close(Fd fd);
  /// newfd shares oldfd's description, offset included.
  Task<void> dup2(Fd oldfd, Fd newfd);

  /// Generic read/write dispatching on descriptor kind. Single attempt
  /// (may transfer fewer bytes than requested).
  Task<i64> read(Fd fd, std::span<std::byte> out);
  Task<i64> write(Fd fd, std::span<const std::byte> bytes);

  /// Restart-safe exact-length I/O; `buf` in simulated memory, progress in
  /// `reg` (reset to 0 on completion).
  Task<void> read_exact(Fd fd, MemRef buf, u64 len, RegSlot reg);
  Task<void> write_exact(Fd fd, MemRef buf, u64 len, RegSlot reg);
  /// Like read/write_exact but tolerate a clean EOF at record boundary
  /// (returns false). EOF mid-record still aborts — that is corruption.
  Task<bool> read_exact_or_eof(Fd fd, MemRef buf, u64 len, RegSlot reg);
  Task<bool> write_exact_or_eof(Fd fd, MemRef buf, u64 len, RegSlot reg);

  // --- sockets -----------------------------------------------------------------------
  Task<Fd> socket(bool unix_domain = false);
  Task<bool> bind(Fd fd, u16 port);
  Task<void> listen(Fd fd);
  Task<Fd> accept(Fd fd);  // wrapped: hands out pre-accepted connections
  Task<bool> connect(Fd fd, SockAddr addr);
  Task<std::pair<Fd, Fd>> socketpair();
  Task<std::pair<Fd, Fd>> pipe();  // wrapped: promoted to a socketpair

  // --- terminals -----------------------------------------------------------------------
  Task<std::pair<Fd, Fd>> openpty();
  std::string ptsname(Fd master);
  Termios tcgetattr(Fd fd);
  void tcsetattr(Fd fd, const Termios& tio);
  void set_ctty(i32 pty_id) { p_.ctty() = pty_id; }

  // --- raw (interposer-bypassing) variants -----------------------------------------------
  Task<Fd> accept_raw(Fd fd);
  Task<Pid> spawn_raw(NodeId node, const std::string& prog,
                      std::vector<std::string> argv,
                      std::map<std::string, std::string> env);
  Task<int> waitpid_raw(Pid child) { return k_.wait_child(t_, child); }

  /// Resolve an fd to its description / vnode (kernel-plane helpers).
  std::shared_ptr<OpenFile> fd_get(Fd fd) { return p_.fds().get(fd); }
  TcpVNode* fd_tcp(Fd fd);

 private:
  /// The default environment passed to children (DMTCP vars included).
  std::map<std::string, std::string> child_env(
      std::map<std::string, std::string> extra) const;
  // pipe() when the process runs without an Interposer.
  Task<std::pair<Fd, Fd>> pipe_raw();
  // The loops behind read_exact / write_exact and their _or_eof twins;
  // `eof_ok` selects the twin's end-of-stream handling.
  Task<bool> read_exact_steps(Fd fd, MemRef buf, u64 len, RegSlot reg,
                              bool eof_ok);
  Task<bool> write_exact_steps(Fd fd, MemRef buf, u64 len, RegSlot reg,
                               bool eof_ok);

  Kernel& k_;
  Process& p_;
  Thread& t_;
};

}  // namespace dsim::sim
