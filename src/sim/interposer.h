// Syscall interposition interface — the simulator's LD_PRELOAD.
//
// DMTCP injects dmtcphijack.so and overrides a list of libc calls (§4.2:
// socket, connect, bind, listen, accept, setsockopt, exec*, fork, close,
// dup2, socketpair, openlog, syslog, closelog, ptsname). Most of those
// wrappers only keep DMTCP's connection tables current. The simulator reads
// that state from the kernel's descriptor table at checkpoint time instead
// (core::Hijack::build_conn_table), so a Process's Interposer carries only
// the calls whose result core::Hijack changes: accept hands out
// pre-accepted connections, pipe is promoted to a socketpair, spawn runs the
// child under checkpoint control and re-forks on a virtual-pid conflict,
// and waitpid and getpid translate virtual pids (§4.5). Every other
// ProcessCtx call goes straight to the kernel.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/task.h"
#include "util/types.h"

namespace dsim::sim {

class ProcessCtx;

class Interposer {
 public:
  virtual ~Interposer() = default;

  /// Called once when the library is "injected" at process start, before the
  /// program's main thread runs. The hijack spawns its checkpoint manager
  /// thread here (§4.2).
  virtual void on_attach() = 0;
  /// Called as the process exits (before fd teardown).
  virtual void on_process_exit() = 0;

  // The wrapped calls. ProcessCtx::accept_raw, spawn_raw and waitpid_raw
  // are the unwrapped calls an implementation makes underneath itself.
  virtual Task<Fd> wrap_accept(ProcessCtx& ctx, Fd fd) = 0;
  virtual Task<std::pair<Fd, Fd>> wrap_pipe(ProcessCtx& ctx) = 0;
  virtual Task<Pid> wrap_spawn(ProcessCtx& ctx, NodeId node, std::string prog,
                               std::vector<std::string> argv,
                               std::map<std::string, std::string> env) = 0;
  virtual Task<int> wrap_waitpid(ProcessCtx& ctx, Pid child) = 0;
  virtual Pid wrap_getpid(ProcessCtx& ctx) = 0;
};

}  // namespace dsim::sim
