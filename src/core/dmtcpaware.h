// dmtcpaware: the optional application programming interface (§3.1).
//
// "This library allows the application to: test if it is running under
// DMTCP; request checkpoints; delay checkpoints during a critical section
// of code; query DMTCP status; and insert hook functions before/after
// checkpointing or restart." Programs link against these free functions;
// all of them degrade gracefully when the process runs without DMTCP.
#pragma once

#include <functional>

#include "sim/pctx.h"
#include "sim/task.h"

namespace dsim::core {

/// True if the calling process runs under checkpoint control.
bool dmtcp_is_enabled(sim::ProcessCtx& ctx);

/// Request a checkpoint of the whole computation and wait until it
/// completes. No-op (returns false) without DMTCP.
sim::Task<bool> dmtcp_request_checkpoint(sim::ProcessCtx& ctx);

/// Delay any checkpoint while in a critical section. RAII-style guard pair.
void dmtcp_delay_checkpoints_lock(sim::ProcessCtx& ctx);
void dmtcp_delay_checkpoints_unlock(sim::ProcessCtx& ctx);

/// Scoped critical section helper.
class DmtcpDelayGuard {
 public:
  explicit DmtcpDelayGuard(sim::ProcessCtx& ctx) : ctx_(ctx) {
    dmtcp_delay_checkpoints_lock(ctx_);
  }
  ~DmtcpDelayGuard() { dmtcp_delay_checkpoints_unlock(ctx_); }
  DmtcpDelayGuard(const DmtcpDelayGuard&) = delete;
  DmtcpDelayGuard& operator=(const DmtcpDelayGuard&) = delete;

 private:
  sim::ProcessCtx& ctx_;
};

struct DmtcpStatus {
  bool enabled = false;
  int checkpoint_generation = 0;  // completed checkpoints in this process
  Pid virtual_pid = kNoPid;
};
DmtcpStatus dmtcp_status(sim::ProcessCtx& ctx);

/// Install hook functions run before a checkpoint, after a checkpoint
/// resume, and after a restart (§3.1). The hooks are kept by virtual pid
/// and survive the process's restarts, as real dmtcpaware hooks live on in
/// the restored memory: a restored process runs its post-restart hook, and
/// later checkpoints run the others, without installing them again.
/// Installing again replaces them.
void dmtcp_install_hooks(sim::ProcessCtx& ctx, std::function<void()> pre_ckpt,
                         std::function<void()> post_ckpt,
                         std::function<void()> post_restart);

}  // namespace dsim::core
