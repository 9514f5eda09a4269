#include "core/dmtcpaware.h"

#include "core/hijack.h"
#include "core/msg_io.h"

namespace dsim::core {
namespace {
Hijack* hijack_of(sim::ProcessCtx& ctx) {
  return dynamic_cast<Hijack*>(ctx.process().interposer());
}
}  // namespace

bool dmtcp_is_enabled(sim::ProcessCtx& ctx) {
  return hijack_of(ctx) != nullptr;
}

sim::Task<bool> dmtcp_request_checkpoint(sim::ProcessCtx& ctx) {
  Hijack* h = hijack_of(ctx);
  if (!h) co_return false;
  // Equivalent of dmtcp_command --checkpoint from inside the application:
  // a transient coordinator connection, kept out of the connection table.
  auto& k = ctx.kernel();
  const Fd fd = co_await ctx.socket();
  ctx.fd_get(fd)->dmtcp_internal = true;
  const sim::SockAddr coord{
      static_cast<NodeId>(std::stoi(ctx.process().env_or("DMTCP_COORD_NODE",
                                                         "0"))),
      static_cast<u16>(
          std::stoi(ctx.process().env_or("DMTCP_COORD_PORT", "7779")))};
  while (!co_await ctx.connect(fd, coord)) {
    co_await ctx.sleep(1 * timeconst::kMillisecond);
  }
  auto* sock = ctx.fd_tcp(fd);
  Msg m;
  m.type = MsgType::kCommand;
  m.s = "checkpoint";
  m.a = 0;  // do not wait inside the app: the manager suspends this thread
  co_await send_msg(k, ctx.thread(), *sock, m);
  auto reply = co_await recv_msg(k, ctx.thread(), *sock);
  co_await ctx.close(fd);
  co_return reply.has_value();
}

void dmtcp_delay_checkpoints_lock(sim::ProcessCtx& ctx) {
  if (Hijack* h = hijack_of(ctx)) h->delay_lock();
}

void dmtcp_delay_checkpoints_unlock(sim::ProcessCtx& ctx) {
  if (Hijack* h = hijack_of(ctx)) h->delay_unlock();
}

DmtcpStatus dmtcp_status(sim::ProcessCtx& ctx) {
  DmtcpStatus st;
  if (Hijack* h = hijack_of(ctx)) {
    st.enabled = true;
    st.checkpoint_generation = h->completed_generations();
    st.virtual_pid = h->vpid();
  }
  return st;
}

void dmtcp_install_hooks(sim::ProcessCtx& ctx, std::function<void()> pre_ckpt,
                         std::function<void()> post_ckpt,
                         std::function<void()> post_restart) {
  if (Hijack* h = hijack_of(ctx)) {
    DmtcpShared& shared = h->shared();
    shared.pre_ckpt_hooks[h->vpid()] = std::move(pre_ckpt);
    shared.post_ckpt_hooks[h->vpid()] = std::move(post_ckpt);
    shared.post_restart_hooks[h->vpid()] = std::move(post_restart);
  }
}

}  // namespace dsim::core
