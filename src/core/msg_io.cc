#include "core/msg_io.h"

#include "util/assertx.h"

namespace dsim::core {

Task<void> send_msg(sim::Kernel& k, sim::Thread& t, sim::TcpVNode& s,
                    const Msg& m) {
  auto payload = m.encode();
  ByteWriter w;
  w.put_u32(static_cast<u32>(payload.size()));
  w.put_bytes(payload);
  auto frame = w.take();
  u64 sent = 0;
  while (sent < frame.size()) {
    const u64 n = co_await k.sock_send(
        t, s, std::span<const std::byte>(frame).subspan(sent));
    if (n == 0) co_return;  // peer gone; caller notices on next recv
    sent += n;
  }
}

Task<std::optional<Msg>> recv_msg(sim::Kernel& k, sim::Thread& t,
                                  sim::TcpVNode& s) {
  auto read_full = [&](std::span<std::byte> out) -> Task<bool> {
    u64 got = 0;
    while (got < out.size()) {
      const u64 n = co_await k.sock_recv(t, s, out.subspan(got));
      if (n == 0) co_return false;
      got += n;
    }
    co_return true;
  };
  std::array<std::byte, 4> lenbuf;
  if (!co_await read_full(lenbuf)) co_return std::nullopt;
  ByteReader lr(lenbuf);
  const u32 len = lr.get_u32();
  std::vector<std::byte> payload(len);
  if (!co_await read_full(payload)) co_return std::nullopt;
  co_return Msg::decode(payload);
}

Task<void> barrier_wait(sim::Kernel& k, sim::Thread& t, sim::TcpVNode& s,
                        const std::string& name, int expected) {
  Msg m;
  m.type = MsgType::kBarrierWait;
  m.s = name;
  m.a = expected;
  co_await send_msg(k, t, s, m);
  while (true) {
    auto r = co_await recv_msg(k, t, s);
    DSIM_CHECK_MSG(r.has_value(), "coordinator died inside a barrier");
    if (r->type == MsgType::kBarrierRelease && r->s == name) co_return;
  }
}

}  // namespace dsim::core
