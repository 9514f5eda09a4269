#include "core/conn_table.h"

namespace dsim::core {

void ConnRecord::serialize(ByteWriter& w) const {
  w.put_u64(desc_id);
  w.put_u8(static_cast<u8>(type));
  w.put_u64(offset);
  w.put_string(path);
  conn_id.serialize(w);
  w.put_bool(is_acceptor);
  w.put_bool(unix_domain);
  w.put_bool(promoted_pipe);
  w.put_u16(listen_port);
  w.put_bool(drain_leader);
  w.put_bool(peer_gone);
  w.put_blob(drained);
  w.put_i32(pty_id);
  w.put_bool(termios.icanon);
  w.put_bool(termios.echo);
  w.put_bool(termios.isig);
  w.put_u8(termios.veof);
  w.put_u8(termios.vintr);
}

ConnRecord ConnRecord::deserialize(ByteReader& r) {
  ConnRecord c;
  c.desc_id = r.get_u64();
  c.type = static_cast<ConnType>(r.get_u8());
  c.offset = r.get_u64();
  c.path = r.get_string();
  c.conn_id = sim::ConnId::deserialize(r);
  c.is_acceptor = r.get_bool();
  c.unix_domain = r.get_bool();
  c.promoted_pipe = r.get_bool();
  c.listen_port = r.get_u16();
  c.drain_leader = r.get_bool();
  c.peer_gone = r.get_bool();
  c.drained = r.get_blob();
  c.pty_id = r.get_i32();
  c.termios.icanon = r.get_bool();
  c.termios.echo = r.get_bool();
  c.termios.isig = r.get_bool();
  c.termios.veof = r.get_u8();
  c.termios.vintr = r.get_u8();
  return c;
}

std::vector<std::byte> ConnTable::encode() const {
  ByteWriter w;
  w.put_u64(fds.size());
  for (const auto& f : fds) {
    w.put_i32(f.fd);
    w.put_u64(f.desc_id);
  }
  w.put_u64(conns.size());
  for (const auto& c : conns) c.serialize(w);
  w.put_u64(preaccepted.size());
  for (const auto& [desc, fd] : preaccepted) {
    w.put_u64(desc);
    w.put_i32(fd);
  }
  return w.take();
}

ConnTable ConnTable::decode(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  ConnTable t;
  const u64 nf = r.get_u64();
  for (u64 i = 0; i < nf; ++i) {
    FdEntry e;
    e.fd = r.get_i32();
    e.desc_id = r.get_u64();
    t.fds.push_back(e);
  }
  const u64 nc = r.get_u64();
  for (u64 i = 0; i < nc; ++i) t.conns.push_back(ConnRecord::deserialize(r));
  const u64 np = r.get_u64();
  for (u64 i = 0; i < np; ++i) {
    const u64 desc = r.get_u64();
    const i32 fd = r.get_i32();
    t.preaccepted.emplace_back(desc, fd);
  }
  return t;
}

}  // namespace dsim::core
