// Connection information table (§4.3 step 4: "The connection information
// table is then written to disk").
//
// One ConnRecord per open-file description; the FdEntry list maps the
// process's descriptor numbers onto description ids so restart can rebuild
// exact sharing (two fds — possibly in different processes — that shared a
// description before checkpoint share one again after restart).
#pragma once

#include <string>
#include <vector>

#include "core/ids.h"
#include "sim/ipc.h"
#include "sim/socket.h"
#include "util/serialize.h"
#include "util/types.h"

namespace dsim::core {

enum class ConnType : u8 {
  kFile = 0,
  kListener = 1,
  kEstablished = 2,  // TCP, UNIX-domain socketpair, or promoted pipe
  kRawSocket = 3,    // socket() with no bind/connect yet
  kPtyMaster = 4,
  kPtySlave = 5,
};

struct ConnRecord {
  u64 desc_id = 0;
  ConnType type = ConnType::kFile;
  u64 offset = 0;

  // kFile
  std::string path;

  // sockets
  sim::ConnId conn_id{};
  bool is_acceptor = false;
  bool unix_domain = false;
  bool promoted_pipe = false;
  u16 listen_port = 0;
  /// This process drained this end (election winner, §4.3 step 3).
  bool drain_leader = false;
  /// The peer end was already closed at checkpoint time (half-closed
  /// connection): restore locally — drained bytes go straight back into the
  /// receive buffer, and no discovery/reconnect happens.
  bool peer_gone = false;
  /// Bytes drained from this end's receive path (leader only).
  std::vector<std::byte> drained;

  // ptys
  i32 pty_id = -1;
  sim::Termios termios{};

  void serialize(ByteWriter& w) const;
  static ConnRecord deserialize(ByteReader& r);
};

struct FdEntry {
  Fd fd = kNoFd;
  u64 desc_id = 0;
};

struct ConnTable {
  std::vector<FdEntry> fds;
  std::vector<ConnRecord> conns;
  /// Connections flushed from listener backlogs at suspend time, waiting to
  /// be handed out by accept(): (listener description id, stashed fd).
  std::vector<std::pair<u64, i32>> preaccepted;

  const ConnRecord* find(u64 desc_id) const {
    for (const auto& c : conns) {
      if (c.desc_id == desc_id) return &c;
    }
    return nullptr;
  }

  std::vector<std::byte> encode() const;
  static ConnTable decode(std::span<const std::byte> bytes);
};

}  // namespace dsim::core
