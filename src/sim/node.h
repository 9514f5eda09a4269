// A cluster node: cores, NIC endpoint, local storage, local filesystem.
#pragma once

#include <algorithm>
#include <memory>
#include <string>

#include "sim/cpu.h"
#include "sim/fs.h"
#include "sim/storage.h"
#include "util/types.h"

namespace dsim::sim {

class Node {
 public:
  Node(EventLoop& loop, NodeId id, int cores, bool has_fc)
      : id_(id),
        hostname_("node" + std::to_string(id)),
        has_fc_(has_fc),
        cpu_(loop, cores),
        storage_(loop, hostname_),
        fs_(hostname_ + ":/") {}

  NodeId id() const { return id_; }
  const std::string& hostname() const { return hostname_; }
  /// True if the node has a Fibre Channel HBA (direct SAN path; §5.2 says 8
  /// of the 32 nodes did — the rest reach the SAN via NFS).
  bool has_fc() const { return has_fc_; }

  CpuModel& cpu() { return cpu_; }
  LocalStorage& storage() { return storage_; }
  FileSystem& fs() { return fs_; }

  u16 alloc_ephemeral_port() { return next_port_++; }
  i32 alloc_pty_id() { return next_pty_++; }
  /// Restart recreates a pty under its checkpointed id; keep the counter
  /// ahead of it so later ptys stay unique.
  void reserve_pty_id(i32 id) { next_pty_ = std::max(next_pty_, id + 1); }

 private:
  NodeId id_;
  std::string hostname_;
  bool has_fc_;
  CpuModel cpu_;
  LocalStorage storage_;
  FileSystem fs_;
  u16 next_port_ = 40000;
  i32 next_pty_ = 0;
};

}  // namespace dsim::sim
