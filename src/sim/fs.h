// Flat-namespace filesystems.
//
// Each node has a local filesystem; the cluster mounts a shared one at
// /shared (SAN-backed, reachable directly over Fibre Channel from nodes
// with HBAs and via NFS from the rest — the Fig.-5b configuration). Paths
// are canonical absolute strings; directories are implicit.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "sim/vnode.h"
#include "util/types.h"

namespace dsim::sim {

class FileSystem {
 public:
  explicit FileSystem(std::string name) : name_(std::move(name)) {}

  std::shared_ptr<Inode> lookup(const std::string& path) const;
  /// Get-or-create.
  std::shared_ptr<Inode> create(const std::string& path);
  bool exists(const std::string& path) const { return files_.count(path) > 0; }
  const std::string& name() const { return name_; }
  /// Permission bit used by the shared-memory restore rules (§4.5).
  void set_read_only(const std::string& path, bool ro);
  bool read_only(const std::string& path) const;

 private:
  std::string name_;
  std::map<std::string, std::shared_ptr<Inode>> files_;
  std::map<std::string, bool> read_only_;
};

}  // namespace dsim::sim
