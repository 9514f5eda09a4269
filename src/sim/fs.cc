#include "sim/fs.h"

namespace dsim::sim {

std::shared_ptr<Inode> FileSystem::lookup(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : it->second;
}

std::shared_ptr<Inode> FileSystem::create(const std::string& path) {
  auto it = files_.find(path);
  if (it != files_.end()) return it->second;
  auto inode = std::make_shared<Inode>();
  files_.emplace(path, inode);
  return inode;
}

void FileSystem::set_read_only(const std::string& path, bool ro) {
  read_only_[path] = ro;
}

bool FileSystem::read_only(const std::string& path) const {
  auto it = read_only_.find(path);
  return it != read_only_.end() && it->second;
}

}  // namespace dsim::sim
