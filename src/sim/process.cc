#include "sim/process.h"

#include "sim/interposer.h"
#include "sim/kernel.h"
#include "util/assertx.h"

namespace dsim::sim {

MemSegment& AddressSpace::add(std::string name, MemKind kind, u64 size) {
  DSIM_CHECK_MSG(find(name) == nullptr, "duplicate segment name");
  auto seg = std::make_shared<MemSegment>();
  seg->id = next_id_++;
  seg->name = std::move(name);
  seg->kind = kind;
  seg->data = ByteImage(size);
  segs_.push_back(seg);
  return *segs_.back();
}

void AddressSpace::attach(std::shared_ptr<MemSegment> seg) {
  DSIM_CHECK_MSG(find(seg->name) == nullptr, "duplicate segment name");
  segs_.push_back(std::move(seg));
}

MemSegment* AddressSpace::find(const std::string& name) {
  for (auto& s : segs_) {
    if (s->name == name) return s.get();
  }
  return nullptr;
}

u64 AddressSpace::total_bytes() const {
  u64 acc = 0;
  for (const auto& s : segs_) acc += s->data.size();
  return acc;
}

Process::Process(Kernel& kernel, Pid pid, NodeId node, std::string prog_name,
                 std::vector<std::string> argv,
                 std::map<std::string, std::string> env, Pid ppid)
    : kernel_(kernel),
      pid_(pid),
      node_(node),
      prog_name_(std::move(prog_name)),
      argv_(std::move(argv)),
      env_(std::move(env)),
      ppid_(ppid) {}

Process::~Process() = default;

std::string Process::env_or(const std::string& key,
                            const std::string& dflt) const {
  auto it = env_.find(key);
  return it == env_.end() ? dflt : it->second;
}

Thread& Process::add_thread(ThreadKind kind) {
  threads_.push_back(
      std::make_unique<Thread>(kernel_, *this, next_tid_++, kind));
  return *threads_.back();
}

Thread* Process::find_thread(Tid tid) {
  for (auto& t : threads_) {
    if (t->tid() == tid) return t.get();
  }
  return nullptr;
}

Pid process_pid_of(Process& p) { return p.pid(); }

}  // namespace dsim::sim
