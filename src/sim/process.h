// Simulated processes and address spaces.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/byte_image.h"
#include "sim/thread.h"
#include "sim/vnode.h"
#include "util/types.h"

namespace dsim::sim {

class Interposer;

enum class MemKind : u8 {
  kData = 0,   // program state struct (segment "state" by convention)
  kHeap = 1,
  kStack = 2,
  kLib = 3,    // models mapped dynamic libraries (RunCMS's 540 libs)
  kShm = 4,    // shared mapping with a backing file (§4.5 rules)
};

/// One mapped memory region. Shared (kShm) segments are shared_ptr-shared
/// between processes, mirroring mmap(MAP_SHARED) of a common backing file.
struct MemSegment {
  u64 id = 0;
  std::string name;
  MemKind kind = MemKind::kHeap;
  bool shared = false;
  std::string backing_path;  // kShm: file the mapping is backed by
  ByteImage data;
};

class AddressSpace {
 public:
  /// Create a private zero-filled segment.
  MemSegment& add(std::string name, MemKind kind, u64 size);
  /// Attach an existing (shared) segment.
  void attach(std::shared_ptr<MemSegment> seg);
  /// Find by name (null if absent). Names are unique per process by
  /// convention (enforced by add()).
  MemSegment* find(const std::string& name);

  u64 total_bytes() const;
  const std::vector<std::shared_ptr<MemSegment>>& segments() const {
    return segs_;
  }
  std::vector<std::shared_ptr<MemSegment>>& segments() { return segs_; }
  void clear() { segs_.clear(); }

 private:
  std::vector<std::shared_ptr<MemSegment>> segs_;
  u64 next_id_ = 1;
};

enum class ProcState : u8 { kRunning, kZombie, kDead };

/// Signal dispositions — enough structure for checkpoint/restore fidelity
/// tests ("signal handlers" in the paper's restored-artifact inventory).
struct SignalTable {
  static constexpr int kNumSignals = 32;
  std::array<u8, kNumSignals> handler{};  // 0=default, 1=ignore, else id
  u32 blocked_mask = 0;
  bool operator==(const SignalTable&) const = default;
};

class Process {
 public:
  Process(Kernel& kernel, Pid pid, NodeId node, std::string prog_name,
          std::vector<std::string> argv,
          std::map<std::string, std::string> env, Pid ppid);
  ~Process();
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  Pid pid() const { return pid_; }
  Pid ppid() const { return ppid_; }
  void set_ppid(Pid p) { ppid_ = p; }
  NodeId node() const { return node_; }
  const std::string& prog_name() const { return prog_name_; }
  void set_prog_name(std::string n) { prog_name_ = std::move(n); }
  const std::vector<std::string>& argv() const { return argv_; }
  void set_argv(std::vector<std::string> a) { argv_ = std::move(a); }
  std::map<std::string, std::string>& env() { return env_; }
  const std::map<std::string, std::string>& env() const { return env_; }
  std::string env_or(const std::string& key, const std::string& dflt) const;

  FdTable& fds() { return fds_; }
  AddressSpace& mem() { return mem_; }
  SignalTable& signals() { return signals_; }
  i32& ctty() { return ctty_; }

  Thread& add_thread(ThreadKind kind);
  Thread* find_thread(Tid tid);
  std::vector<std::unique_ptr<Thread>>& threads() { return threads_; }

  ProcState state() const { return state_; }
  void set_state(ProcState s) { state_ = s; }
  int exit_code() const { return exit_code_; }
  void set_exit_code(int c) { exit_code_ = c; }

  std::vector<Pid>& children() { return children_; }
  WaitQueue& child_exit_wq() { return child_exit_wq_; }

  /// DMTCP hijack runtime, when running under checkpoint control.
  Interposer* interposer() const { return interposer_.get(); }
  void set_interposer(std::shared_ptr<Interposer> ip) {
    interposer_ = std::move(ip);
  }

  Kernel& kernel() { return kernel_; }

 private:
  Kernel& kernel_;
  Pid pid_;
  NodeId node_;
  std::string prog_name_;
  std::vector<std::string> argv_;
  std::map<std::string, std::string> env_;
  Pid ppid_;
  FdTable fds_;
  AddressSpace mem_;
  SignalTable signals_;
  i32 ctty_ = -1;
  std::vector<std::unique_ptr<Thread>> threads_;
  Tid next_tid_ = 1;
  ProcState state_ = ProcState::kRunning;
  int exit_code_ = 0;
  std::vector<Pid> children_;
  WaitQueue child_exit_wq_;
  std::shared_ptr<Interposer> interposer_;
};

/// Helper used where only the pid is needed without including process.h.
Pid process_pid_of(Process& p);

}  // namespace dsim::sim
