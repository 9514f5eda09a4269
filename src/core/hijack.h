// The DMTCP hijack library: per-process checkpoint runtime.
//
// Injected at process start (the simulator's LD_PRELOAD, §4.2), it:
//   - spawns the checkpoint manager thread;
//   - connects to the coordinator and registers the process;
//   - wraps the five calls whose result it changes: pipe (promoted to a
//     socketpair, §4.5), spawn (the child runs under checkpoint control,
//     §3, and re-forks on a virtual-pid conflict, §4.5), getpid and
//     waitpid (virtual pids, §4.5) and accept (connections pre-accepted at
//     suspend time). The state DMTCP's other §4.2 wrappers record, it reads
//     from the kernel's descriptor table at checkpoint time
//     (build_conn_table);
//   - executes the seven checkpoint stages with six barriers (§4.3) and the
//     resume-from-restart path (§4.4 steps 5-7).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "core/conn_table.h"
#include "core/ids.h"
#include "core/protocol.h"
#include "core/stats.h"
#include "mtcp/mtcp.h"
#include "sim/interposer.h"
#include "sim/pctx.h"

namespace dsim::core {

using sim::Task;

class Hijack final : public sim::Interposer {
 public:
  /// Fresh attach at process start.
  Hijack(sim::Process& p, std::shared_ptr<DmtcpShared> shared);
  /// Reconstructed by dmtcp_restart for a restored process. `table` carries
  /// the connection table (with drained data) from the checkpoint image.
  static std::shared_ptr<Hijack> make_restored(
      sim::Process& p, std::shared_ptr<DmtcpShared> shared, ConnTable table,
      Pid vpid, Pid virt_ppid, UniquePid upid, int expected_procs);

  // --- Interposer lifecycle ---
  void on_attach() override;
  void on_process_exit() override;

  // --- wrapped syscalls ---
  Task<std::pair<Fd, Fd>> wrap_pipe(sim::ProcessCtx& ctx) override;
  Task<Pid> wrap_spawn(sim::ProcessCtx& ctx, NodeId node, std::string prog,
                       std::vector<std::string> argv,
                       std::map<std::string, std::string> env) override;
  Pid wrap_getpid(sim::ProcessCtx& ctx) override;
  Task<int> wrap_waitpid(sim::ProcessCtx& ctx, Pid child) override;
  Task<Fd> wrap_accept(sim::ProcessCtx& ctx, Fd fd) override;

  // --- dmtcpaware surface (see core/dmtcpaware.h) ---
  void delay_lock() { ++delay_count_; }
  void delay_unlock() { --delay_count_; }
  int completed_generations() const { return generations_; }
  /// Incremental mode: the scan memo of each live private segment, by name.
  const std::map<std::string, mtcp::SegmentMemo>& scan_memo() const {
    return scan_memo_;
  }

  UniquePid upid() const { return upid_; }
  Pid vpid() const { return vpid_; }
  DmtcpShared& shared() { return *shared_; }
  sim::Process& process() { return p_; }

 private:
  friend Task<void> hijack_manager_entry(Hijack* h, sim::ProcessCtx* ctx);

  Task<void> manager_main(sim::ProcessCtx& ctx);
  Task<void> do_checkpoint(sim::ProcessCtx& ctx, int round);
  Task<void> restart_resume(sim::ProcessCtx& ctx);

  // Stage helpers.
  void suspend_user_threads();
  void resume_user_threads();
  int flush_accept_backlogs();
  ConnTable build_conn_table();
  /// Concurrent token-flush / drain / handshake over all led sockets.
  Task<void> drain_all(sim::ProcessCtx& ctx, ConnTable& table);
  /// Concurrent refill: exchange drained blobs and re-send (§4.3 step 6).
  Task<void> refill_all(sim::ProcessCtx& ctx, const ConnTable& table);
  /// Stage 5: write this round's image; returns the record the manager
  /// reports to the coordinator.
  Task<ImageStats> write_image(sim::ProcessCtx& ctx, int round,
                               const ConnTable& table);
  Task<void> barrier(sim::ProcessCtx& ctx, const std::string& name,
                     int expected = 0);
  std::string ckpt_path() const;
  sim::TcpVNode* coord_sock();
  sim::TcpVNode* vnode_for_desc(u64 desc_id);

  sim::Process& p_;
  std::shared_ptr<DmtcpShared> shared_;
  Pid vpid_ = kNoPid;
  Pid virt_ppid_ = kNoPid;
  UniquePid upid_{};
  Fd coord_fd_ = kNoFd;
  bool is_restored_ = false;
  int restart_expected_ = 0;
  ConnTable restored_table_;
  int delay_count_ = 0;
  int generations_ = 0;
  /// Fresh attach found its pid already used as a virtual pid (§4.5); the
  /// parent's fork wrapper kills this child and forks again.
  bool conflicted_ = false;
  /// Pre-accepted connections flushed from listener backlogs at suspend
  /// time: listener description id -> fds ready to hand to accept().
  std::map<u64, std::deque<Fd>> preaccepted_;
  /// Incremental mode: each live private segment's last scan, by name, so
  /// the next generation rescans only what the process wrote since.
  std::map<std::string, mtcp::SegmentMemo> scan_memo_;
  /// Chunk-store mode: the nodes the latest drain wrote, filled when its
  /// writes land; the next --sync previous flushes each of them.
  std::shared_ptr<std::set<NodeId>> written_;
};

}  // namespace dsim::core
