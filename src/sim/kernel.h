// The simulated cluster kernel.
//
// Owns the event loop, nodes, network, filesystems, processes and sockets,
// and implements the syscall layer ProcessCtx exposes to programs. All
// blocking operations are coroutines parameterized by the calling Thread.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_loop.h"
#include "sim/ipc.h"
#include "sim/net.h"
#include "sim/node.h"
#include "sim/process.h"
#include "sim/program.h"
#include "sim/socket.h"
#include "sim/task.h"
#include "util/rng.h"
#include "util/types.h"

namespace dsim::sim {

class Interposer;

/// Where a path's bytes are charged (DESIGN.md §1, storage substitution).
enum class StorageBackend : u8 { kLocalDisk, kShared };

struct KernelConfig {
  int num_nodes = 1;
  int cores_per_node = 4;
  int san_direct_nodes = 0;  // nodes [0, n) get Fibre Channel HBAs
  u64 seed = 0x5eed;
  double jitter_sigma = 0.0;  // multiplicative device jitter (error bars)
};

class Kernel {
 public:
  explicit Kernel(const KernelConfig& cfg);
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  EventLoop& loop() { return loop_; }
  Network& net() { return net_; }
  Node& node(NodeId id);
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  Rng& rng() { return rng_; }
  ProgramRegistry& programs() { return programs_; }
  FileSystem& shared_fs() { return shared_fs_; }

  /// Install the DMTCP attach hook: invoked for every new process whose
  /// environment carries DMTCP_ENABLED=1 (set by dmtcp_checkpoint and
  /// propagated through spawn/ssh).
  using AttachFactory =
      std::function<std::shared_ptr<Interposer>(Process&)>;
  void set_attach_factory(AttachFactory f) { attach_factory_ = std::move(f); }

  // --- process management ---------------------------------------------------
  Pid spawn_process(NodeId node, const std::string& prog,
                    std::vector<std::string> argv,
                    std::map<std::string, std::string> env, Pid ppid = kNoPid,
                    const FdTable* inherit_fds = nullptr);
  Process* find_process(Pid pid);
  /// Forcibly terminate (SIGKILL analogue). Safe on already-dead pids.
  void kill_process(Pid pid);
  /// Wait for a child to exit; returns its exit code.
  Task<int> wait_child(Thread& t, Pid child);
  /// Called (deferred) when any thread's body completes.
  void on_thread_done(Pid pid, Tid tid);
  /// All live (non-dead) pids, ascending.
  std::vector<Pid> live_pids() const;

  /// Create a bare child for restart: inherits node/fds/env of `parent`,
  /// runs nothing until `start_restored`. (§4.4 step 3: the unified restart
  /// process forks into user processes.)
  Process& fork_bare_child(Process& parent);
  /// Populate and launch a restored process: program identity, thread
  /// contexts, restored flag. Threads begin executing on the event loop.
  void start_restored(Process& p, const std::string& prog_name,
                      std::vector<std::string> argv,
                      const std::vector<ThreadContext>& threads,
                      bool start_suspended = true);  // argv: from the image
  /// Start a (fresh) process's threads for the given program.
  void start_fresh(Process& p);

  // --- time / cpu -------------------------------------------------------------
  Task<void> sleep_for(Thread& t, SimTime dt);
  Task<void> cpu_burst(Thread& t, double core_seconds);

  // --- sockets ----------------------------------------------------------------
  std::shared_ptr<OpenFile> make_socket(Process& p, bool unix_domain);
  bool sock_bind(Process& p, TcpVNode& s, u16 port);
  void sock_listen(Process& p, TcpVNode& s);
  Task<std::shared_ptr<OpenFile>> sock_accept(Thread& t, TcpVNode& s);
  Task<bool> sock_connect(Thread& t, TcpVNode& s, SockAddr addr);
  /// Send up to `bytes.size()` (bounded by send-buffer space); blocks until
  /// at least one byte can be queued. Returns bytes queued.
  Task<u64> sock_send(Thread& t, TcpVNode& s, std::span<const std::byte> bytes,
                      SegKind kind = SegKind::kData);
  /// sock_send of a data buffer the caller hands over. When every byte is
  /// accepted and fits in one kTcpSegmentBytes segment, the buffer itself
  /// becomes the segment; otherwise the accepted prefix is copied as
  /// sock_send copies it. The queued segments are the same either way.
  Task<u64> sock_send_owned(Thread& t, TcpVNode& s,
                            std::vector<std::byte> bytes);
  /// Receive data bytes; blocks until data or EOF (returns 0).
  Task<u64> sock_recv(Thread& t, TcpVNode& s, std::span<std::byte> out);
  /// sock_recv straight into simulated memory: up to `len` bytes of the
  /// front segment go to `dst` at `off`, with the extents, soft-dirty ranges
  /// and observer calls of the ByteImage::write a copy out of a span would
  /// make. A step that takes a whole segment hands its buffer to
  /// ByteImage::write_owned, which keeps it where that leaves write()'s
  /// extent layout (over a range write() replaces, or over exactly one
  /// uniquely owned extent) and copies it in place inside a larger one.
  Task<u64> sock_recv_into(Thread& t, TcpVNode& s, ByteImage& dst, u64 off,
                           u64 len);
  /// Manager-plane: pop the next whole segment of any kind (drain protocol).
  Task<SockSegment> sock_recv_segment(Thread& t, TcpVNode& s);
  /// Manager-plane: push a whole segment (token / ctrl / refill payload).
  Task<void> sock_send_segment(Thread& t, TcpVNode& s, SockSegment seg);
  /// Non-blocking variants for the manager's multi-socket drain/refill state
  /// machines (a blocking per-socket loop could deadlock across processes).
  bool try_send_segment(TcpVNode& s, SockSegment seg);
  std::optional<SockSegment> try_recv_segment(TcpVNode& s);
  /// Non-blocking accept (used to flush listener backlogs at suspend time).
  std::shared_ptr<OpenFile> try_accept(TcpVNode& s);
  std::pair<std::shared_ptr<OpenFile>, std::shared_ptr<OpenFile>>
  make_socketpair(Process& p);
  void on_socket_close(TcpVNode& s);
  /// Host work of user-plane receives: data bytes whose segment buffer an
  /// image kept as is, and data bytes copied out of a segment.
  u64 recv_adopted_bytes() const { return recv_adopted_bytes_; }
  u64 recv_copied_bytes() const { return recv_copied_bytes_; }

  // --- pipes / ptys -------------------------------------------------------------
  std::pair<std::shared_ptr<OpenFile>, std::shared_ptr<OpenFile>> make_pipe(
      Process& p);
  /// A pty pair named /dev/pts/<id> on `p`'s node: the node's next id, or
  /// `id` when restart recreates a checkpointed pair.
  std::pair<std::shared_ptr<OpenFile>, std::shared_ptr<OpenFile>> make_pty(
      Process& p, i32 id = -1);
  Task<u64> pipe_read(Thread& t, PipeVNode& v, std::span<std::byte> out);
  Task<u64> pipe_write(Thread& t, PipeVNode& v,
                       std::span<const std::byte> bytes);
  Task<u64> pty_read(Thread& t, PtyVNode& v, std::span<std::byte> out);
  Task<u64> pty_write(Thread& t, PtyVNode& v, std::span<const std::byte> bytes);

  // --- files ---------------------------------------------------------------------
  struct OpenFlags {
    bool create = false;
    bool truncate = false;
    bool append = false;
  };
  std::shared_ptr<OpenFile> open_file(Process& p, const std::string& path,
                                      OpenFlags flags);
  Task<u64> file_read(Thread& t, OpenFile& of, std::span<std::byte> out);
  Task<u64> file_write(Thread& t, OpenFile& of,
                       std::span<const std::byte> bytes);
  /// Resolve which filesystem serves `path` on `node`.
  FileSystem& fs_for(NodeId node, const std::string& path);
  StorageBackend backend_for(const std::string& path) const;
  /// Charge a transfer of `bytes` against the storage serving `path` for
  /// `node`, without touching any file content. Blocking variant.
  Task<void> charge_storage(Thread& t, NodeId node, const std::string& path,
                            u64 bytes, bool is_read);
  /// Fire-and-forget variant (forked checkpointing's background writer).
  void charge_storage_bg(NodeId node, const std::string& path, u64 bytes,
                         bool is_read, std::function<void()> done);
  /// Issue a sync on the storage backing `path` (the §5.2 experiment).
  Task<void> sync_storage(Thread& t, NodeId node, const std::string& path);
  /// Callback variant (the chunk-store drain's --sync flush).
  void sync_storage_bg(NodeId node, const std::string& path,
                       std::function<void()> done);
  /// Account checkpoint-store GC: drop `bytes` of dead-generation data from
  /// the storage serving `path` at metadata (trim) rate.
  void discard_storage(NodeId node, const std::string& path, u64 bytes);

  /// Close a descriptor-table entry with full close semantics.
  void close_fd(Process& p, Fd fd);
  /// Run close side effects for a released description reference.
  void release_description(std::shared_ptr<OpenFile> of);

  /// Shared-memory mapping (mmap MAP_SHARED of a backing file, §4.5).
  std::shared_ptr<MemSegment> mmap_shared(Process& p, const std::string& path,
                                          u64 size);

  u64 next_description_id() { return next_description_id_++; }
  /// Restart preserves checkpoint-time description ids; keep the counter
  /// ahead of every restored id so new descriptions stay unique.
  void reserve_description_ids(u64 max_seen) {
    next_description_id_ = std::max(next_description_id_, max_seen + 1);
  }

 private:
  // The one TCP send core: queues the bytes of `owned` when it is not
  // empty, else of `bytes`.
  Task<u64> send_data(Thread& t, TcpVNode& s, std::span<const std::byte> bytes,
                      std::vector<std::byte> owned, SegKind kind);
  // The one TCP receive core: waits for data or EOF (returns 0), consumes
  // up to `max` bytes of the front segment, reopens the peer's window and
  // then hands the bytes to `sink(bytes, whole)`. `whole` is the segment's
  // buffer when the step consumed all of it from its start, else empty;
  // the sink returns whether it kept that buffer.
  template <typename Sink>
  Task<u64> recv_data(Thread& t, TcpVNode& s, u64 max, Sink sink);
  void pump_socket(std::shared_ptr<TcpVNode> s);
  void linger_poll(std::shared_ptr<TcpVNode> s);
  void process_exit(Process& p);
  StorageDevice& shared_device_for(NodeId node);

  KernelConfig cfg_;
  EventLoop loop_;
  Rng rng_;
  Network net_;
  std::vector<std::unique_ptr<Node>> nodes_;
  FileSystem shared_fs_;
  StorageDevice san_dev_;
  StorageDevice nfs_dev_;
  ProgramRegistry programs_;
  std::map<Pid, std::unique_ptr<Process>> procs_;
  Pid next_pid_ = 100;
  std::map<SockAddr, std::weak_ptr<TcpVNode>> listeners_;
  // Sockets with peers keep each other alive through OpenFiles; the kernel
  // only tracks listener bindings.
  u64 next_description_id_ = 1;
  u32 next_conn_seq_ = 1;
  std::map<std::string, std::weak_ptr<MemSegment>> shm_live_;
  AttachFactory attach_factory_;
  u64 recv_adopted_bytes_ = 0;
  u64 recv_copied_bytes_ = 0;
};

}  // namespace dsim::sim
