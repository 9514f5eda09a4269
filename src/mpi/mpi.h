// Mini-MPI: a restart-safe message-passing library over simulated sockets.
//
// This is the substrate the paper's distributed experiments need (§5.2):
// NAS kernels and ParGeant4 run "under MPICH2" or "under OpenMPI" — i.e.,
// over an MPI library whose daemons and rank processes are all part of the
// checkpointed computation. Mini-MPI provides point-to-point transfers and
// the collectives the workloads use (barrier, bcast, reduce, allreduce,
// alltoall), implemented as explicit stage machines whose progress lives in
// simulated memory — so a checkpoint can land anywhere inside a collective
// and the restarted process resumes it exactly (DESIGN.md §3.2).
//
// Simplifications versus real MPI (documented substitutions):
//  - messages are untagged; each (sender, receiver) pair exchanges a
//    protocol-agreed sequence of exactly-sized transfers;
//  - rank r's rendezvous listener lives on port kPortBase + r (unique
//    cluster-wide), and rank placement is round-robin over nodes.
#pragma once

#include "apps/app_util.h"
#include "sim/pctx.h"

namespace dsim::mpi {

using sim::Task;

inline constexpr int kMaxRanks = 160;
inline constexpr u16 kPortBase = 20000;

/// Thread-context register slots reserved for MPI internals. Application
/// code must keep to slots 0..7.
inline constexpr sim::RegSlot kRegA = 8;
inline constexpr sim::RegSlot kRegB = 9;

/// Persistent engine state (lives in the "mpi_state" segment).
struct MpiPersist {
  i32 rank = -1;
  i32 size = 0;
  i32 nnodes = 1;
  i32 lfd = kNoFd;
  u8 init_stage = 0;   // 0 listener, 1 connecting, 2 accepting, 3 done
  i32 connect_i = 0;   // next lower rank to connect to
  i32 accept_n = 0;    // higher ranks accepted so far
  i32 pend_fd = kNoFd; // in-flight handshake fd (init restart safety)
  i32 fds[kMaxRanks] = {};
  // Collective progress (one collective in flight per process).
  u32 coll_step = 0;
  u32 coll_sub = 0;
};

/// The engine. Construct fresh each run (also after restart); all durable
/// state is in simulated memory.
class Engine {
 public:
  /// rank/size/nnodes typically come from argv (set by mpirun).
  Engine(sim::ProcessCtx& ctx, int rank, int size, int nnodes,
         u64 scratch_bytes = 1 << 20);

  /// Establish the full mesh (restart-safe).
  Task<void> init();

  int rank() const { return cached_.rank; }
  int size() const { return cached_.size; }
  /// Node hosting a rank (round-robin placement, matching the runtimes).
  NodeId node_of(int rank) const { return rank % cached_.nnodes; }

  // Point-to-point. Both sides must agree on `len`.
  Task<void> send(int peer, sim::MemRef buf, u64 len);
  Task<void> recv(int peer, sim::MemRef buf, u64 len);

  // Collectives over doubles (enough for the NAS kernels). All restart-safe.
  Task<void> barrier();
  Task<void> bcast(int root, sim::MemRef buf, u64 len);
  /// Sum-reduce `count` doubles in place at every rank.
  Task<void> allreduce_sum(sim::MemRef buf, u64 count);
  /// Sum-reduce to root only.
  Task<void> reduce_sum(int root, sim::MemRef buf, u64 count);
  /// Each rank sends `block` bytes to every rank from sendbuf (size*block)
  /// into recvbuf (size*block) — the NAS/IS exchange pattern.
  Task<void> alltoall(sim::MemRef sendbuf, sim::MemRef recvbuf, u64 block);

 private:
  MpiPersist load() { return ctx_.load<MpiPersist>(stref_); }
  void store(const MpiPersist& p) {
    ctx_.store(stref_, p);
    cached_ = p;
  }
  Fd fd_of(int peer);

  sim::ProcessCtx& ctx_;
  sim::MemRef stref_;
  sim::MemRef scratch_;
  u64 scratch_bytes_;
  MpiPersist cached_;
};

/// Standard argv tail for MPI rank programs: [... rank size nnodes].
struct RankArgs {
  int rank = 0;
  int size = 1;
  int nnodes = 1;
};
RankArgs parse_rank_args(sim::ProcessCtx& ctx, size_t first_index);

}  // namespace dsim::mpi
