#include "mpi/mpi.h"

#include "util/assertx.h"

namespace dsim::mpi {

using apps::buffer;
using sim::MemRef;

namespace {
// Sub-state for in-flight init handshakes (field of MpiPersist via copy).
}  // namespace

Engine::Engine(sim::ProcessCtx& ctx, int rank, int size, int nnodes,
               u64 scratch_bytes)
    : ctx_(ctx), scratch_bytes_(scratch_bytes) {
  DSIM_CHECK(size <= kMaxRanks);
  sim::MemSegment* st = ctx.seg("mpi_state");
  if (!st) {
    st = &ctx.alloc("mpi_state", sim::MemKind::kData, sizeof(MpiPersist));
    MpiPersist fresh;
    fresh.rank = rank;
    fresh.size = size;
    fresh.nnodes = nnodes;
    fresh.pend_fd = kNoFd;
    for (auto& f : fresh.fds) f = kNoFd;
    ctx.store(MemRef{st, 0}, fresh);
  }
  stref_ = MemRef{st, 0};
  scratch_ = buffer(ctx, "mpi_scratch", scratch_bytes);
  cached_ = ctx.load<MpiPersist>(stref_);
}

Fd Engine::fd_of(int peer) {
  DSIM_CHECK(peer >= 0 && peer < cached_.size && peer != cached_.rank);
  const Fd fd = cached_.fds[peer];
  DSIM_CHECK_MSG(fd != kNoFd, "MPI: no connection to peer (init incomplete?)");
  return fd;
}

Task<void> Engine::init() {
  MpiPersist p = load();
  MemRef hello_out = buffer(ctx_, "mpi_hello_out", 4);
  MemRef hello_in = buffer(ctx_, "mpi_hello_in", 4);

  if (p.init_stage == 0) {
    const Fd lfd = co_await ctx_.socket();
    const bool ok =
        co_await ctx_.bind(lfd, static_cast<u16>(kPortBase + p.rank));
    DSIM_CHECK_MSG(ok, "MPI: rank rendezvous port taken");
    co_await ctx_.listen(lfd);
    p.lfd = lfd;
    ctx_.store<i32>(hello_out, p.rank);
    p.init_stage = 1;
    store(p);
  }
  if (p.init_stage == 1) {
    // Connect to all lower ranks; identify ourselves with a 4-byte hello.
    while (p.connect_i < p.rank) {
      const int j = p.connect_i;
      if (p.pend_fd == kNoFd) {
        const Fd fd = co_await ctx_.socket();
        p.pend_fd = fd;
        store(p);
      }
      if (sim::TcpVNode* s = ctx_.fd_tcp(p.pend_fd);
          s && s->state == sim::TcpVNode::State::kRaw) {
        const sim::SockAddr addr{node_of(j),
                                 static_cast<u16>(kPortBase + j)};
        while (!co_await ctx_.connect(p.pend_fd, addr)) {
          co_await ctx_.sleep(2 * timeconst::kMillisecond);
        }
      }
      co_await ctx_.write_exact(p.pend_fd, hello_out, 4, kRegA);
      p.fds[j] = p.pend_fd;
      p.pend_fd = kNoFd;
      p.connect_i = j + 1;
      store(p);
    }
    p.init_stage = 2;
    store(p);
  }
  if (p.init_stage == 2) {
    // Accept from all higher ranks; they identify themselves.
    while (p.accept_n < p.size - 1 - p.rank) {
      if (p.pend_fd == kNoFd) {
        const Fd fd = co_await ctx_.accept(p.lfd);
        DSIM_CHECK(fd != kNoFd);
        p.pend_fd = fd;
        store(p);
      }
      co_await ctx_.read_exact(p.pend_fd, hello_in, 4, kRegB);
      const i32 peer = ctx_.load<i32>(hello_in);
      DSIM_CHECK(peer > p.rank && peer < p.size);
      p.fds[peer] = p.pend_fd;
      p.pend_fd = kNoFd;
      p.accept_n++;
      store(p);
    }
    p.init_stage = 3;
    store(p);
  }
}

Task<void> Engine::send(int peer, MemRef buf, u64 len) {
  co_await ctx_.write_exact(fd_of(peer), buf, len, kRegA);
}

Task<void> Engine::recv(int peer, MemRef buf, u64 len) {
  co_await ctx_.read_exact(fd_of(peer), buf, len, kRegB);
}

// Collectives use flat deterministic schedules: progress is a single
// coll_step counter, which makes the restart contract trivial to audit.
// (Tree algorithms would shave latency but change nothing the experiments
// measure.)

Task<void> Engine::reduce_sum(int root, MemRef buf, u64 count) {
  MpiPersist p = load();
  const u64 bytes = count * sizeof(double);
  DSIM_CHECK(bytes <= scratch_bytes_);
  if (p.rank != root) {
    if (p.coll_step == 0) {
      co_await send(root, buf, bytes);
      p.coll_step = 0;  // single-step op; falls through to completion
      store(p);
    }
  } else {
    while (p.coll_step < static_cast<u32>(p.size - 1)) {
      const int peer =
          (root + 1 + static_cast<int>(p.coll_step)) % p.size;
      co_await recv(peer, scratch_, bytes);
      // Accumulate (atomic with the step bump: no awaits in between).
      std::vector<double> acc(count), in(count);
      buf.seg->data.read(buf.off, std::as_writable_bytes(std::span(acc)));
      scratch_.seg->data.read(scratch_.off,
                              std::as_writable_bytes(std::span(in)));
      for (u64 i = 0; i < count; ++i) acc[i] += in[i];
      buf.seg->data.write(buf.off, std::as_bytes(std::span(acc)));
      p.coll_step++;
      store(p);
    }
  }
  p.coll_step = 0;
  store(p);
}

Task<void> Engine::bcast(int root, MemRef buf, u64 len) {
  MpiPersist p = load();
  DSIM_CHECK(len <= scratch_bytes_ || p.rank == root);
  if (p.rank == root) {
    while (p.coll_step < static_cast<u32>(p.size - 1)) {
      const int peer = (root + 1 + static_cast<int>(p.coll_step)) % p.size;
      co_await send(peer, buf, len);
      p.coll_step++;
      store(p);
    }
  } else {
    if (p.coll_step == 0) {
      co_await recv(root, buf, len);
      p.coll_step = 1;
      store(p);
    }
  }
  p.coll_step = 0;
  store(p);
}

Task<void> Engine::allreduce_sum(MemRef buf, u64 count) {
  // reduce to rank 0, then bcast. Both restart-safe; the pair is sequenced
  // by the application's own stage (allreduce is one app-visible await).
  MpiPersist p = load();
  if (p.coll_sub == 0) {
    co_await reduce_sum(0, buf, count);
    p = load();
    p.coll_sub = 1;
    store(p);
  }
  co_await bcast(0, buf, count * sizeof(double));
  p = load();
  p.coll_sub = 0;
  store(p);
}

Task<void> Engine::barrier() {
  // An 8-byte allreduce serves as the barrier.
  MemRef tok = buffer(ctx_, "mpi_barrier_tok", sizeof(double));
  co_await allreduce_sum(tok, 1);
}

Task<void> Engine::alltoall(MemRef sendbuf, MemRef recvbuf, u64 block) {
  MpiPersist p = load();
  DSIM_CHECK(block <= scratch_bytes_);
  // Self-block copy first (step 0), then pairwise exchange rounds.
  if (p.coll_step == 0) {
    auto self = sendbuf.seg->data.materialize(
        sendbuf.off + static_cast<u64>(p.rank) * block, block);
    recvbuf.seg->data.write(recvbuf.off + static_cast<u64>(p.rank) * block,
                            self);
    p.coll_step = 1;
    store(p);
  }
  while (p.coll_step < static_cast<u32>(p.size)) {
    const int s = static_cast<int>(p.coll_step);
    const int peer = (p.rank + s) % p.size;
    const int from = (p.rank - s + p.size) % p.size;
    // Send my block destined for `peer`; receive `from`'s block for me.
    // Distinct peers, so a fixed order cannot deadlock. The send completion
    // is persisted (coll_sub) so a restart never re-sends a block.
    MemRef sblk = sendbuf.at(static_cast<u64>(peer) * block);
    MemRef rblk = recvbuf.at(static_cast<u64>(from) * block);
    if (p.coll_sub == 0) {
      co_await send(peer, sblk, block);
      p.coll_sub = 1;
      store(p);
    }
    co_await recv(from, rblk, block);
    p.coll_sub = 0;
    p.coll_step++;
    store(p);
  }
  p.coll_step = 0;
  store(p);
}

RankArgs parse_rank_args(sim::ProcessCtx& ctx, size_t first_index) {
  RankArgs a;
  a.rank = static_cast<int>(apps::argi(ctx, first_index, 0));
  a.size = static_cast<int>(apps::argi(ctx, first_index + 1, 1));
  a.nnodes = static_cast<int>(apps::argi(ctx, first_index + 2, 1));
  return a;
}

}  // namespace dsim::mpi
