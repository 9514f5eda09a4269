#include "apps/distributed.h"

#include "apps/app_util.h"
#include "mpi/mpi.h"
#include "util/assertx.h"

namespace dsim::apps {
namespace {

using mpi::Engine;
using sim::MemRef;
using sim::Task;

// Aggregates estimated from Fig. 4c; per-rank footprint = agg / np.
const std::vector<NasConfig> kNas = {
    {"ep", 800, 0.55, 8 * 1024, 2.0, 128},
    {"is", 4000, 0.965, 32 * 1024, 0.8, 128},   // huge mostly-zero buckets
    {"cg", 1700, 0.60, 24 * 1024, 1.5, 128},
    {"mg", 3200, 0.62, 48 * 1024, 1.2, 128},
    {"lu", 4500, 0.62, 16 * 1024, 1.8, 128},
    {"sp", 6800, 0.62, 40 * 1024, 1.6, 36},
    {"bt", 10000, 0.62, 40 * 1024, 1.8, 36},
};

/// Allocate the kernel's memory: real working arrays plus pattern ballast
/// sized so the image matches the paper's footprint.
void build_rank_memory(sim::ProcessCtx& ctx, const NasConfig& cfg, int rank,
                       int np) {
  if (ctx.seg("ballast")) return;  // restored
  const u64 per_rank =
      static_cast<u64>(cfg.agg_mb * 1024.0 * 1024.0 / np);
  const u64 working = 2ull << 20;  // real arrays the kernel touches
  const u64 ballast = per_rank > working ? per_rank - working : 0;
  auto& b = ctx.alloc("ballast", sim::MemKind::kHeap, ballast);
  const u64 zeros = static_cast<u64>(static_cast<double>(ballast) *
                                     cfg.zero_frac);
  if (zeros < ballast) {
    b.data.fill(zeros, ballast - zeros, sim::ExtentKind::kRand,
                mix_seed(0xba11, static_cast<u64>(rank)));
  }
  ctx.alloc("arrays", sim::MemKind::kHeap, working);
}

/// MPI init, once per rank: the flag lives in the stored state, so a
/// restored rank skips it and keeps the connections its image carries.
template <class State>
Task<void> init_once(Engine& mpi, StateView<State>& st, State& s) {
  if (s.init_done) co_return;
  co_await mpi.init();
  s.init_done = 1;
  st.set(s);
}

struct NasState {
  u64 iter = 0;
  u64 acc = 0;
  u8 stage = 0;
  u8 init_done = 0;
  u8 pad_[6] = {};  // explicit: stored state must have no padding bits
};

// nas <kernel> <iters> <result> <rank> <np> <nnodes>
Task<int> nas_main(sim::ProcessCtx& ctx) {
  const std::string kernel = args(ctx, 0, "ep");
  const u64 iters = static_cast<u64>(argi(ctx, 1, 50));
  const std::string result = args(ctx, 2, "nas");
  const auto ra = mpi::parse_rank_args(ctx, 3);
  const NasConfig& cfg = nas_config(kernel);

  build_rank_memory(ctx, cfg, ra.rank, ra.size);
  StateView<NasState> st(ctx);
  Engine mpi(ctx, ra.rank, ra.size, ra.nnodes,
             std::max<u64>(cfg.msg_bytes * 2, 1 << 20));
  NasState s = st.get();

  co_await init_once(mpi, st, s);

  MemRef arrays = buffer(ctx, "arrays", 2ull << 20);
  MemRef halo_out = buffer(ctx, "halo_out", cfg.msg_bytes);
  MemRef halo_in = buffer(ctx, "halo_in", cfg.msg_bytes);
  MemRef red = buffer(ctx, "red", 8 * sizeof(double));
  // IS uses an all-to-all key exchange.
  const u64 a2a_block = 2048;
  MemRef a2a_s = buffer(ctx, "a2a_s", a2a_block * static_cast<u64>(ra.size));
  MemRef a2a_r = buffer(ctx, "a2a_r", a2a_block * static_cast<u64>(ra.size));

  std::vector<double> v(256);
  std::vector<std::byte> noise(v.size());
  while (s.iter < iters) {
    switch (s.stage) {
      case 0: {  // local compute touching real arrays
        co_await ctx.cpu_chunked(cfg.cpu_ms_per_it * 1e-3, 0);
        // EP: tally pseudo-random pairs; CG: sparse mat-vec flavored
        // update; grids: stencil sweep. All reduce to array writes.
        arrays.seg->data.read(arrays.off + (s.iter % 64) * 2048,
                              std::as_writable_bytes(std::span(v)));
        fill_payload(noise, s.acc, s.iter);
        for (size_t i = 0; i < v.size(); ++i) {
          v[i] = v[i] * 0.75 + static_cast<double>(noise[i]) / 256.0;
        }
        arrays.seg->data.write(arrays.off + (s.iter % 64) * 2048,
                               std::as_bytes(std::span(v)));
        s.acc = mix_seed(s.acc, s.iter);
        s.stage = 1;
        st.set(s);
        break;
      }
      case 1: {  // halo / neighbour exchange, first half (EP skips it)
        if (kernel == "ep" || ra.size == 1) {
          s.stage = 3;
          st.set(s);
          break;
        }
        if (kernel == "is") {
          // alltoall persists its own progress in MpiPersist.
          co_await mpi.alltoall(a2a_s, a2a_r, a2a_block);
          s.stage = 3;
          st.set(s);
          break;
        }
        // Ring halo; rank parity breaks deadlocks. Each point-to-point op
        // gets its own stage so a restart never re-sends a completed half
        // (the restart contract, DESIGN.md §3.2).
        if (ra.rank % 2 == 0) {
          co_await mpi.send((ra.rank + 1) % ra.size, halo_out,
                            cfg.msg_bytes);
        } else {
          co_await mpi.recv((ra.rank + ra.size - 1) % ra.size, halo_in,
                            cfg.msg_bytes);
        }
        s.stage = 2;
        st.set(s);
        break;
      }
      case 2: {  // halo exchange, second half
        if (ra.rank % 2 == 0) {
          co_await mpi.recv((ra.rank + ra.size - 1) % ra.size, halo_in,
                            cfg.msg_bytes);
        } else {
          co_await mpi.send((ra.rank + 1) % ra.size, halo_out,
                            cfg.msg_bytes);
        }
        s.stage = 3;
        st.set(s);
        break;
      }
      case 3: {  // periodic residual reduction
        if (s.iter % 4 == 3 && ra.size > 1) {
          ctx.store<double>(red, static_cast<double>(s.acc % 1000));
          co_await mpi.allreduce_sum(red, 1);
        }
        s.stage = 0;
        s.iter++;
        st.set(s);
        break;
      }
    }
  }
  // Final checksum agreement.
  if (s.stage != 9) {
    ctx.store<double>(red, static_cast<double>(s.acc % 100000));
    if (ra.size > 1) co_await mpi.allreduce_sum(red, 1);
    if (ra.rank == 0) {
      char out[96];
      std::snprintf(out, sizeof out, "sum=%.0f iters=%llu np=%d",
                    ctx.load<double>(red),
                    static_cast<unsigned long long>(s.iter), ra.size);
      co_await write_result(ctx, result, out);
    }
    s.stage = 9;
    st.set(s);
  }
  co_return 0;
}

// hello <result> <rank> <np> <nnodes> — the Fig. 4 "Baseline" rows.
Task<int> hello_main(sim::ProcessCtx& ctx) {
  const std::string result = args(ctx, 0, "hello");
  const auto ra = mpi::parse_rank_args(ctx, 1);
  if (!ctx.seg("heap")) {
    auto& heap = ctx.alloc("heap", sim::MemKind::kHeap, 4ull << 20);
    heap.data.fill(2ull << 20, 2ull << 20, sim::ExtentKind::kRand, 0x4e);
  }
  StateView<NasState> st(ctx);
  Engine mpi(ctx, ra.rank, ra.size, ra.nnodes);
  NasState s = st.get();
  co_await init_once(mpi, st, s);
  // Idle with a heartbeat until the horizon (benches checkpoint here; the
  // bound keeps test runs finite at ~20 virtual seconds).
  while (s.iter < 2000) {
    co_await ctx.sleep(10 * timeconst::kMillisecond);
    if (s.iter % 50 == 49 && ra.size > 1) co_await mpi.barrier();
    s.iter++;
    st.set(s);
  }
  if (s.stage != 9) {
    if (ra.rank == 0) co_await write_result(ctx, result, "hello done");
    s.stage = 9;
    st.set(s);
  }
  co_return 0;
}

// ---------------------------------------------------------------------------
// pargeant4 <events> <mb_per_worker> <result> <rank> <np> <nnodes>
// TOP-C master/worker: rank 0 hands out event batches; workers simulate.
// ---------------------------------------------------------------------------

struct PG4State {
  u64 next_event = 0;   // master: next batch to hand out; worker: current
  u64 done_events = 0;
  u64 acc = 0;
  i32 finished_workers = 0;
  i32 w = 1;            // master: worker currently being served (persisted —
                        // a restart must resume the same round-robin slot)
  u8 stage = 0;
  u8 init_done = 0;
  u8 pad_[6] = {};  // explicit: stored state must have no padding bits
};

Task<int> pargeant4_main(sim::ProcessCtx& ctx) {
  const u64 events = static_cast<u64>(argi(ctx, 0, 64));
  const double mb = static_cast<double>(argi(ctx, 1, 20));
  const std::string result = args(ctx, 2, "pargeant4");
  const auto ra = mpi::parse_rank_args(ctx, 3);

  if (!ctx.seg("ballast")) {
    const u64 bytes = static_cast<u64>(mb * 1024 * 1024);
    auto& b = ctx.alloc("ballast", sim::MemKind::kHeap, bytes);
    b.data.fill(bytes * 62 / 100, bytes - bytes * 62 / 100,
                sim::ExtentKind::kRand, mix_seed(0x9ea4, ra.rank));
  }
  StateView<PG4State> st(ctx);
  Engine mpi(ctx, ra.rank, ra.size, ra.nnodes);
  MemRef msg = buffer(ctx, "msg", 16);
  PG4State s = st.get();
  co_await init_once(mpi, st, s);

  if (ra.rank == 0) {
    // Master: round-robin event batches; a 16-byte message per assignment.
    // The current worker slot lives in the state struct so a restarted
    // master resumes exactly the round-robin position it was suspended at.
    while (s.finished_workers < ra.size - 1) {
      if (s.stage == 0) {
        const u64 assign = s.next_event < events ? s.next_event : ~0ull;
        ctx.store<u64>(msg, assign);
        ctx.store<u64>(msg.at(8), s.acc);
        co_await mpi.send(s.w, msg, 16);
        if (assign != ~0ull) {
          s.next_event++;
        } else {
          s.finished_workers++;
        }
        s.stage = 1;
        st.set(s);
      }
      co_await mpi.recv(s.w, msg, 16);
      s.acc = mix_seed(s.acc, ctx.load<u64>(msg));
      s.stage = 0;
      s.w = (s.w % (ra.size - 1)) + 1;
      st.set(s);
    }
    char out[96];
    std::snprintf(out, sizeof out, "acc=%016llx events=%llu",
                  static_cast<unsigned long long>(s.acc),
                  static_cast<unsigned long long>(s.next_event));
    co_await write_result(ctx, result, out);
  } else {
    // Worker: receive an assignment, simulate particle transport, reply.
    while (s.stage != 9) {
      if (s.stage == 0) {
        co_await mpi.recv(0, msg, 16);
        s.next_event = ctx.load<u64>(msg);
        s.stage = (s.next_event == ~0ull) ? 3 : 1;
        st.set(s);
      }
      if (s.stage == 1) {
        co_await ctx.cpu_chunked(4e-3, 0);  // Geant4 event simulation
        s.acc = mix_seed(s.acc, s.next_event);
        s.done_events++;
        s.stage = 2;
        st.set(s);
      }
      if (s.stage == 2) {
        ctx.store<u64>(msg, s.acc);
        ctx.store<u64>(msg.at(8), s.done_events);
        co_await mpi.send(0, msg, 16);
        s.stage = 0;
        st.set(s);
      }
      if (s.stage == 3) {
        ctx.store<u64>(msg, s.acc);
        ctx.store<u64>(msg.at(8), s.done_events);
        co_await mpi.send(0, msg, 16);
        s.stage = 9;
        st.set(s);
      }
    }
  }
  co_return 0;
}

// ---------------------------------------------------------------------------
// iPython (sockets directly): controller + engines.
// ipython_controller <engines> <tasks> <mode shell|demo> <result>
// ipython_engine <controller-node> <index>
// ---------------------------------------------------------------------------

struct IpyCtlState {
  i32 lfd = kNoFd;
  i32 efd[64] = {};
  i32 accepted = 0;
  i32 spawned = 0;
  i32 stopped = 0;
  u64 task = 0;
  u64 acc = 0;
  u8 stage = 0;
  u8 pad_[7] = {};  // explicit: stored state must have no padding bits
};

constexpr u16 kIpyPort = 23000;

Task<int> ipython_controller_main(sim::ProcessCtx& ctx) {
  const int engines = static_cast<int>(argi(ctx, 0, 4));
  const u64 tasks = static_cast<u64>(argi(ctx, 1, 32));
  const std::string mode = args(ctx, 2, "demo");
  const std::string result = args(ctx, 3, "ipython");
  DSIM_CHECK(engines <= 64);

  if (!ctx.seg("heap")) {
    auto& heap = ctx.alloc("heap", sim::MemKind::kHeap, 18ull << 20);
    heap.data.fill(9ull << 20, 9ull << 20, sim::ExtentKind::kRand, 0x1b);
  }
  StateView<IpyCtlState> st(ctx);
  MemRef msg = buffer(ctx, "msg", 16);
  IpyCtlState s = st.get();

  if (ctx.phase() == 0) {
    const Fd lfd = co_await ctx.socket();
    DSIM_CHECK(co_await ctx.bind(lfd, kIpyPort));
    co_await ctx.listen(lfd);
    s.lfd = lfd;
    st.set(s);
    ctx.phase() = 1;
  }
  while (s.spawned < engines) {
    std::vector<std::string> argv{std::to_string(ctx.process().node()),
                                  std::to_string(s.spawned)};
    co_await ctx.ssh(
        static_cast<NodeId>(s.spawned % ctx.kernel().num_nodes()),
        "ipython_engine", std::move(argv));
    s.spawned++;
    st.set(s);
  }
  while (s.accepted < engines) {
    const Fd fd = co_await ctx.accept(s.lfd);
    s.efd[s.accepted] = fd;
    s.accepted++;
    st.set(s);
  }
  if (mode == "shell") {
    // Idle interactive shell: heartbeat only (the paper checkpoints it at
    // rest). Runs until externally killed or a long horizon elapses.
    while (s.task < 100000) {
      co_await ctx.sleep(20 * timeconst::kMillisecond);
      s.task++;
      st.set(s);
      if (s.task >= 500) break;  // finite for tests
    }
  } else {
    // "Parallel computing" demo: scatter tasks, gather results.
    while (s.task < tasks) {
      const int e = static_cast<int>(s.task % engines);
      if (s.stage == 0) {
        ctx.store<u64>(msg, s.task);
        co_await ctx.write_exact(s.efd[e], msg, 16, 0);
        s.stage = 1;
        st.set(s);
      }
      co_await ctx.read_exact(s.efd[e], msg, 16, 1);
      s.acc = mix_seed(s.acc, ctx.load<u64>(msg));
      s.stage = 0;
      s.task++;
      st.set(s);
    }
    // Stop engines.
    while (s.stopped < engines) {
      ctx.store<u64>(msg, ~0ull);
      co_await ctx.write_exact(s.efd[s.stopped], msg, 16, 0);
      s.stopped++;
      st.set(s);
    }
  }
  char out[96];
  std::snprintf(out, sizeof out, "acc=%016llx tasks=%llu",
                static_cast<unsigned long long>(s.acc),
                static_cast<unsigned long long>(s.task));
  co_await write_result(ctx, result, out);
  co_return 0;
}

struct IpyEngState {
  u64 acc = 0;
  i32 fd = kNoFd;
  u8 stage = 0;
  u8 pad_[3] = {};  // explicit: stored state must have no padding bits
};

Task<int> ipython_engine_main(sim::ProcessCtx& ctx) {
  const NodeId ctl_node = static_cast<NodeId>(argi(ctx, 0, 0));
  if (!ctx.seg("heap")) {
    auto& heap = ctx.alloc("heap", sim::MemKind::kHeap, 12ull << 20);
    heap.data.fill(6ull << 20, 6ull << 20, sim::ExtentKind::kRand, 0xe9);
  }
  StateView<IpyEngState> st(ctx);
  MemRef msg = buffer(ctx, "msg", 16);
  IpyEngState s = st.get();
  if (ctx.phase() == 0) {
    const Fd fd = co_await ctx.socket();
    s.fd = fd;
    st.set(s);
    ctx.phase() = 1;
  }
  if (ctx.phase() == 1) {
    if (sim::TcpVNode* v = ctx.fd_tcp(s.fd);
        v && v->state == sim::TcpVNode::State::kRaw) {
      while (!co_await ctx.connect(s.fd, sim::SockAddr{ctl_node, kIpyPort})) {
        co_await ctx.sleep(2 * timeconst::kMillisecond);
      }
    }
    ctx.phase() = 2;
  }
  while (true) {
    if (s.stage == 0) {
      co_await ctx.read_exact(s.fd, msg, 16, 0);
      const u64 task = ctx.load<u64>(msg);
      if (task == ~0ull) co_return 0;
      s.stage = 1;
      st.set(s);
    }
    if (s.stage == 1) {
      co_await ctx.cpu_chunked(2e-3, 1);
      s.acc = mix_seed(s.acc, ctx.load<u64>(msg));
      s.stage = 2;
      st.set(s);
    }
    ctx.store<u64>(msg, s.acc);
    co_await ctx.write_exact(s.fd, msg, 16, 2);
    s.stage = 0;
    st.set(s);
  }
}

// ---------------------------------------------------------------------------
// memhog <mb_per_rank> <result> <rank> <np> <nnodes> — Fig. 6 synthetic:
// "allocating random data" (incompressible), long-lived, periodic barriers.
// ---------------------------------------------------------------------------

Task<int> memhog_main(sim::ProcessCtx& ctx) {
  const double mb = static_cast<double>(argi(ctx, 0, 64));
  const std::string result = args(ctx, 1, "memhog");
  const auto ra = mpi::parse_rank_args(ctx, 2);
  if (!ctx.seg("ballast")) {
    const u64 bytes = static_cast<u64>(mb * 1024 * 1024);
    auto& b = ctx.alloc("ballast", sim::MemKind::kHeap, bytes);
    b.data.fill(0, bytes, sim::ExtentKind::kRand, mix_seed(0xf16, ra.rank));
  }
  StateView<NasState> st(ctx);
  Engine mpi(ctx, ra.rank, ra.size, ra.nnodes);
  NasState s = st.get();
  co_await init_once(mpi, st, s);
  while (s.iter < 3000) {
    co_await ctx.sleep(10 * timeconst::kMillisecond);
    if (s.iter % 100 == 99) co_await mpi.barrier();
    s.iter++;
    st.set(s);
  }
  if (ra.rank == 0 && s.stage != 9) {
    co_await write_result(ctx, result, "memhog done");
    s.stage = 9;
    st.set(s);
  }
  co_return 0;
}

// ---------------------------------------------------------------------------
// chombo <iters> <mb> <result> <rank> <np> <nnodes> — AMR-flavored stencil
// used for the DejaVu comparison (§2): compute + halo exchange per step.
// ---------------------------------------------------------------------------

Task<int> chombo_main(sim::ProcessCtx& ctx) {
  const u64 iters = static_cast<u64>(argi(ctx, 0, 100));
  const double mb = static_cast<double>(argi(ctx, 1, 40));
  const std::string result = args(ctx, 2, "chombo");
  const auto ra = mpi::parse_rank_args(ctx, 3);
  if (!ctx.seg("ballast")) {
    const u64 bytes = static_cast<u64>(mb * 1024 * 1024);
    auto& b = ctx.alloc("ballast", sim::MemKind::kHeap, bytes);
    b.data.fill(bytes / 2, bytes - bytes / 2, sim::ExtentKind::kRand,
                mix_seed(0xc0b0, ra.rank));
  }
  StateView<NasState> st(ctx);
  Engine mpi(ctx, ra.rank, ra.size, ra.nnodes, 1 << 20);
  // Chombo-class AMR: heavy per-step compute, modest halos (the DejaVu
  // comparison's overhead ratio depends on this compute:comm balance).
  constexpr u64 kHalo = 8 * 1024;
  MemRef halo = buffer(ctx, "halo", kHalo);
  NasState s = st.get();
  co_await init_once(mpi, st, s);
  while (s.iter < iters) {
    if (s.stage == 0) {
      co_await ctx.cpu_chunked(40e-3, 0);
      s.stage = 1;
      st.set(s);
    }
    if (ra.size > 1) {
      const int right = (ra.rank + 1) % ra.size;
      const int left = (ra.rank + ra.size - 1) % ra.size;
      if (s.stage == 1) {
        if (ra.rank % 2 == 0) {
          co_await mpi.send(right, halo, kHalo);
        } else {
          co_await mpi.recv(left, halo, kHalo);
        }
        s.stage = 2;
        st.set(s);
      }
      if (ra.rank % 2 == 0) {
        co_await mpi.recv(left, halo, kHalo);
      } else {
        co_await mpi.send(right, halo, kHalo);
      }
    }
    s.stage = 0;
    s.iter++;
    st.set(s);
  }
  if (ra.rank == 0 && s.stage != 9) {
    char out[64];
    std::snprintf(out, sizeof out, "iters=%llu",
                  static_cast<unsigned long long>(s.iter));
    co_await write_result(ctx, result, out);
    s.stage = 9;
    st.set(s);
  }
  co_return 0;
}

}  // namespace

const NasConfig& nas_config(const std::string& name) {
  for (const auto& c : kNas) {
    if (c.name == name) return c;
  }
  DSIM_UNREACHABLE("unknown NAS kernel");
}

void register_distributed_programs(sim::Kernel& k) {
  auto add = [&](const char* name, auto fn) {
    sim::Program p;
    p.name = name;
    p.main = fn;
    k.programs().add(std::move(p));
  };
  add("nas", nas_main);
  add("hello", hello_main);
  add("pargeant4", pargeant4_main);
  add("ipython_controller", ipython_controller_main);
  add("ipython_engine", ipython_engine_main);
  add("memhog", memhog_main);
  add("chombo", chombo_main);
}

}  // namespace dsim::apps
