// Mini-MPI correctness: collectives produce the right values at every rank
// (checked through a verification program that writes per-rank digests),
// and every NAS-style kernel runs, checkpoints and restarts identically
// under the OpenMPI-like runtime.
#include <gtest/gtest.h>

#include "apps/app_util.h"
#include "apps/distributed.h"
#include "core/launch.h"
#include "mpi/mpi.h"
#include "mpi/runtime.h"
#include "sim/cluster.h"
#include "tests/testprogs.h"

namespace dsim::test {
namespace {

using apps::buffer;
using apps::StateView;
using sim::MemRef;
using sim::Task;

struct CollState {
  u64 step = 0;
  u8 init_done = 0;
  u8 pad_[7] = {};  // explicit: stored state must have no padding bits
};

// coll_check <result> <rank> <np> <nnodes>: runs each collective and
// verifies the mathematically expected values at every rank.
Task<int> coll_check_main(sim::ProcessCtx& ctx) {
  const std::string result = apps::args(ctx, 0, "coll");
  const auto ra = mpi::parse_rank_args(ctx, 1);
  StateView<CollState> st(ctx);
  mpi::Engine mpi(ctx, ra.rank, ra.size, ra.nnodes, 1 << 16);
  CollState s = st.get();
  if (!s.init_done) {
    co_await mpi.init();
    s.init_done = 1;
    st.set(s);
  }
  MemRef buf = buffer(ctx, "cbuf", 64 * sizeof(double));
  bool ok = true;

  // allreduce: sum of rank ids at every rank.
  if (s.step == 0) {
    ctx.store<double>(buf, static_cast<double>(ra.rank));
    co_await mpi.allreduce_sum(buf, 1);
    const double want = ra.size * (ra.size - 1) / 2.0;
    ok = ok && ctx.load<double>(buf) == want;
    s.step = 1;
    st.set(s);
  }
  co_await ctx.sleep(25 * timeconst::kMillisecond);
  // bcast from a non-zero root (wrapped into range for small sizes).
  const int broot = 2 % ra.size;
  if (s.step == 1) {
    ctx.store<double>(buf, ra.rank == broot ? 1234.5 : 0.0);
    co_await mpi.bcast(broot, buf, sizeof(double));
    ok = ok && ctx.load<double>(buf) == 1234.5;
    s.step = 2;
    st.set(s);
  }
  co_await ctx.sleep(25 * timeconst::kMillisecond);
  // reduce to a non-zero root.
  const int rroot = 1 % ra.size;
  if (s.step == 2) {
    ctx.store<double>(buf, 2.0);
    co_await mpi.reduce_sum(rroot, buf, 1);
    if (ra.rank == rroot) ok = ok && ctx.load<double>(buf) == 2.0 * ra.size;
    s.step = 3;
    st.set(s);
  }
  co_await ctx.sleep(25 * timeconst::kMillisecond);
  // barrier then alltoall: block from rank r contains r*100+dest.
  if (s.step == 3) {
    co_await mpi.barrier();
    s.step = 4;
    st.set(s);
  }
  if (s.step == 4) {
    MemRef sbuf = buffer(ctx, "a2as", 8 * static_cast<u64>(ra.size));
    MemRef rbuf = buffer(ctx, "a2ar", 8 * static_cast<u64>(ra.size));
    for (int d = 0; d < ra.size; ++d) {
      ctx.store<u64>(sbuf.at(8 * static_cast<u64>(d)),
                     static_cast<u64>(ra.rank * 100 + d));
    }
    co_await mpi.alltoall(sbuf, rbuf, 8);
    for (int src = 0; src < ra.size; ++src) {
      ok = ok && ctx.load<u64>(rbuf.at(8 * static_cast<u64>(src))) ==
                     static_cast<u64>(src * 100 + ra.rank);
    }
    s.step = 5;
    st.set(s);
  }
  if (ra.rank == 0 && s.step == 5) {
    co_await apps::write_result(ctx, result, ok ? "collectives-ok"
                                                : "collectives-BAD");
    s.step = 6;
    st.set(s);
  }
  co_return ok ? 0 : 1;
}

struct MpiWorld {
  sim::Cluster cluster;
  core::DmtcpControl ctl;
  explicit MpiWorld(int nodes)
      : cluster(sim::Cluster::lab_cluster(nodes)), ctl(cluster.kernel(), {}) {
    mpi::register_runtime_programs(cluster.kernel());
    apps::register_distributed_programs(cluster.kernel());
    sim::Program p;
    p.name = "coll_check";
    p.main = coll_check_main;
    cluster.kernel().programs().add(std::move(p));
  }
  sim::Kernel& k() { return cluster.kernel(); }
  bool wait_result(const std::string& name) {
    return ctl.run_until([&] { return !read_result(k(), name).empty(); },
                         k().loop().now() + 600 * timeconst::kSecond);
  }
};

class CollectivesBySize : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesBySize, ValuesCorrectAtEveryRank) {
  const int np = GetParam();
  MpiWorld w(4);
  w.ctl.launch(0, "orte_mpirun",
               mpi::mpirun_argv(np, 4, "coll_check", {"coll"}));
  ASSERT_TRUE(w.wait_result("coll"));
  EXPECT_EQ(read_result(w.k(), "coll"), "collectives-ok");
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectivesBySize,
                         ::testing::Values(2, 3, 4, 7, 8, 13));

TEST(Collectives, SurviveCheckpointMidway) {
  MpiWorld w(4);
  w.ctl.launch(0, "orte_mpirun",
               mpi::mpirun_argv(8, 4, "coll_check", {"collck"}));
  // Checkpoint early, while init/collectives are in flight.
  w.ctl.run_for(60 * timeconst::kMillisecond);
  w.ctl.checkpoint_now();
  w.ctl.kill_computation();
  w.ctl.restart();
  ASSERT_TRUE(w.wait_result("collck"));
  EXPECT_EQ(read_result(w.k(), "collck"), "collectives-ok");
}

// Every NAS-style kernel runs + checkpoints + restarts identically.
class NasKernels : public ::testing::TestWithParam<const char*> {};

TEST_P(NasKernels, CheckpointRestartIdentical) {
  const std::string kernel = GetParam();
  const std::string res = "nas_" + kernel;
  std::string expected;
  {
    MpiWorld w(4);
    w.k().spawn_process(0, "orte_mpirun",
                        mpi::mpirun_argv(8, 4, "nas", {kernel, "60", res}),
                        {});
    ASSERT_TRUE(w.wait_result(res)) << "baseline " << kernel;
    expected = read_result(w.k(), res);
  }
  {
    MpiWorld w(4);
    w.ctl.launch(0, "orte_mpirun",
                 mpi::mpirun_argv(8, 4, "nas", {kernel, "60", res}));
    w.ctl.run_for(80 * timeconst::kMillisecond);
    w.ctl.checkpoint_now();
    w.ctl.kill_computation();
    w.ctl.restart();
    ASSERT_TRUE(w.wait_result(res)) << "restarted " << kernel;
    EXPECT_EQ(read_result(w.k(), res), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, NasKernels,
                         ::testing::Values("ep", "is", "cg", "mg", "lu", "sp",
                                           "bt"));

// The simulator's host work on a small NAS/MG run with one checkpoint,
// counted exactly for the default seed: events posted, fired and
// cancelled, and user-plane receive bytes adopted into images as whole
// segment buffers or copied. A change to the simulator's host cost shows
// here as the count it moved.
TEST(NasWork, MgCountsAreExact) {
  MpiWorld w(4);
  w.ctl.launch(0, "orte_mpirun",
               mpi::mpirun_argv(8, 4, "nas", {"mg", "60", "nas_mg_work"}));
  w.ctl.run_for(80 * timeconst::kMillisecond);
  w.ctl.checkpoint_now();
  ASSERT_TRUE(w.wait_result("nas_mg_work"));
  const sim::EventLoop& loop = w.k().loop();
  EXPECT_EQ(loop.work().posts,
            loop.work().fires + loop.work().cancels + loop.pending());
  EXPECT_EQ(loop.work().posts, 5092u);
  EXPECT_EQ(loop.work().fires, 4362u);
  EXPECT_EQ(loop.work().cancels, 728u);
  // Every 48 KiB halo arrives as one whole segment and is adopted; the
  // copied bytes are small reads that each take part of a segment.
  EXPECT_EQ(w.k().recv_adopted_bytes(), 23550568u);
  EXPECT_EQ(w.k().recv_copied_bytes(), 64954u);
}

}  // namespace
}  // namespace dsim::test
