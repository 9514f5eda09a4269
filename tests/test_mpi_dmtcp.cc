// Distributed checkpointing over the full MPI stack: mpdboot/mpd ring (or
// orte star), mpirun, rank processes — all checkpointed together, exactly
// the §5.2 configuration. The Fig. 4 (hello), Fig. 6 (memhog) and DejaVu
// (chombo) programs restart under orte at small sizes, and a jittered
// cluster repeats its checkpoint and restart times per seed.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "apps/distributed.h"
#include "core/launch.h"
#include "mpi/runtime.h"
#include "sim/cluster.h"
#include "tests/testprogs.h"

namespace dsim::test {
namespace {

using core::DmtcpControl;

struct MpiWorld {
  sim::Cluster cluster;
  DmtcpControl ctl;
  explicit MpiWorld(int nodes, u64 seed = 0x5eed, double jitter_sigma = 0)
      : cluster([&] {
          auto cfg = sim::Cluster::lab_cluster(nodes);
          cfg.seed = seed;
          cfg.jitter_sigma = jitter_sigma;
          return cfg;
        }()),
        ctl(cluster.kernel(), {}) {
    mpi::register_runtime_programs(cluster.kernel());
    apps::register_distributed_programs(cluster.kernel());
  }
  sim::Kernel& k() { return cluster.kernel(); }
  bool wait_result(const std::string& name,
                   SimTime deadline = 600 * timeconst::kSecond) {
    return ctl.run_until([&] { return !read_result(k(), name).empty(); },
                         k().loop().now() + deadline);
  }
};

std::string mpi_baseline(const std::string& runtime, int np, int nodes,
                         const std::string& prog,
                         std::vector<std::string> app_args,
                         const std::string& result) {
  sim::Cluster cluster(sim::Cluster::lab_cluster(nodes));
  mpi::register_runtime_programs(cluster.kernel());
  apps::register_distributed_programs(cluster.kernel());
  auto& k = cluster.kernel();
  if (runtime == "mpd") {
    k.spawn_process(0, "mpdboot", {std::to_string(nodes)}, {});
    k.spawn_process(0, "mpd_mpirun",
                    mpi::mpirun_argv(np, nodes, prog, app_args), {});
  } else {
    k.spawn_process(0, "orte_mpirun",
                    mpi::mpirun_argv(np, nodes, prog, app_args), {});
  }
  k.loop().run_until(k.loop().now() + 600 * timeconst::kSecond);
  return read_result(k, result);
}

TEST(MpiDmtcp, NasCgUnderMpdCheckpointAndRestart) {
  const auto expected =
      mpi_baseline("mpd", 8, 4, "nas", {"cg", "400", "cg_t"}, "cg_t");
  ASSERT_FALSE(expected.empty());

  MpiWorld w(4);
  w.ctl.launch(0, "mpdboot", {"4"});
  w.ctl.run_for(80 * timeconst::kMillisecond);
  w.ctl.launch(0, "mpd_mpirun", mpi::mpirun_argv(8, 4, "nas",
                                                 {"cg", "400", "cg_t"}));
  w.ctl.run_for(300 * timeconst::kMillisecond);  // ranks mid-computation
  const auto& round = w.ctl.checkpoint_now();
  // mpirun + 4 mpds + 8 ranks + mpdboot may or may not still be alive.
  EXPECT_GE(round.procs, 13);
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  EXPECT_GE(rr.procs, 13);
  ASSERT_TRUE(w.wait_result("cg_t"));
  EXPECT_EQ(read_result(w.k(), "cg_t"), expected);
}

TEST(MpiDmtcp, ParGeant4UnderOrteCheckpointResume) {
  const auto expected = mpi_baseline(
      "orte", 6, 3, "pargeant4", {"300", "10", "pg4_t"}, "pg4_t");
  ASSERT_FALSE(expected.empty());

  MpiWorld w(3);
  w.ctl.launch(0, "orte_mpirun",
               mpi::mpirun_argv(6, 3, "pargeant4", {"300", "10", "pg4_t"}));
  w.ctl.run_for(120 * timeconst::kMillisecond);
  w.ctl.checkpoint_now();
  ASSERT_TRUE(w.wait_result("pg4_t"));
  EXPECT_EQ(read_result(w.k(), "pg4_t"), expected);
}

TEST(MpiDmtcp, IPythonSocketsCheckpointKillRestart) {
  const auto expected = [&] {
    sim::Cluster cluster(sim::Cluster::lab_cluster(4));
    mpi::register_runtime_programs(cluster.kernel());
    apps::register_distributed_programs(cluster.kernel());
    cluster.kernel().spawn_process(
        0, "ipython_controller", {"4", "200", "demo", "ipy_t"}, {});
    cluster.kernel().loop().run_until(600 * timeconst::kSecond);
    return read_result(cluster.kernel(), "ipy_t");
  }();
  ASSERT_FALSE(expected.empty());

  MpiWorld w(4);
  w.ctl.launch(0, "ipython_controller", {"4", "200", "demo", "ipy_t"});
  w.ctl.run_for(60 * timeconst::kMillisecond);
  w.ctl.checkpoint_now();
  w.ctl.kill_computation();
  w.ctl.restart();
  ASSERT_TRUE(w.wait_result("ipy_t"));
  EXPECT_EQ(read_result(w.k(), "ipy_t"), expected);
}

struct OrteCase {
  const char* prog;
  std::vector<std::string> args;  // the program's own, before rank args
  const char* result;
};

/// `c` under orte_mpirun, 4 ranks on 2 nodes: checkpoint mid-run, kill,
/// restart. Returns the round's and the restart's simulated seconds.
std::pair<double, double> orte_checkpoint_kill_restart(MpiWorld& w,
                                                       const OrteCase& c) {
  w.ctl.launch(0, "orte_mpirun", mpi::mpirun_argv(4, 2, c.prog, c.args));
  w.ctl.run_for(150 * timeconst::kMillisecond);
  const core::CkptRound round = w.ctl.checkpoint_now();
  w.ctl.kill_computation();
  const core::RestartRun& rr = w.ctl.restart();
  EXPECT_EQ(rr.procs, round.procs) << c.prog;
  return {round.total_seconds(), rr.total_seconds()};
}

const OrteCase kChombo{"chombo", {"20", "1", "chombo_t"}, "chombo_t"};

TEST(MpiDmtcp, HelloMemhogAndChomboRestartUnderOrte) {
  for (const OrteCase& c : {OrteCase{"hello", {"hello_t"}, "hello_t"},
                            OrteCase{"memhog", {"1", "memhog_t"}, "memhog_t"},
                            kChombo}) {
    const auto expected = mpi_baseline("orte", 4, 2, c.prog, c.args, c.result);
    ASSERT_FALSE(expected.empty()) << c.prog;
    MpiWorld w(2);
    orte_checkpoint_kill_restart(w, c);
    ASSERT_TRUE(w.wait_result(c.result)) << c.prog;
    EXPECT_EQ(read_result(w.k(), c.result), expected) << c.prog;
  }
}

TEST(MpiDmtcp, JitteredClusterRepeatsItsTimesPerSeed) {
  // Every NIC and storage device draws from the cluster seed's one jitter
  // stream: a seed repeats its times bit for bit, another seed moves them.
  auto times = [](u64 seed) {
    MpiWorld w(2, seed, /*jitter_sigma=*/0.01);
    const auto t = orte_checkpoint_kill_restart(w, kChombo);
    EXPECT_TRUE(w.wait_result(kChombo.result));
    return t;
  };
  const auto a = times(1);
  const auto b = times(1);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  const auto c = times(2);
  EXPECT_NE(a.first, c.first);
  EXPECT_NE(a.second, c.second);
}

}  // namespace
}  // namespace dsim::test
