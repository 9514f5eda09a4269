// Desktop-application coverage (§5.1): every one of the paper's 21 profiles
// checkpoints and restarts; compressed sizes track the calibrated targets;
// the multi-process profiles restore their co-processes and ptys.
#include <gtest/gtest.h>

#include "apps/app_util.h"
#include "apps/desktop.h"
#include "core/launch.h"
#include "sim/cluster.h"
#include "tests/testprogs.h"

namespace dsim::test {
namespace {

struct DeskWorld {
  sim::Cluster cluster;
  core::DmtcpControl ctl;
  DeskWorld()
      : cluster(sim::Cluster::single_node()), ctl(cluster.kernel(), {}) {
    apps::register_desktop_programs(cluster.kernel());
  }
  sim::Kernel& k() { return cluster.kernel(); }
};

class DesktopProfiles : public ::testing::TestWithParam<int> {};

TEST_P(DesktopProfiles, CheckpointKillRestartCompletes) {
  const auto& prof =
      apps::desktop_profiles()[static_cast<size_t>(GetParam())];
  DeskWorld w;
  const std::string res = "d_" + std::to_string(GetParam());
  w.ctl.launch(0, "desktop_app", {prof.name, "200", res});
  w.ctl.run_for(50 * timeconst::kMillisecond);
  const auto& round = w.ctl.checkpoint_now();
  EXPECT_GT(round.total_uncompressed, 0u);
  // Compressed size should be within 25% of the calibrated target
  // (rss * ratio) — this pins the Fig. 3b reproduction.
  const double target_mb = prof.rss_mb * prof.compress_ratio;
  const double got_mb =
      static_cast<double>(round.total_compressed) / 1048576.0;
  if (prof.child == nullptr) {  // co-processes add their own image
    EXPECT_NEAR(got_mb, target_mb, target_mb * 0.25) << prof.name;
  }
  w.ctl.kill_computation();
  const auto& rr = w.ctl.restart();
  EXPECT_GE(rr.procs, prof.child ? 2 : 1);
  const bool done = w.ctl.run_until(
      [&] { return !read_result(w.k(), res).empty(); },
      w.k().loop().now() + 300 * timeconst::kSecond);
  EXPECT_TRUE(done) << prof.name;
}

INSTANTIATE_TEST_SUITE_P(
    All21PlusRunCms, DesktopProfiles,
    ::testing::Range(0, static_cast<int>(apps::desktop_profiles().size())),
    [](const auto& info) {
      std::string n = apps::desktop_profiles()[static_cast<size_t>(
                          info.param)].name;
      for (char& c : n) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

TEST(DesktopApps, FillPayloadMatchesPayloadByte) {
  // The desktop loop's whole-message fill must be payload_byte, byte for
  // byte: restored and reference runs compare results built from it.
  for (u64 seed : {0ull, 1ull, 0xDEADBEEFull, ~0ull}) {
    for (u64 i : {0ull, 1ull, 31000ull, ~0ull}) {
      std::vector<std::byte> out(4096 + 3);
      apps::fill_payload(out, seed, i);
      for (u64 j = 0; j < out.size(); ++j) {
        ASSERT_EQ(static_cast<u8>(out[j]), apps::payload_byte(seed, i, j))
            << "seed " << seed << " i " << i << " j " << j;
      }
    }
  }
}

TEST(DesktopApps, MultiThreadedProfileRestoresWorkers) {
  DeskWorld w;
  w.ctl.launch(0, "desktop_app", {"matlab", "300", "mt"});
  w.ctl.run_for(40 * timeconst::kMillisecond);
  w.ctl.checkpoint_now();
  w.ctl.kill_computation();
  w.ctl.restart();
  // MATLAB's profile declares 4 threads; all must be live after restart.
  int threads = 0;
  for (Pid pid : w.k().live_pids()) {
    sim::Process* p = w.k().find_process(pid);
    if (p->prog_name() != "desktop_app") continue;
    for (auto& t : p->threads()) {
      if (t->alive() && t->kind() != sim::ThreadKind::kManager) threads++;
    }
  }
  EXPECT_EQ(threads, 4);
  EXPECT_TRUE(w.ctl.run_until(
      [&] { return !read_result(w.k(), "mt").empty(); },
      w.k().loop().now() + 300 * timeconst::kSecond));
}

TEST(DesktopApps, SignalDispositionsSurviveRestart) {
  DeskWorld w;
  const Pid pid = w.ctl.launch(0, "desktop_app", {"emacs", "300", "sig"});
  w.ctl.run_for(40 * timeconst::kMillisecond);
  {
    sim::Process* p = w.k().find_process(pid);
    ASSERT_EQ(p->signals().handler[2], 7);  // installed by the app
  }
  w.ctl.checkpoint_now();
  w.ctl.kill_computation();
  w.ctl.restart();
  bool found = false;
  for (Pid lp : w.k().live_pids()) {
    sim::Process* p = w.k().find_process(lp);
    if (p->prog_name() == "desktop_app") {
      EXPECT_EQ(p->signals().handler[2], 7);
      EXPECT_EQ(p->signals().handler[15], 7);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace dsim::test
