// The core transparency property, swept: for every workload and for many
// checkpoint instants, (checkpoint → kill → restart → finish) produces
// byte-identical results to an undisturbed run. A violation anywhere in the
// stack — drain, refill, image capture, fd rearrangement, pid
// virtualization, thread contexts — shows up as a CRC mismatch or a hang.
#include <gtest/gtest.h>

#include "core/launch.h"
#include "sim/cluster.h"
#include "tests/testprogs.h"

namespace dsim::test {
namespace {

struct Workload {
  const char* name;
  std::function<void(sim::Kernel&, bool dmtcp, core::DmtcpControl*)> launch;
  std::vector<std::string> results;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"pingpong",
       [](sim::Kernel& k, bool dmtcp, core::DmtcpControl* ctl) {
         std::vector<std::string> s{"9000", "250", "3000", "psrv"};
         std::vector<std::string> c{"0", "9000", "250", "3000", "17", "pcli"};
         if (dmtcp) {
           ctl->launch(0, kPingServer, s);
           ctl->launch(1, kPingClient, c);
         } else {
           k.spawn_process(0, kPingServer, s, {});
           k.spawn_process(1, kPingClient, c, {});
         }
       },
       {"psrv", "pcli"}},
      {"pipe",
       [](sim::Kernel& k, bool dmtcp, core::DmtcpControl* ctl) {
         std::vector<std::string> a{"524288", "pp"};
         if (dmtcp) {
           ctl->launch(0, kPipeChain, a);
         } else {
           k.spawn_process(0, kPipeChain, a, {});
         }
       },
       {"pp.child"}},
      {"shm",
       [](sim::Kernel& k, bool dmtcp, core::DmtcpControl* ctl) {
         std::vector<std::string> a{"/shared/shm/ps", "60", "ps"};
         if (dmtcp) {
           ctl->launch(0, kShmPair, a);
         } else {
           k.spawn_process(0, kShmPair, a, {});
         }
       },
       {"ps"}},
      {"pty",
       [](sim::Kernel& k, bool dmtcp, core::DmtcpControl* ctl) {
         std::vector<std::string> a{"40", "pt"};
         if (dmtcp) {
           ctl->launch(0, kPtyShell, a);
         } else {
           k.spawn_process(0, kPtyShell, a, {});
         }
       },
       {"pt"}},
      {"spawntree",
       [](sim::Kernel& k, bool dmtcp, core::DmtcpControl* ctl) {
         std::vector<std::string> a{"6", "80", "sw"};
         if (dmtcp) {
           ctl->launch(0, kSpawnTree, a);
         } else {
           k.spawn_process(0, kSpawnTree, a, {});
         }
       },
       {"sw"}},
      {"compute",
       [](sim::Kernel& k, bool dmtcp, core::DmtcpControl* ctl) {
         std::vector<std::string> a{"600", "400", "cp"};
         if (dmtcp) {
           ctl->launch(0, kComputeLoop, a);
         } else {
           k.spawn_process(0, kComputeLoop, a, {});
         }
       },
       {"cp"}},
      {"dup2",
       [](sim::Kernel& k, bool dmtcp, core::DmtcpControl* ctl) {
         std::vector<std::string> a{"160", "/data/dup2.log", "dl"};
         if (dmtcp) {
           ctl->launch(0, kDup2Log, a);
         } else {
           k.spawn_process(0, kDup2Log, a, {});
         }
       },
       {"dl"}},
  };
  return w;
}

std::map<std::string, std::string> baseline(const Workload& wl) {
  sim::Cluster cluster(sim::Cluster::lab_cluster(2));
  register_test_programs(cluster.kernel());
  wl.launch(cluster.kernel(), false, nullptr);
  cluster.kernel().loop().run_until(cluster.kernel().loop().now() +
                                    600 * timeconst::kSecond);
  std::map<std::string, std::string> out;
  for (const auto& r : wl.results) out[r] = read_result(cluster.kernel(), r);
  return out;
}

/// Run the computation until every expected result is written, then compare.
void expect_results(core::DmtcpControl& ctl,
                    const std::map<std::string, std::string>& expected) {
  sim::Kernel& k = ctl.kernel();
  const bool done = ctl.run_until(
      [&] {
        for (const auto& [name, value] : expected) {
          if (read_result(k, name).empty()) return false;
        }
        return true;
      },
      k.loop().now() + 600 * timeconst::kSecond);
  ASSERT_TRUE(done) << "computation did not finish";
  for (const auto& [name, value] : expected) {
    EXPECT_EQ(read_result(k, name), value) << "result diverged for " << name;
  }
}

using Param = std::tuple<int /*workload*/, int /*ckpt delay ms*/,
                         int /*codec*/>;

class Transparency : public ::testing::TestWithParam<Param> {};

TEST_P(Transparency, KillRestartIsInvisible) {
  const auto [wi, delay_ms, codec_i] = GetParam();
  const Workload& wl = workloads()[static_cast<size_t>(wi)];
  const auto expected = baseline(wl);
  for (const auto& [name, value] : expected) {
    ASSERT_FALSE(value.empty()) << "baseline failed for " << name;
  }

  sim::Cluster cluster([&] {
    auto cfg = sim::Cluster::lab_cluster(2);
    cfg.seed = mix_seed(0x9ace, wi, delay_ms);
    return cfg;
  }());
  core::DmtcpOptions opts;
  opts.codec = codec_i == 0 ? compress::CodecKind::kGzipish
                            : compress::CodecKind::kNone;
  core::DmtcpControl ctl(cluster.kernel(), opts);
  register_test_programs(cluster.kernel());
  wl.launch(cluster.kernel(), true, &ctl);
  ctl.run_for(delay_ms * timeconst::kMillisecond);
  const auto& round = ctl.checkpoint_now();
  if (round.procs > 0) {
    ctl.kill_computation();
    ctl.restart();
  }  // else: the workload finished before the request — nothing to restore
  expect_results(ctl, expected);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsTimesCodecs, Transparency,
    ::testing::Combine(::testing::Range(0, 7),
                       ::testing::Values(5, 11, 23, 47),
                       ::testing::Values(0, 1)),
    [](const auto& info) {
      return workloads()[static_cast<size_t>(std::get<0>(info.param))].name +
             std::string("_t") + std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == 0 ? "_gz" : "_raw");
    });

/// In-process resume (checkpoint without kill) must also be invisible —
/// swept over the same workloads and instants.
class ResumeTransparency
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ResumeTransparency, CheckpointResumeIsInvisible) {
  const auto [wi, delay_ms] = GetParam();
  const Workload& wl = workloads()[static_cast<size_t>(wi)];
  const auto expected = baseline(wl);

  sim::Cluster cluster(sim::Cluster::lab_cluster(2));
  core::DmtcpControl ctl(cluster.kernel(), {});
  register_test_programs(cluster.kernel());
  wl.launch(cluster.kernel(), true, &ctl);
  ctl.run_for(delay_ms * timeconst::kMillisecond);
  ctl.checkpoint_now();
  expect_results(ctl, expected);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsTimesInstants, ResumeTransparency,
    ::testing::Combine(::testing::Range(0, 7),
                       ::testing::Values(7, 19, 37)),
    [](const auto& info) {
      return workloads()[static_cast<size_t>(std::get<0>(info.param))].name +
             std::string("_t") + std::to_string(std::get<1>(info.param));
    });

/// A kill while a round is in flight abandons that round, and the
/// coordinator must still start the next one. The kill lands inside the
/// write barrier, just after `drained` is stamped; the restart runs off the
/// previous round's script, a new round completes, and the results are
/// byte-identical.
class KillMidRound : public ::testing::TestWithParam<int> {};

TEST_P(KillMidRound, AbandonedRoundDoesNotWedgeTheCoordinator) {
  const Workload& wl = workloads()[static_cast<size_t>(GetParam())];
  const auto expected = baseline(wl);

  sim::Cluster cluster(sim::Cluster::lab_cluster(2));
  core::DmtcpControl ctl(cluster.kernel(), {});
  register_test_programs(cluster.kernel());
  wl.launch(cluster.kernel(), true, &ctl);
  ctl.run_for(5 * timeconst::kMillisecond);
  ASSERT_GT(ctl.checkpoint_now().procs, 0);
  ctl.request_checkpoint();
  // Fine steps: run_until's 1 ms steps would overshoot the write barrier.
  const auto& rounds = ctl.stats().rounds;
  const SimTime deadline = cluster.kernel().loop().now() + timeconst::kSecond;
  while ((rounds.size() < 2 || rounds[1].drained == 0) &&
         cluster.kernel().loop().now() < deadline) {
    ctl.run_for(20 * timeconst::kMicrosecond);
  }
  ASSERT_EQ(rounds.size(), 2u);
  ASSERT_NE(rounds[1].drained, 0);
  ASSERT_EQ(rounds[1].checkpointed, 0) << "the kill must land mid-round";
  ctl.kill_computation();
  ctl.restart();
  EXPECT_GT(ctl.checkpoint_now().procs, 0);
  EXPECT_EQ(rounds.size(), 3u);
  EXPECT_EQ(rounds[1].refilled, 0);  // abandoned
  expect_results(ctl, expected);
}

INSTANTIATE_TEST_SUITE_P(
    OneProcessAndTwoNodes, KillMidRound, ::testing::Values(5, 0),
    [](const auto& info) {
      return std::string(workloads()[static_cast<size_t>(info.param)].name);
    });

}  // namespace
}  // namespace dsim::test
