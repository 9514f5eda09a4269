// End-to-end checkpoint/restart over the full stack: coordinator, hijack,
// seven-stage protocol, drain/refill, MTCP images, restart with discovery.
#include <gtest/gtest.h>

#include "core/launch.h"
#include "core/protocol.h"
#include "sim/cluster.h"
#include "tests/testprogs.h"

namespace dsim::test {
namespace {

using core::DmtcpControl;
using core::DmtcpOptions;

struct World {
  sim::Cluster cluster;
  DmtcpControl ctl;
  World(int nodes, DmtcpOptions opts = {}, u64 seed = 0x5eed)
      : cluster([&] {
          auto cfg = sim::Cluster::lab_cluster(nodes);
          cfg.seed = seed;
          return cfg;
        }()),
        ctl(cluster.kernel(), opts) {
    register_test_programs(cluster.kernel());
  }
  sim::Kernel& k() { return cluster.kernel(); }
  bool run_until_results(std::initializer_list<const char*> names,
                         SimTime deadline = 300 * timeconst::kSecond) {
    return ctl.run_until(
        [&] {
          for (const char* n : names) {
            if (read_result(k(), n).empty()) return false;
          }
          return true;
        },
        k().loop().now() + deadline);
  }
};

/// Ground truth: the same computation run without DMTCP at all.
std::map<std::string, std::string> baseline_results(
    const std::function<void(sim::Kernel&)>& spawn_all,
    std::initializer_list<const char*> names) {
  sim::Cluster cluster(sim::Cluster::lab_cluster(4));
  register_test_programs(cluster.kernel());
  spawn_all(cluster.kernel());
  cluster.kernel().loop().run_until(cluster.kernel().loop().now() +
                                    300 * timeconst::kSecond);
  std::map<std::string, std::string> out;
  for (const char* n : names) out[n] = read_result(cluster.kernel(), n);
  return out;
}

/// kImageStats round-trips through the wire encoding at pinned blob
/// lengths. The coordinator link charges a message by its length, so a
/// layout change would move simulated NIC time.
TEST(DmtcpBasic, ImageStatsRoundTripAtPinnedBlobLengths) {
  const core::ImageStats full{.round = 3, .node = 1, .path = "/ckpt/a.dmtcp",
                              .uncompressed = 5000, .written = 1234};
  core::ImageStats chunked = full;
  chunked.chunked = true;
  chunked.total_chunks = 40;
  chunked.new_chunks = 7;
  chunked.dup_bytes = 900;
  chunked.new_chunk_bytes = 300;
  chunked.raw_new_bytes = 700;
  core::ImageStats skipped{.round = 3, .node = 1, .path = "/ckpt/a.dmtcp"};
  skipped.chunked = skipped.skipped = true;
  const core::UniquePid upid{core::hostid_of(1), 42, 7};
  const std::pair<core::ImageStats, size_t> cases[] = {
      {full, 8}, {chunked, 56}, {skipped, 56}};
  for (const auto& [rec, blob_bytes] : cases) {
    const core::Msg m = rec.to_msg(upid);
    EXPECT_EQ(m.blob.size(), blob_bytes);
    const core::Msg wire = core::Msg::decode(m.encode());
    EXPECT_EQ(wire.type, core::MsgType::kImageStats);
    EXPECT_EQ(wire.upid, upid);
    EXPECT_EQ(core::ImageStats::from_msg(wire), rec);
  }
}

TEST(DmtcpBasic, PingPongRunsUnderDmtcpWithoutCheckpoint) {
  World w(2);
  w.ctl.launch(0, kPingServer, {"9000", "50", "2048", "srv"});
  w.ctl.launch(1, kPingClient, {"0", "9000", "50", "2048", "7", "cli"});
  ASSERT_TRUE(w.run_until_results({"srv", "cli"}));
  auto expected = baseline_results(
      [](sim::Kernel& k) {
        k.spawn_process(0, kPingServer, {"9000", "50", "2048", "srv"}, {});
        k.spawn_process(1, kPingClient, {"0", "9000", "50", "2048", "7", "cli"},
                        {});
      },
      {"srv", "cli"});
  EXPECT_EQ(read_result(w.k(), "srv"), expected["srv"]);
  EXPECT_EQ(read_result(w.k(), "cli"), expected["cli"]);
}

TEST(DmtcpBasic, CheckpointResumePreservesSocketStreams) {
  World w(2);
  w.ctl.launch(0, kPingServer, {"9000", "400", "4096", "srv"});
  w.ctl.launch(1, kPingClient, {"0", "9000", "400", "4096", "7", "cli"});
  w.ctl.run_for(40 * timeconst::kMillisecond);  // mid-computation
  const auto& round = w.ctl.checkpoint_now();
  EXPECT_GT(round.total_seconds(), 0.0);
  EXPECT_EQ(round.procs, 2);
  ASSERT_TRUE(w.run_until_results({"srv", "cli"}));
  // CRCs depend only on payload content: any lost/duplicated byte breaks.
  EXPECT_NE(read_result(w.k(), "srv").find("rounds=400"), std::string::npos);
  EXPECT_EQ(read_result(w.k(), "srv").substr(0, 12),
            read_result(w.k(), "cli").substr(0, 12));
}

TEST(DmtcpBasic, KillAndRestartCompletesIdentically) {
  auto expected = baseline_results(
      [](sim::Kernel& k) {
        k.spawn_process(0, kPingServer, {"9000", "300", "1024", "srv"}, {});
        k.spawn_process(1, kPingClient, {"0", "9000", "300", "1024", "9", "cli"},
                        {});
      },
      {"srv", "cli"});

  World w(2);
  w.ctl.launch(0, kPingServer, {"9000", "300", "1024", "srv"});
  w.ctl.launch(1, kPingClient, {"0", "9000", "300", "1024", "9", "cli"});
  w.ctl.run_for(30 * timeconst::kMillisecond);
  w.ctl.checkpoint_now();
  const std::vector<Pid> before = w.k().live_pids();
  w.ctl.kill_computation();
  // Nothing should finish while dead.
  EXPECT_TRUE(read_result(w.k(), "srv").empty());
  // A killed incarnation keeps only its exit status: its memory is
  // released at exit, not held until the run ends.
  int killed = 0;
  for (const Pid pid : before) {
    sim::Process* p = w.k().find_process(pid);
    ASSERT_NE(p, nullptr);
    if (p->state() == sim::ProcState::kRunning) continue;
    ++killed;
    EXPECT_TRUE(p->mem().segments().empty()) << "pid " << pid;
  }
  EXPECT_GE(killed, 2);
  const auto& rr = w.ctl.restart();
  EXPECT_EQ(rr.procs, 2);
  ASSERT_TRUE(w.run_until_results({"srv", "cli"}));
  EXPECT_EQ(read_result(w.k(), "srv"), expected["srv"]);
  EXPECT_EQ(read_result(w.k(), "cli"), expected["cli"]);
}

TEST(DmtcpBasic, RestartWithMigrationToOtherNodes) {
  auto expected = baseline_results(
      [](sim::Kernel& k) {
        k.spawn_process(0, kPingServer, {"9000", "200", "1024", "srv"}, {});
        k.spawn_process(1, kPingClient, {"0", "9000", "200", "1024", "3", "cli"},
                        {});
      },
      {"srv", "cli"});

  World w(4);
  w.ctl.launch(0, kPingServer, {"9000", "200", "1024", "srv"});
  w.ctl.launch(1, kPingClient, {"0", "9000", "200", "1024", "3", "cli"});
  w.ctl.run_for(25 * timeconst::kMillisecond);
  w.ctl.checkpoint_now();
  w.ctl.kill_computation();
  // Move both original hosts to fresh nodes (processes relocated, §4.4).
  const auto& rr = w.ctl.restart({{0, 2}, {1, 3}});
  EXPECT_EQ(rr.procs, 2);
  ASSERT_TRUE(w.run_until_results({"srv", "cli"}));
  EXPECT_EQ(read_result(w.k(), "srv"), expected["srv"]);
  EXPECT_EQ(read_result(w.k(), "cli"), expected["cli"]);
}

}  // namespace
}  // namespace dsim::test
