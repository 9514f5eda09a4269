// Feature-level tests of the DMTCP layer: pid virtualization and the
// fork-conflict re-fork, pipes/ptys/shm through checkpoint+restart,
// dmtcpaware, interval checkpoints, restart-script round trip, forked
// checkpointing correctness, multi-generation restarts.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "apps/app_util.h"
#include "core/dmtcpaware.h"
#include "core/hijack.h"
#include "core/launch.h"
#include "core/restart_script.h"
#include "sim/cluster.h"
#include "tests/testprogs.h"
#include "tests/testutil.h"

namespace dsim::test {
namespace {

using core::DmtcpControl;
using core::DmtcpOptions;

struct World {
  sim::Cluster cluster;
  DmtcpControl ctl;
  explicit World(int nodes, DmtcpOptions opts = {}, u64 seed = 0x5eed)
      : cluster([&] {
          auto cfg = sim::Cluster::lab_cluster(nodes);
          cfg.seed = seed;
          return cfg;
        }()),
        ctl(cluster.kernel(), opts) {
    register_test_programs(cluster.kernel());
  }
  sim::Kernel& k() { return cluster.kernel(); }
  bool wait_result(const std::string& name) {
    return ctl.run_until([&] { return !read_result(k(), name).empty(); },
                         k().loop().now() + 300 * timeconst::kSecond);
  }
};

TEST(PipePromotion, PipeSurvivesCheckpointKillRestart) {
  World w(1);
  w.ctl.launch(0, kPipeChain, {"262144", "pipe1"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  w.ctl.checkpoint_now();
  w.ctl.kill_computation();
  w.ctl.restart();
  ASSERT_TRUE(w.wait_result("pipe1.child"));
  // 256 KiB of deterministic bytes: CRC proves nothing was lost/duplicated.
  EXPECT_NE(read_result(w.k(), "pipe1.child").find("bytes=262144"),
            std::string::npos);
}

TEST(SharedMemory, CountersConsistentAfterRestart) {
  World w(1);
  w.ctl.launch(0, kShmPair, {"/shared/shm/c1", "40", "shm1"});
  w.ctl.run_for(15 * timeconst::kMillisecond);
  w.ctl.checkpoint_now();
  w.ctl.kill_computation();
  w.ctl.restart();
  ASSERT_TRUE(w.wait_result("shm1"));
  // Parent + child each increment 40 times through a token protocol.
  EXPECT_EQ(read_result(w.k(), "shm1"), "counter=80");
}

TEST(SharedMemory, ReadOnlyBackingFileKeepsItsCurrentBytesOnRestart) {
  // §4.5: a restored shared segment is rewritten with the checkpoint's
  // bytes when its backing file is writable, and maps the file's current
  // bytes when the file is read-only.
  const std::string path = "/shared/shm/ro";
  const auto ckpt_bytes = pseudo_bytes(4096, 1);
  const auto file_bytes = pseudo_bytes(4096, 2);
  for (const bool read_only : {false, true}) {
    World w(1);
    const Pid pid = w.ctl.launch(0, kComputeLoop, {"1000000", "200", "ro"});
    w.ctl.run_for(20 * timeconst::kMillisecond);
    {
      sim::Process* p = w.k().find_process(pid);
      ASSERT_NE(p, nullptr);
      auto seg = w.k().mmap_shared(*p, path, ckpt_bytes.size());
      p->mem().attach(seg);
      seg->data.write(0, ckpt_bytes);
    }
    w.ctl.checkpoint_now();
    w.ctl.kill_computation();
    sim::FileSystem& fs = w.k().fs_for(0, path);
    fs.lookup(path)->data.write(0, file_bytes);
    fs.set_read_only(path, read_only);
    w.ctl.restart();
    sim::Process* restored = nullptr;
    for (Pid live : w.k().live_pids()) {
      sim::Process* p = w.k().find_process(live);
      if (p != nullptr && p->prog_name() == kComputeLoop) restored = p;
    }
    ASSERT_NE(restored, nullptr);
    const sim::MemSegment* seg = restored->mem().find("shm:" + path);
    ASSERT_NE(seg, nullptr);
    EXPECT_TRUE(seg->data.materialize(0, seg->data.size()) ==
                (read_only ? file_bytes : ckpt_bytes))
        << "read_only=" << read_only;
  }
}

// One shell, then one shell on each of nodes 0 and 1, both restarted onto
// node 0: each node numbered its own pty 0, and each shell gets a pair of
// its own back.
TEST(Pty, TermiosAndStreamSurviveRestart) {
  for (const int shells : {1, 2}) {
    SCOPED_TRACE(std::to_string(shells) + " shell(s)");
    World w(shells);
    for (int n = 0; n < shells; ++n) {
      w.ctl.launch(n, kPtyShell, {"30", "pty" + std::to_string(n + 1)});
    }
    w.ctl.run_for(15 * timeconst::kMillisecond);
    w.ctl.checkpoint_now();
    w.ctl.kill_computation();
    w.ctl.restart({{1, 0}});
    // The pair is recreated under its checkpointed id, so the controlling
    // terminal restored from the image still names it.
    std::set<const sim::PtyPair*> pairs;
    for (Pid live : w.k().live_pids()) {
      sim::Process* restored = w.k().find_process(live);
      if (restored == nullptr || restored->prog_name() != kPtyShell) continue;
      int masters = 0;
      for (const auto& [fd, of] : restored->fds().entries()) {
        if (of->vnode->kind() != sim::VKind::kPtyMaster) continue;
        ++masters;
        const sim::PtyPair& pair =
            static_cast<sim::PtyVNode&>(*of->vnode).pair();
        EXPECT_EQ(pair.id, restored->ctty());
        pairs.insert(&pair);
      }
      EXPECT_EQ(masters, 1);
    }
    EXPECT_EQ(pairs.size(), static_cast<size_t>(shells));
    for (int n = 0; n < shells; ++n) {
      const std::string name = "pty" + std::to_string(n + 1);
      ASSERT_TRUE(w.wait_result(name));
      // Raw mode (echo off, icanon off) set before the checkpoint must
      // survive.
      EXPECT_NE(read_result(w.k(), name).find("echo=0 icanon=0"),
                std::string::npos);
    }
    // So must the pty's name.
    const auto result = read_result(w.k(), "pty1");
    EXPECT_NE(result.find("pts=/dev/pts/0"), std::string::npos) << result;
  }
}

TEST(PidVirtualization, SpawnTreeSurvivesRestartAndReportsVpid) {
  World w(1);
  w.ctl.launch(0, kSpawnTree, {"4", "400", "tree1"});
  w.ctl.run_for(25 * timeconst::kMillisecond);
  w.ctl.checkpoint_now();
  w.ctl.kill_computation();
  w.ctl.restart();
  ASSERT_TRUE(w.wait_result("tree1"));
  // Exit-code sum: (id*7+3)%64 for ids 0..3 = 3+10+17+24 = 54.
  EXPECT_NE(read_result(w.k(), "tree1").find("sum=54"), std::string::npos);
  // getpid() must still return the original (virtual) pid after restart.
  ASSERT_TRUE(w.wait_result("tree1.vpid"));
  EXPECT_EQ(read_result(w.k(), "tree1.vpid"), "vpid=101");
}

TEST(PidVirtualization, ConflictTriggersRefork) {
  // Force a collision: restart so a restored process owns vpid X, then
  // spawn children until the kernel's pid counter passes X.
  World w(1);
  w.ctl.launch(0, kComputeLoop, {"4000", "500", "cl1"});
  w.ctl.run_for(20 * timeconst::kMillisecond);
  w.ctl.checkpoint_now();
  w.ctl.kill_computation();
  w.ctl.restart();
  // The restored process holds vpid 101 while real pids have moved on; a
  // fresh process under the same coordinator spawning children cannot
  // collide visibly — but the hijack guards it. Exercise the spawn path:
  w.ctl.launch(0, kSpawnTree, {"3", "10", "tree2"});
  ASSERT_TRUE(w.wait_result("tree2"));
  ASSERT_TRUE(w.wait_result("cl1"));
}

TEST(Dmtcpaware, IntervalCheckpointsFire) {
  DmtcpOptions opts;
  opts.interval = 30 * timeconst::kMillisecond;
  World w(1, opts);
  w.ctl.launch(0, kComputeLoop, {"4000", "200", "iv1"});
  w.ctl.run_until([&] { return w.ctl.stats().rounds.size() >= 3; },
                  w.k().loop().now() + 60 * timeconst::kSecond);
  EXPECT_GE(w.ctl.stats().rounds.size(), 3u);
  ASSERT_TRUE(w.wait_result("iv1"));
}

struct HookCounts {
  int pre = 0, post = 0, post_restart = 0;
};

struct HookedState {
  u64 installed = 0;
};

// Installs counting hooks once, then idles: the restored process never
// installs them again, as a real one finds them in its restored memory.
sim::Task<int> hooked_main(sim::ProcessCtx& ctx, HookCounts* n) {
  apps::StateView<HookedState> st(ctx);
  if (!st.get().installed) {
    core::dmtcp_install_hooks(
        ctx, [n] { n->pre++; }, [n] { n->post++; },
        [n] { n->post_restart++; });
    st.set(HookedState{1});
  }
  while (true) co_await ctx.sleep(5 * timeconst::kMillisecond);
}

TEST(Dmtcpaware, HooksFireAcrossARestart) {
  HookCounts n;  // outlives the world that holds the hooks
  World w(1);
  sim::Program p;
  p.name = "hooked";
  p.main = [&n](sim::ProcessCtx& ctx) { return hooked_main(ctx, &n); };
  w.k().programs().add(std::move(p));
  w.ctl.launch(0, "hooked");
  w.ctl.run_for(10 * timeconst::kMillisecond);
  w.ctl.checkpoint_now();
  EXPECT_EQ(n.pre, 1);
  EXPECT_EQ(n.post, 1);
  EXPECT_EQ(n.post_restart, 0);
  w.ctl.kill_computation();
  w.ctl.restart();
  EXPECT_EQ(n.post_restart, 1);
  EXPECT_EQ(n.pre, 1);
  EXPECT_EQ(n.post, 1);
  w.ctl.run_for(10 * timeconst::kMillisecond);
  w.ctl.checkpoint_now();
  EXPECT_EQ(n.pre, 2);
  EXPECT_EQ(n.post, 2);
  EXPECT_EQ(n.post_restart, 1);
}

TEST(RestartScript, FormatParseRoundTrip) {
  core::RestartPlan plan;
  plan.coord_node = 2;
  plan.coord_port = 7780;
  plan.total_procs = 7;
  plan.hosts.push_back({0, {"/ckpt/a.dmtcp", "/ckpt/b.dmtcp"}});
  plan.hosts.push_back({3, {"/ckpt/c.dmtcp"}});
  const auto text = core::format_restart_script(plan);
  EXPECT_NE(text.find("#!/bin/sh"), std::string::npos);
  const auto back = core::parse_restart_script(text);
  EXPECT_EQ(back.coord_node, 2);
  EXPECT_EQ(back.coord_port, 7780);
  EXPECT_EQ(back.total_procs, 7);
  ASSERT_EQ(back.hosts.size(), 2u);
  EXPECT_EQ(back.hosts[0].host, 0);
  EXPECT_EQ(back.hosts[0].images,
            (std::vector<std::string>{"/ckpt/a.dmtcp", "/ckpt/b.dmtcp"}));
  EXPECT_EQ(back.hosts[1].host, 3);
}

TEST(ForkedCheckpointing, ResumesFastAndRestartsCorrectly) {
  DmtcpOptions plain_opts;
  DmtcpOptions forked_opts;
  forked_opts.forked_checkpointing = true;

  double plain_stop = 0, forked_stop = 0;
  std::string expected;
  {
    World w(2, plain_opts);
    w.ctl.launch(0, kPingServer, {"9000", "200", "2048", "fsrv"});
    w.ctl.launch(1, kPingClient, {"0", "9000", "200", "2048", "5", "fcli"});
    w.ctl.run_for(25 * timeconst::kMillisecond);
    plain_stop = w.ctl.checkpoint_now().total_seconds();
    ASSERT_TRUE(w.wait_result("fsrv"));
    expected = read_result(w.k(), "fsrv");
  }
  {
    World w(2, forked_opts);
    w.ctl.launch(0, kPingServer, {"9000", "200", "2048", "fsrv"});
    w.ctl.launch(1, kPingClient, {"0", "9000", "200", "2048", "5", "fcli"});
    w.ctl.run_for(25 * timeconst::kMillisecond);
    forked_stop = w.ctl.checkpoint_now().total_seconds();
    // Let the background writer finish before killing (image durability).
    w.ctl.run_for(30 * timeconst::kSecond);
    w.ctl.kill_computation();
    w.ctl.restart();
    ASSERT_TRUE(w.wait_result("fsrv"));
    EXPECT_EQ(read_result(w.k(), "fsrv"), expected);
  }
  // §5.3: forked checkpointing slashes the user-visible stop time.
  EXPECT_LT(forked_stop, plain_stop);
}

TEST(MultiGeneration, CheckpointRestartRepeatedly) {
  World w(2);
  w.ctl.launch(0, kPingServer, {"9000", "500", "1024", "gsrv"});
  w.ctl.launch(1, kPingClient, {"0", "9000", "500", "1024", "11", "gcli"});
  for (int gen = 0; gen < 3; ++gen) {
    w.ctl.run_for(20 * timeconst::kMillisecond);
    w.ctl.checkpoint_now();
    w.ctl.kill_computation();
    w.ctl.restart();
  }
  ASSERT_TRUE(w.wait_result("gsrv"));
  EXPECT_EQ(read_result(w.k(), "gsrv").substr(0, 12),
            read_result(w.k(), "gcli").substr(0, 12));
  EXPECT_NE(read_result(w.k(), "gsrv").find("rounds=500"), std::string::npos);
}

// Incremental rounds rescan only what a process wrote. After a round no
// snapshot pins the heap, so a write lands in place; a shared segment is
// never armed and always scanned whole; a restored process starts with no
// memo, so its first round scans everything.
TEST(IncrementalRescan, HeapWritesStayInPlaceAndRestartsScanEverything) {
  DmtcpOptions opts;
  opts.incremental = true;
  opts.chunking = ckptstore::ChunkingMode::kCdc;
  opts.cdc_min_bytes = 4 * 1024;
  opts.cdc_avg_bytes = 16 * 1024;
  opts.cdc_max_bytes = 64 * 1024;
  World w(1, opts);
  w.ctl.launch(0, kShmPair, {"/shared/shm/rescan", "400", "rescan"});
  w.ctl.run_for(15 * timeconst::kMillisecond);
  constexpr u64 kHeap = 1 << 20;
  const std::string shm = "shm:/shared/shm/rescan";
  auto parent = [&] {
    for (Pid pid : w.k().live_pids()) {
      sim::Process* p = w.k().find_process(pid);
      if (p != nullptr && p->prog_name() == kShmPair) return p;
    }
    return static_cast<sim::Process*>(nullptr);
  };
  auto memo_of = [&](sim::Process* p) -> const auto& {
    return dynamic_cast<core::Hijack&>(*p->interposer()).scan_memo();
  };
  sim::Process* p = parent();
  ASSERT_NE(p, nullptr);
  p->mem().add("heap", sim::MemKind::kHeap, kHeap).data.write(
      0, pseudo_bytes(kHeap, 5));

  w.ctl.checkpoint_now();
  EXPECT_EQ(memo_of(p).at("heap").rescanned_bytes, kHeap);
  EXPECT_EQ(p->mem().find(shm)->data.soft_dirty_token(), 0u);
  EXPECT_EQ(memo_of(p).count(shm), 0u);

  // In place: the extent and its buffer survive the write.
  sim::ByteImage& heap = p->mem().find("heap")->data;
  auto buffer_at = [&](u64 at) {
    const std::vector<std::byte>* buf = nullptr;
    heap.for_each_extent([&](u64 off, const sim::ByteImage::Extent& e) {
      if (off <= at && at < off + e.len) buf = e.data.get();
    });
    return buf;
  };
  const size_t extents = heap.extent_count();
  const auto* buf = buffer_at(300 * 1024);
  heap.write(300 * 1024, pseudo_bytes(4096, 6));
  EXPECT_EQ(heap.extent_count(), extents);
  EXPECT_EQ(buffer_at(300 * 1024), buf);

  w.ctl.checkpoint_now();
  const u64 rescanned = memo_of(p).at("heap").rescanned_bytes;
  EXPECT_GT(rescanned, 0u);
  EXPECT_LT(rescanned, kHeap / 8);
  EXPECT_EQ(p->mem().find(shm)->data.soft_dirty_token(), 0u);

  w.ctl.kill_computation();
  w.ctl.restart();
  p = parent();
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(memo_of(p).empty());
  EXPECT_EQ(p->mem().find("heap")->data.soft_dirty_token(), 0u);
  w.ctl.checkpoint_now();
  EXPECT_EQ(memo_of(p).at("heap").rescanned_bytes, kHeap);
  EXPECT_EQ(memo_of(p).count(shm), 0u);

  ASSERT_TRUE(w.wait_result("rescan"));
  EXPECT_EQ(read_result(w.k(), "rescan"), "counter=800");
}

TEST(SyncModes, SyncAfterCostsMoreThanNone) {
  double none_s = 0, sync_s = 0;
  for (const bool sync : {false, true}) {
    DmtcpOptions opts;
    opts.sync = sync ? core::SyncMode::kSyncAfter : core::SyncMode::kNone;
    World w(1, opts);
    w.ctl.launch(0, "compute_loop", {"4000", "500", "sy"});
    w.ctl.run_for(20 * timeconst::kMillisecond);
    const double t = w.ctl.checkpoint_now().total_seconds();
    (sync ? sync_s : none_s) = t;
  }
  EXPECT_GT(sync_s, none_s);
}

}  // namespace
}  // namespace dsim::test
