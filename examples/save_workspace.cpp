// "Save/restore workspace" (§1 use case 1) with the dmtcpaware programming
// interface (§3.1): an interactive application that knows it runs under
// DMTCP, requests its own checkpoints at meaningful moments, guards a
// critical section against checkpointing, and re-installs hooks on restart.
#include <cstdio>

#include "apps/app_util.h"
#include "core/dmtcpaware.h"
#include "core/launch.h"
#include "sim/cluster.h"

using namespace dsim;
using apps::StateView;

namespace {

struct WorkspaceState {
  u64 edits = 0;
  u64 saves = 0;
};

sim::Task<int> workspace_main(sim::ProcessCtx& ctx) {
  if (!ctx.seg("heap")) {
    auto& heap = ctx.alloc("heap", sim::MemKind::kHeap, 24ull << 20);
    heap.data.fill(12ull << 20, 12ull << 20, sim::ExtentKind::kRand, 0x90);
  }
  StateView<WorkspaceState> st(ctx);
  WorkspaceState s = st.get();

  if (core::dmtcp_is_enabled(ctx)) {
    core::dmtcp_install_hooks(
        ctx, [] { std::printf("  [app] pre-checkpoint hook\n"); },
        [] { std::printf("  [app] post-checkpoint hook (resumed)\n"); },
        [] { std::printf("  [app] post-restart hook (workspace back!)\n"); });
  }

  while (s.edits < 60) {
    {
      // A critical section no checkpoint may interrupt (§3.1).
      core::DmtcpDelayGuard guard(ctx);
      co_await ctx.cpu(200e-6);
      s.edits++;
      st.set(s);
    }
    if (s.edits % 20 == 0 && ctx.phase() == 0) {
      // "Save workspace" == ask DMTCP for a checkpoint.
      std::printf("  [app] saving workspace at edit %llu\n",
                  static_cast<unsigned long long>(s.edits));
      co_await core::dmtcp_request_checkpoint(ctx);
      s.saves++;
      st.set(s);
      const auto status = core::dmtcp_status(ctx);
      std::printf("  [app] generation now %d (vpid %d)\n",
                  status.checkpoint_generation, status.virtual_pid);
    }
    co_await ctx.sleep(2 * timeconst::kMillisecond);
  }
  co_await apps::write_result(ctx, "workspace", "workspace complete");
  co_return 0;
}

}  // namespace

int main() {
  sim::Cluster cluster(sim::Cluster::single_node());
  core::DmtcpControl dmtcp(cluster.kernel(), core::DmtcpOptions{});
  sim::Program p;
  p.name = "workspace_app";
  p.main = workspace_main;
  cluster.kernel().programs().add(std::move(p));

  dmtcp.launch(0, "workspace_app");
  // The app checkpoints itself; we crash it once and restore the workspace.
  dmtcp.run_until([&] { return dmtcp.stats().rounds.size() >= 2; },
                  cluster.kernel().loop().now() + 60 * timeconst::kSecond);
  // The kill lands while the second save's round is in flight.
  const size_t rounds_before_crash = dmtcp.stats().rounds.size();
  std::printf("simulating a desktop crash after %zu workspace saves\n",
              rounds_before_crash);
  dmtcp.kill_computation();
  const auto& rr = dmtcp.restart();
  std::printf("workspace restored in %.3f s\n", rr.total_seconds());
  const bool done = dmtcp.run_until(
      [&] {
        auto inode =
            cluster.kernel().shared_fs().lookup("/shared/results/workspace");
        return inode && inode->data.size() > 0;
      },
      cluster.kernel().loop().now() + 120 * timeconst::kSecond);
  std::printf("session completed: %s\n", done ? "yes" : "NO");
  // The saves after the restart start rounds, and each one completes.
  const auto& rounds = dmtcp.stats().rounds;
  bool saved = rounds.size() > rounds_before_crash;
  for (size_t i = rounds_before_crash; i < rounds.size(); ++i) {
    saved = saved && rounds[i].refilled != 0;
  }
  std::printf("saves after the restart completed: %s (%zu rounds)\n",
              saved ? "yes" : "NO", rounds.size());
  return done && saved ? 0 : 1;
}
