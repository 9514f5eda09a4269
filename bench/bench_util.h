// Shared benchmark harness utilities.
//
// Every figure/table bench builds a fresh simulated cluster per repetition
// (seeded differently so device jitter produces the paper's error bars),
// brings the workload to a steady state, and measures checkpoint and
// restart rounds through DmtcpControl's stats. Output is an ASCII table on
// stdout (one row per data point) so the paper's plots can be re-drawn
// directly from the captured output.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "apps/desktop.h"
#include "apps/distributed.h"
#include "core/launch.h"
#include "mpi/runtime.h"
#include "sim/cluster.h"
#include "sim/model_params.h"
#include "util/stats.h"
#include "util/table.h"

namespace dsim::bench {

struct World {
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<core::DmtcpControl> ctl;

  World(int nodes, core::DmtcpOptions opts, u64 seed, bool san = false,
        int cores = sim::params::kCoresPerNode) {
    auto cfg = sim::Cluster::lab_cluster(nodes, san);
    cfg.seed = seed;
    cfg.cores_per_node = cores;
    cfg.jitter_sigma = sim::params::kJitterSigma;
    cluster = std::make_unique<sim::Cluster>(cfg);
    ctl = std::make_unique<core::DmtcpControl>(cluster->kernel(), opts);
    apps::register_desktop_programs(cluster->kernel());
    apps::register_distributed_programs(cluster->kernel());
    mpi::register_runtime_programs(cluster->kernel());
  }
  sim::Kernel& k() { return cluster->kernel(); }
};

/// One measured checkpoint + (optional) restart.
struct Measured {
  double ckpt_seconds = 0;
  double restart_seconds = 0;
  u64 uncompressed = 0;
  u64 compressed = 0;
  int procs = 0;
  core::CkptRound round;
  core::RestartRun restart;
};

/// Bring up `launch`, wait `settle` of virtual time, checkpoint; optionally
/// kill + restart. The world is consumed.
inline Measured measure(World& w, const std::function<void(World&)>& launch,
                        SimTime settle, bool do_restart) {
  launch(w);
  w.ctl->run_for(settle);
  const auto& round = w.ctl->checkpoint_now();
  Measured m;
  m.round = round;
  m.ckpt_seconds = round.total_seconds();
  m.uncompressed = round.total_uncompressed;
  m.compressed = round.total_compressed;
  m.procs = round.procs;
  if (do_restart) {
    w.ctl->kill_computation();
    const auto& rr = w.ctl->restart();
    m.restart = rr;
    m.restart_seconds = rr.total_seconds();
  }
  return m;
}

/// Rewrite every extent of every segment of `pid` with its own content:
/// pattern extents are re-filled with their kind and seed, real extents
/// rewritten with their bytes. Every page is then dirty and every chunk
/// key unchanged, so the next incremental round rescans the whole image
/// and sends a dedup Lookup for every chunk; the rewrite alone stores
/// nothing new.
inline void rewrite_in_place(sim::Kernel& k, Pid pid) {
  for (const auto& seg : k.find_process(pid)->mem().segments()) {
    std::vector<std::tuple<u64, u64, sim::ExtentKind, u64>> exts;
    seg->data.for_each_extent([&](u64 off, const sim::ByteImage::Extent& e) {
      exts.emplace_back(off, e.len, e.kind, e.seed);
    });
    for (const auto& [off, len, kind, seed] : exts) {
      if (kind == sim::ExtentKind::kReal) {
        seg->data.write_owned(off, seg->data.materialize(off, len));
      } else {
        seg->data.fill(off, len, kind, seed);
      }
    }
  }
}

inline int env_int(const char* name, int dflt) {
  const char* v = std::getenv(name);
  return v ? std::atoi(v) : dflt;
}

/// Repetitions per data point (paper: 10; default trimmed for CI runtimes).
inline int reps() { return env_int("DSIM_BENCH_REPS", 3); }

inline std::string mb(u64 bytes) {
  return Table::fmt(static_cast<double>(bytes) / (1024.0 * 1024.0), 1);
}

}  // namespace dsim::bench
