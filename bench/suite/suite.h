// The repo benchmark's workload driver: shared types.
//
// One driver process runs one workload on one seed. An *episode* is the
// workload's whole closed-loop scenario on a freshly built simulated
// cluster: set up, checkpoint, kill, restart, run to completion. The
// driver repeats episodes until the requested host seconds are spent and
// reports medians, so host-clock metrics are medians over episodes while
// the simulated-clock metrics repeat exactly for a given seed.
//
// Everything is measured from outside the program: host time by timing
// calls into core::DmtcpControl, per-layer numbers by reading each layer's
// public stats after the episode.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/launch.h"
#include "sim/cluster.h"

namespace dsim::suite {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One reported number: value, unit and the sample count behind it.
struct Metric {
  double value = 0;
  std::string unit;
  size_t n = 1;
};
/// Ordered by name so the emitted JSON is stable.
using Ledger = std::map<std::string, Metric>;

/// Where timed loops leave their result, so the compiler must compute it.
inline volatile u64 g_sink = 0;

/// Times a fixed register-only loop: its cost depends on the machine's
/// current speed and on nothing the program does (no memory, so no cache
/// state the previous call left behind).
double probe_seconds();
/// The probe's median time on the 4-vCPU Xeon VM (2.0 GHz) the README's
/// sets were measured on.
inline constexpr double kProbeReferenceSeconds = 0.0067;

/// Host seconds spent inside the program, by the DmtcpControl call (or
/// memory write) that spent them; the bucket "setup" is the episode's
/// set-up, every other bucket is its measured phase.
///
/// A shared VM's vCPU speed drifts by tens of percent over minutes and
/// moves every wall time with it. Each call's wall time is therefore
/// rescaled to the reference speed by the probe timed right before and
/// right after it: wall * kProbeReferenceSeconds / mean(probe before,
/// probe after). A change in the program's own cost moves the rescaled
/// time; the machine's drift mostly cancels. Raw wall seconds are kept.
class HostTimer {
 public:
  struct Mark {
    Clock::time_point t0;
    double probe = 0;
  };
  Mark start() {
    // A probe taken a moment ago still describes the machine.
    if (last_probe_ == 0 || seconds_since(last_probe_at_) > 0.05) {
      last_probe_ = probe_seconds();
      last_probe_at_ = Clock::now();
    }
    return {Clock::now(), last_probe_};
  }
  void stop(const std::string& bucket, const Mark& m) {
    const double wall = seconds_since(m.t0);
    last_probe_ = probe_seconds();
    last_probe_at_ = Clock::now();
    by_call_[bucket] +=
        wall * kProbeReferenceSeconds / ((m.probe + last_probe_) / 2);
    if (bucket != "setup") wall_ += wall;
  }
  template <typename Fn>
  decltype(auto) time(const std::string& bucket, Fn&& fn) {
    struct Stop {
      HostTimer* self;
      const std::string& bucket;
      Mark mark;
      ~Stop() { self->stop(bucket, mark); }
    } stop{this, bucket, start()};
    return fn();
  }
  /// Rescaled seconds of the measured phase.
  double total() const {
    double s = 0;
    for (const auto& [name, v] : by_call_) s += name == "setup" ? 0 : v;
    return s;
  }
  double get(const std::string& bucket) const {
    const auto it = by_call_.find(bucket);
    return it == by_call_.end() ? 0.0 : it->second;
  }
  /// Raw wall seconds of the measured phase.
  double wall() const { return wall_; }

 private:
  std::map<std::string, double> by_call_;
  double wall_ = 0;
  double last_probe_ = 0;
  Clock::time_point last_probe_at_;
};

/// Everything one episode yields. Correctness checks that need the
/// uninterrupted reference result are deferred: `results` holds what the
/// restarted applications wrote, compared once the reference is known.
struct Episode {
  // Simulated clock, end to end.
  std::vector<double> pauses;    // CkptRound::total_seconds() per round
  std::vector<double> durables;  // request -> image durable, per round
  std::vector<double> restarts;  // RestartRun::total_seconds() per restart
  double storage_ratio = 0;
  // Host clock.
  HostTimer host;
  // Correctness, checked during the episode.
  u64 ops = 0;
  u64 ops_failed = 0;
  std::vector<std::string> failures;
  // Deferred correctness: application results after the final restart.
  std::vector<std::string> results;
  // Per-layer numbers read from the layers' public stats.
  Ledger layers;
  // Real bytes sampled from a restored process image (the kernel replay
  // input), filled by the traced run only.
  std::vector<std::byte> corpus;

  void check(bool ok, const std::string& what) {
    ops++;
    if (!ok) {
      ops_failed++;
      failures.push_back(what);
    }
  }
};

struct EpisodeConfig {
  u64 seed = 1;
  /// Non-empty: the traced run. Arms --trace-out/--metrics-out/
  /// --health-out under this path prefix and keeps the replay corpus.
  std::string trace_prefix;
  /// Return right after set-up (a set-up-time sample only).
  bool setup_only = false;
};

/// A workload: its episode and its uninterrupted reference result.
struct Workload {
  std::string name;
  Episode (*episode)(const EpisodeConfig&);
  /// The result an uninterrupted run with the same arguments writes.
  std::string (*reference)(u64 seed);
};

const std::vector<Workload>& workloads();

/// Kernel replay: time each layer's public kernels over `corpus` (the
/// workload's own final image bytes) and the synthetic event-loop mix,
/// into `e.layers`; the round trips they perform are checked into `e`.
void replay_kernels(const std::vector<std::byte>& corpus, u64 seed,
                    Episode& e);

double median(std::vector<double> v);

}  // namespace dsim::suite
