// Fluid-share CPU model.
//
// Each node has `cores` cores. Active compute jobs share them: with n jobs
// and c cores, each job progresses at min(1, c/n) core-seconds per second.
// Completion events are recomputed whenever the active set changes. This is
// the standard fluid approximation; it is what makes forked-checkpoint
// compression visibly slow down user threads (§5.3) without any special
// casing.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "sim/event_loop.h"
#include "util/types.h"

namespace dsim::sim {

class CpuModel {
 public:
  using JobId = u64;

  CpuModel(EventLoop& loop, int cores) : loop_(loop), cores_(cores) {}

  /// Submit a job needing `core_seconds` of CPU; `done` fires on completion.
  JobId submit(double core_seconds, std::function<void()> done);

  /// Pause a running job (checkpoint suspend); remaining work is retained.
  void pause(JobId id);
  /// Resume a paused job.
  void resume(JobId id);
  /// Cancel a job entirely (process kill). No-op if unknown/finished.
  void cancel(JobId id);

  int active_jobs() const { return static_cast<int>(running_.size()); }
  int cores() const { return cores_; }

 private:
  struct Job {
    double remaining;  // core-seconds
    SimTime last_update;
    std::function<void()> done;
    EventId ev = kNoEvent;
  };

  double rate() const;  // core-seconds per second per job
  void advance_all();   // account progress since last_update at old rate
  void reschedule_all();
  void complete(JobId id);

  EventLoop& loop_;
  int cores_;
  JobId next_id_ = 1;
  std::map<JobId, Job> running_;
  std::map<JobId, Job> paused_;
};

/// A node's worker pool for per-chunk codec work: kCoresPerNode workers
/// taking jobs FIFO, one CpuModel job each. Bounded on purpose — CpuModel
/// reschedules every running job on each submit, so a job per chunk all at
/// once would cost O(chunks^2) events. Each job is one `span` on the node's
/// `lane`, so the critical path names the work: restart decodes chunks as
/// `restart.decode`, the chunk-store checkpoint encodes them as
/// `ckpt.encode`. Running jobs hold the pool, so it outlives its owner.
class CpuPool : public std::enable_shared_from_this<CpuPool> {
 public:
  /// `span` must be a string literal (the tracer keeps the pointer).
  CpuPool(EventLoop& loop, CpuModel& cpu, NodeId node, const char* span,
          std::string lane)
      : loop_(loop),
        cpu_(cpu),
        node_(node),
        span_(span),
        lane_(std::move(lane)) {}

  void submit(double seconds, std::function<void()> done);
  /// The most jobs that ran at once.
  int peak() const { return peak_; }

 private:
  struct Job {
    double seconds;
    std::function<void()> done;
  };

  void pump();

  EventLoop& loop_;
  CpuModel& cpu_;
  NodeId node_;
  const char* span_;
  std::string lane_;
  std::deque<Job> queue_;
  int running_ = 0;
  int peak_ = 0;
};

}  // namespace dsim::sim
