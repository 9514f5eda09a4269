// Async copy-on-write checkpoint pipeline (--ckpt-async).
//
// At checkpoint time the app pays only a fork/COW snapshot cost; chunking
// and the store sequence drain through a background job per process:
//
//   snapshot --> [bg CPU] chunk/CDC --> store sequence (each new chunk's
//                encode on the writer's core pool, then its Store)
//
// The store sequence is the synchronous write's (core/hijack.cc), with its
// codec priced at --compress-bw per core.
//
// While a job drains, its process's memory segments carry a write observer:
// the first app write to each snapshotted page charges a COW fault + page
// copy as background CPU on the touching node, so the app slowdown stays
// emergent through the fluid-share CPU model rather than being scripted.
// When a new round reaches a process whose previous job is still draining,
// the backpressure policy (--async-backpressure) either blocks the round on
// the drain or skips this process for the round; both are modeled and
// surfaced in CkptRound.
//
// The pipeline is deliberately core-free: the DMTCP layer injects a CPU
// charger and the event loop, so this subsystem depends only on sim/
// primitives. Each drain job emits async.drain / async.chunk / async.store
// spans through the loop's span helpers when a tracer is installed there;
// the store stage's encodes show as the pool's ckpt.encode spans.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/byte_image.h"
#include "sim/event_loop.h"
#include "sim/process.h"
#include "util/types.h"

namespace dsim::ckptasync {

/// Charge `core_seconds` of background CPU on `node`, calling `done` when
/// the fluid-share model completes the job.
using CpuCharger = std::function<void(NodeId, double, std::function<void()>)>;

/// Cumulative pipeline counters; consumers (the coordinator) snapshot and
/// delta them per round, like ServiceStats.
struct PipelineStats {
  u64 jobs_started = 0;
  u64 jobs_completed = 0;
  u64 queued_bytes = 0;        // logical bytes handed to background jobs
  u64 raw_new_bytes = 0;       // pre-codec bytes of new chunks drained
  u64 compressed_new_bytes = 0;  // post-codec container bytes drained
  u64 cow_pages_copied = 0;
  double cow_copy_seconds = 0;   // background CPU charged for COW copies
  double drain_seconds = 0;      // cumulative job snapshot -> durable latency
  double max_drain_seconds = 0;  // max single-job drain latency
  double blocked_seconds = 0;    // backpressure=block wait, summed
};

/// One background encode/store job, described by the DMTCP layer.
struct JobSpec {
  std::string key;  // one in-flight job per process (universal pid string)
  NodeId node = 0;  // node whose background CPU the drain occupies
  double chunk_seconds = 0;  // snapshot scan + chunking stage CPU
  u64 queued_bytes = 0;      // logical bytes this job drains
  u64 raw_new_bytes = 0;
  u64 compressed_new_bytes = 0;
  /// Live memory segments of the snapshotted process; the pipeline arms a
  /// COW write observer on each for the duration of the drain.
  std::vector<std::shared_ptr<sim::MemSegment>> segments;
  /// Store stage: encode and store the new chunks and the manifest, call
  /// the provided continuation once everything is durable. Runs after the
  /// chunk stage.
  std::function<void(std::function<void()>)> store;
  /// Fired when the job is fully drained (after observer disarm).
  std::function<void()> on_complete;
};

class CkptAsyncPipeline {
 public:
  CkptAsyncPipeline(CpuCharger charge, sim::EventLoop& loop,
                    double compress_bw);
  ~CkptAsyncPipeline();

  CkptAsyncPipeline(const CkptAsyncPipeline&) = delete;
  CkptAsyncPipeline& operator=(const CkptAsyncPipeline&) = delete;

  /// Per-core codec input rate (bytes/s) of the gzip-class baseline codec
  /// for the drain's chunk encodes; resolved from --compress-bw /
  /// kCompressBw at launch.
  double compress_bw() const { return compress_bw_; }

  /// True while `key`'s previous job is still draining.
  bool busy(const std::string& key) const { return active_.count(key) > 0; }
  bool idle() const { return active_.empty(); }

  /// Start a background drain job. The caller must have resolved
  /// backpressure first (DSIM_CHECKed: one job per key).
  void start(JobSpec spec);

  /// Backpressure accounting, reported by the DMTCP layer. A skip is
  /// counted per round (CkptRound::async_skipped_procs).
  void note_blocked(double seconds) { stats_.blocked_seconds += seconds; }

  const PipelineStats& stats() const { return stats_; }

 private:
  struct Job;
  /// Per-segment first-touch page tracker armed on the live ByteImage.
  struct SegTracker final : sim::ByteImage::WriteObserver {
    CkptAsyncPipeline* pipe = nullptr;
    NodeId node = 0;
    std::weak_ptr<sim::MemSegment> seg;
    u64 snap_size = 0;
    std::vector<bool> touched;  // one bit per kCowPageBytes page
    void on_mutate(u64 off, u64 len) override;
  };

  void charge_cow_pages(NodeId node, u64 pages);
  void finish(const std::string& key);

  CpuCharger charge_;
  sim::EventLoop& loop_;
  double compress_bw_;
  PipelineStats stats_;
  std::map<std::string, std::shared_ptr<Job>> active_;
};

}  // namespace dsim::ckptasync
