#include "ckptasync/pipeline.h"

#include <algorithm>

#include "obs/trace.h"
#include "sim/model_params.h"
#include "util/assertx.h"

namespace dsim::ckptasync {

using sim::params::kCowPageBytes;
using sim::params::kCowPageFaultSeconds;
using sim::params::kMemcpyBw;

struct CkptAsyncPipeline::Job {
  std::string key;
  NodeId node = 0;
  SimTime started = 0;
  u64 drain_span = 0;  // async.drain span, open for the job's lifetime
  std::function<void()> on_complete;
  std::vector<std::unique_ptr<SegTracker>> trackers;
};

CkptAsyncPipeline::CkptAsyncPipeline(CpuCharger charge, sim::EventLoop& loop,
                                     double compress_bw)
    : charge_(std::move(charge)), loop_(loop), compress_bw_(compress_bw) {
  DSIM_CHECK(charge_);
  DSIM_CHECK_MSG(compress_bw_ > 0, "async compress bandwidth must be > 0");
}

CkptAsyncPipeline::~CkptAsyncPipeline() {
  // Disarm any observers still pointed at live segments (jobs in flight at
  // simulation teardown must not leave dangling observer pointers behind).
  for (auto& [key, job] : active_) {
    for (auto& t : job->trackers) {
      if (auto seg = t->seg.lock()) {
        if (seg->data.write_observer() == t.get()) {
          seg->data.set_write_observer(nullptr);
        }
      }
    }
  }
}

void CkptAsyncPipeline::SegTracker::on_mutate(u64 off, u64 len) {
  if (off >= snap_size) return;
  const u64 end = std::min(snap_size, off + len);
  const u64 first = off / kCowPageBytes;
  const u64 last = (end + kCowPageBytes - 1) / kCowPageBytes;
  u64 fresh = 0;
  for (u64 p = first; p < last && p < touched.size(); ++p) {
    if (!touched[p]) {
      touched[p] = true;
      ++fresh;
    }
  }
  if (fresh > 0) pipe->charge_cow_pages(node, fresh);
}

void CkptAsyncPipeline::charge_cow_pages(NodeId node, u64 pages) {
  const double seconds =
      static_cast<double>(pages) *
      (static_cast<double>(kCowPageBytes) / kMemcpyBw + kCowPageFaultSeconds);
  stats_.cow_pages_copied += pages;
  stats_.cow_copy_seconds += seconds;
  // The copy occupies the touching node's CPU through the fluid share; the
  // app-visible slowdown is emergent, so nothing waits on completion.
  charge_(node, seconds, [] {});
}

void CkptAsyncPipeline::start(JobSpec spec) {
  DSIM_CHECK_MSG(!busy(spec.key),
                 "async pipeline: job already in flight for this process");
  auto job = std::make_shared<Job>();
  job->key = spec.key;
  job->node = spec.node;
  job->started = loop_.now();
  job->on_complete = std::move(spec.on_complete);

  stats_.jobs_started++;
  stats_.queued_bytes += spec.queued_bytes;

  // Arm a first-touch COW tracker on every live segment for the duration of
  // the drain. The snapshot copies taken by capture() never propagate the
  // observer (ByteImage copy semantics), so only the *live* image fires.
  for (auto& seg : spec.segments) {
    if (!seg) continue;
    auto t = std::make_unique<SegTracker>();
    t->pipe = this;
    t->node = spec.node;
    t->seg = seg;
    t->snap_size = seg->data.size();
    t->touched.assign((t->snap_size + kCowPageBytes - 1) / kCowPageBytes,
                      false);
    seg->data.set_write_observer(t.get());
    job->trackers.push_back(std::move(t));
  }
  active_.emplace(job->key, job);

  // Stage chain: chunk CPU -> store sequence -> finish. The chunk stage runs
  // as a background CPU job on the snapshot node, sharing cores with the
  // app through the fluid-share model; the store sequence encodes on the
  // writer's core pool. With a tracer installed the chain emits standalone
  // spans (async.drain covering the whole job, plus one span per stage);
  // the tracer never charges sim time, so traced and untraced runs are
  // event-for-event identical.
  job->drain_span = loop_.begin_span("async.drain", obs::kServicePid, "async");
  const u64 chunk_span =
      loop_.begin_span("async.chunk", obs::kServicePid, "async");
  charge_(spec.node, spec.chunk_seconds,
          [this, key = job->key, store = std::move(spec.store),
           chunk_span]() mutable {
            loop_.end_span(chunk_span);
            if (!store) {
              finish(key);
              return;
            }
            const u64 store_span =
                loop_.begin_span("async.store", obs::kServicePid, "async");
            store([this, key, store_span] {
              loop_.end_span(store_span);
              finish(key);
            });
          });
}

void CkptAsyncPipeline::finish(const std::string& key) {
  auto it = active_.find(key);
  DSIM_CHECK(it != active_.end());
  auto job = it->second;
  for (auto& t : job->trackers) {
    if (auto seg = t->seg.lock()) {
      if (seg->data.write_observer() == t.get()) {
        seg->data.set_write_observer(nullptr);
      }
    }
  }
  loop_.end_span(job->drain_span);
  const double drain = to_seconds(loop_.now() - job->started);
  stats_.jobs_completed++;
  stats_.drain_seconds += drain;
  stats_.max_drain_seconds = std::max(stats_.max_drain_seconds, drain);
  active_.erase(it);
  if (job->on_complete) job->on_complete();
}

}  // namespace dsim::ckptasync
