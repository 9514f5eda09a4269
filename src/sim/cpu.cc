#include "sim/cpu.h"

#include <algorithm>

#include "sim/model_params.h"
#include "util/assertx.h"

namespace dsim::sim {

double CpuModel::rate() const {
  const int n = static_cast<int>(running_.size());
  if (n == 0) return 1.0;
  return n <= cores_ ? 1.0 : static_cast<double>(cores_) / n;
}

void CpuModel::advance_all() {
  const double r = rate();
  const SimTime now = loop_.now();
  for (auto& [id, job] : running_) {
    const double elapsed = to_seconds(now - job.last_update);
    job.remaining -= elapsed * r;
    if (job.remaining < 0) job.remaining = 0;
    job.last_update = now;
  }
}

void CpuModel::reschedule_all() {
  const double r = rate();
  for (auto& [id, job] : running_) {
    loop_.cancel(job.ev);
    const double secs = job.remaining / r;
    const JobId jid = id;
    job.ev = loop_.post_in(from_seconds(secs), [this, jid] { complete(jid); });
  }
}

CpuModel::JobId CpuModel::submit(double core_seconds,
                                 std::function<void()> done) {
  advance_all();
  const JobId id = next_id_++;
  running_.emplace(id, Job{core_seconds, loop_.now(), std::move(done)});
  reschedule_all();
  return id;
}

void CpuModel::complete(JobId id) {
  auto it = running_.find(id);
  DSIM_CHECK(it != running_.end());
  advance_all();
  auto done = std::move(it->second.done);
  running_.erase(it);
  reschedule_all();
  done();
}

void CpuModel::pause(JobId id) {
  auto it = running_.find(id);
  if (it == running_.end()) return;
  advance_all();
  loop_.cancel(it->second.ev);
  it->second.ev = kNoEvent;
  paused_.insert(running_.extract(it));
  reschedule_all();
}

void CpuModel::resume(JobId id) {
  auto it = paused_.find(id);
  if (it == paused_.end()) return;
  advance_all();
  it->second.last_update = loop_.now();
  running_.insert(paused_.extract(it));
  reschedule_all();
}

void CpuModel::cancel(JobId id) {
  if (auto it = running_.find(id); it != running_.end()) {
    advance_all();
    loop_.cancel(it->second.ev);
    running_.erase(it);
    reschedule_all();
    return;
  }
  paused_.erase(id);
}

void CpuPool::submit(double seconds, std::function<void()> done) {
  queue_.push_back({seconds, std::move(done)});
  pump();
}

void CpuPool::pump() {
  while (running_ < params::kCoresPerNode && !queue_.empty()) {
    Job job = std::move(queue_.front());
    queue_.pop_front();
    peak_ = std::max(peak_, ++running_);
    const u64 span = loop_.begin_span(span_, node_, lane_);
    cpu_.submit(job.seconds,
                [self = shared_from_this(), span, done = std::move(job.done)] {
                  self->loop_.end_span(span);
                  --self->running_;
                  self->pump();
                  done();
                });
  }
}

}  // namespace dsim::sim
