#include "sim/event_loop.h"

#include <utility>

#include "obs/trace.h"

namespace dsim::sim {

EventId EventLoop::post_at(SimTime t, Fn fn) {
  DSIM_CHECK_MSG(t >= now_, "cannot schedule into the past");
  u32 slot;
  if (free_slots_.empty()) {
    slot = static_cast<u32>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  const EventId id = u64{slots_[slot].gen} << 32 | slot;
  queue_.push(Ev{t, next_seq_++, id});
  ++live_;
  ++work_.posts;
  return id;
}

EventLoop::Fn EventLoop::release(EventId id) {
  const u32 slot = static_cast<u32>(id);
  Slot& s = slots_[slot];
  if (++s.gen == 0) s.gen = 1;
  free_slots_.push_back(slot);
  --live_;
  return std::exchange(s.fn, nullptr);
}

void EventLoop::cancel(EventId id) {
  if (!live(id)) return;  // kNoEvent, fired or already cancelled
  ++work_.cancels;
  // The closure dies here, after the slot is free: its destructor may
  // post or cancel.
  release(id);
}

u64 EventLoop::begin_span(const char* name, i32 pid, const std::string& lane) {
  return tracer_ ? tracer_->begin(name, pid, lane, now_) : 0;
}

u64 EventLoop::begin_stage(const char* name, i32 pid, const std::string& lane,
                           const obs::TraceContext& ctx, u64 n) {
  if (!tracer_ || ctx.trace_id == 0) return 0;
  return tracer_->begin(name, pid, lane, now_, ctx, n);
}

void EventLoop::end_span(u64 id) {
  if (tracer_) tracer_->end(id, now_);
}

bool EventLoop::pop_one() {
  while (!queue_.empty()) {
    const Ev ev = queue_.top();
    queue_.pop();
    if (!live(ev.id)) continue;  // cancelled
    Fn fn = release(ev.id);
    DSIM_CHECK(ev.t >= now_);
    now_ = ev.t;
    ++work_.fires;
    fn();
    return true;
  }
  return false;
}

void EventLoop::run() {
  stopped_ = false;
  while (!stopped_ && pop_one()) {
  }
}

void PeriodicTimer::start(SimTime interval, EventLoop::Fn fn) {
  DSIM_CHECK_MSG(interval > 0, "periodic timer needs a positive interval");
  stop();
  interval_ = interval;
  fn_ = std::move(fn);
  arm();
}

void PeriodicTimer::stop() {
  loop_.cancel(pending_);
  pending_ = kNoEvent;
}

void PeriodicTimer::arm() {
  pending_ = loop_.post_in(interval_, [this] {
    pending_ = kNoEvent;
    // Re-arm before the callback: fn_ may call stop() to end the loop.
    arm();
    fn_();
  });
}

bool EventLoop::run_until(SimTime deadline) {
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) {
    // Peek: do not advance past the deadline.
    const Ev& ev = queue_.top();
    if (!live(ev.id)) {  // cancelled
      queue_.pop();
      continue;
    }
    if (ev.t > deadline) {
      now_ = deadline;
      return true;
    }
    pop_one();
  }
  if (now_ < deadline) now_ = deadline;
  return !queue_.empty();
}

}  // namespace dsim::sim
