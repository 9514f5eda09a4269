// Discrete-event loop with a virtual clock.
//
// The entire cluster — every node, process, thread, NIC, disk and protocol —
// is driven by one of these. Events at equal timestamps fire in posting
// order (sequence-number tiebreak), which makes every simulation run
// bit-reproducible for a given seed.
#pragma once

#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "util/assertx.h"
#include "util/types.h"

namespace dsim::obs {
class Tracer;
struct TraceContext;
}  // namespace dsim::obs

namespace dsim::sim {

/// Handle for cancelling a scheduled event: the index of the slot holding
/// its closure in the low 32 bits, that slot's generation in the high 32.
using EventId = u64;
inline constexpr EventId kNoEvent = 0;

class EventLoop {
 public:
  using Fn = std::function<void()>;

  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute virtual time `t` (>= now).
  EventId post_at(SimTime t, Fn fn);
  /// Schedule `fn` after a delay.
  EventId post_in(SimTime dt, Fn fn) { return post_at(now_ + dt, std::move(fn)); }
  /// Schedule `fn` at the current time (after already-queued same-time events).
  EventId post_now(Fn fn) { return post_at(now_, std::move(fn)); }

  /// Cancel a previously scheduled event and release its closure at once.
  /// Safe to call with kNoEvent or an already-fired or cancelled id
  /// (no-op).
  void cancel(EventId id);

  /// Run until the queue is empty or `stop()` is called.
  void run();
  /// Run events with time <= deadline; returns true if events remain.
  bool run_until(SimTime deadline);
  void stop() { stopped_ = true; }

  /// Events posted and neither fired nor cancelled.
  size_t pending() const { return live_; }

  /// The work this loop has done: events posted, fired, and cancelled
  /// while pending (no-op cancels are not counted). Exact for a seed, so
  /// a host-time change can name the work it cut.
  struct WorkCounts {
    u64 posts = 0;
    u64 fires = 0;
    u64 cancels = 0;
  };
  const WorkCounts& work() const { return work_; }

  /// Observability hook: every subsystem driven by this loop reaches the
  /// (optional) tracer through it, so enabling tracing is one pointer
  /// install and disabling it is a null check in the span helpers below.
  /// The tracer never posts events or charges time — it cannot perturb
  /// the virtual clock.
  void set_tracer(obs::Tracer* t) { tracer_ = t; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Spans at now() on the installed tracer. begin_span opens a
  /// standalone span (a daemon pass, a CPU job, a heartbeat); begin_stage
  /// opens a stage of the traced request `ctx`, weighted by `n`. Both
  /// return 0 when tracing is off, and begin_stage also when
  /// ctx.trace_id == 0. end_span(0) is a no-op, so call sites thread
  /// maybe-traced ids through their callbacks unguarded.
  u64 begin_span(const char* name, i32 pid, const std::string& lane);
  u64 begin_stage(const char* name, i32 pid, const std::string& lane,
                  const obs::TraceContext& ctx, u64 n = 1);
  void end_span(u64 id);

 private:
  struct Ev {
    SimTime t;
    u64 seq;
    EventId id;
    // Ordering for priority_queue (min-heap via greater).
    bool operator>(const Ev& o) const {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };

  // Closures live in slots, not in the heap, so cancel() can release one
  // eagerly; its heap entry stays behind until it surfaces. Freeing a slot
  // bumps its generation, so every id naming it goes stale, and one
  // compare tells a stale id from the slot's next event: no hash-table
  // node per event. Generations start at 1 and skip 0, so no id is
  // kNoEvent.
  struct Slot {
    Fn fn;
    u32 gen = 1;
  };

  bool pop_one();
  // Whether `id` names the event its slot holds now.
  bool live(EventId id) const {
    const u32 slot = static_cast<u32>(id);
    return slot < slots_.size() &&
           slots_[slot].gen == static_cast<u32>(id >> 32);
  }
  // Free the live event's slot and hand back its closure.
  Fn release(EventId id);

  SimTime now_ = 0;
  u64 next_seq_ = 1;
  bool stopped_ = false;
  obs::Tracer* tracer_ = nullptr;
  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> queue_;
  std::vector<Slot> slots_;
  std::vector<u32> free_slots_;  // reused last-freed first
  size_t live_ = 0;
  WorkCounts work_;
};

/// Cancellable repeating timer: fires `fn` every `interval` until stop().
/// The hook background daemons (the cluster membership service's heartbeat
/// loop) hang their periodic work on — re-arming by hand from inside the
/// callback loses the ability to stop cleanly, and a dangling EventId after
/// the owner dies would fire into freed state.
class PeriodicTimer {
 public:
  explicit PeriodicTimer(EventLoop& loop) : loop_(loop) {}
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Start (or restart) firing `fn` every `interval`, first fire one
  /// interval from now.
  void start(SimTime interval, EventLoop::Fn fn);
  void stop();

 private:
  void arm();

  EventLoop& loop_;
  SimTime interval_ = 0;
  EventLoop::Fn fn_;
  EventId pending_ = kNoEvent;
};

}  // namespace dsim::sim
