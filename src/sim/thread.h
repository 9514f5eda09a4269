// Simulated threads, wait queues and checkpoint suspension.
//
// A Thread owns one root coroutine. Threads park at await points and are
// woken via WaitQueues, timers or CPU-job completions. Checkpoint suspension
// (`ckpt_suspend`) defers all wakeups until `ckpt_resume` — the simulator's
// analogue of MTCP stopping user threads with a signal (§4.3 step 2).
//
// ThreadContext is the serializable "register file": an application-defined
// phase counter plus sixteen 64-bit registers. Restart-safe primitives
// (read_exact / write_exact / cpu_chunked) persist their progress here, so a
// restored thread resumes its in-flight operation exactly where it stopped —
// the simulator's analogue of MTCP restoring register state (DESIGN.md §3.2).
#pragma once

#include <array>
#include <coroutine>
#include <memory>
#include <vector>

#include "sim/cpu.h"
#include "sim/event_loop.h"
#include "sim/task.h"
#include "util/types.h"

namespace dsim::sim {

class Kernel;
class Process;
class ProcessCtx;
class Thread;

/// Serializable per-thread execution context (saved in checkpoint images).
struct ThreadContext {
  u32 phase = 0;              ///< application program counter
  u32 role = 0;               ///< worker-thread role (program-defined)
  std::array<u64, 16> regs{}; ///< progress registers (see ProcessCtx)
};

enum class ThreadKind : u8 {
  kMain = 0,     ///< the process's initial thread
  kWorker = 1,   ///< program-spawned thread (restored via Program::worker)
  kManager = 2,  ///< DMTCP checkpoint manager thread (recreated by Hijack)
};

/// FIFO wait queue used by every blocking kernel object.
class WaitQueue {
 public:
  ~WaitQueue();
  void wake_all();
  bool empty() const { return waiters_.empty(); }

  /// Awaitable: parks the thread until a wake.
  struct Awaiter {
    Thread& t;
    WaitQueue& q;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };
  Awaiter wait(Thread& t) { return Awaiter{t, *this}; }

 private:
  friend class Thread;
  std::vector<Thread*> waiters_;
};

class Thread {
 public:
  Thread(Kernel& kernel, Process& process, Tid tid, ThreadKind kind);
  ~Thread();
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  /// Begin executing `body` (scheduled on the event loop, not inline).
  void start(Task<void> body);
  /// Destroy the coroutine and cancel all pending wakeups/jobs.
  void kill();

  bool done() const { return done_; }
  bool killed() const { return killed_; }
  bool alive() const { return started_ && !done_ && !killed_; }

  /// Park the current coroutine awaiting a wake (queue may be null for
  /// timer/CPU waits).
  void park(std::coroutine_handle<> h, WaitQueue* q);
  /// Schedule a resume (deferred while checkpoint-suspended).
  void wake();

  // Bookkeeping for cancellable waits.
  void set_timer(EventId ev) { timer_ = ev; }
  void clear_timer() { timer_ = kNoEvent; }
  void set_cpu_job(CpuModel* cpu, CpuModel::JobId job) {
    cpu_ = cpu;
    cpu_job_ = job;
  }
  void clear_cpu_job() {
    cpu_ = nullptr;
    cpu_job_ = 0;
  }

  /// Freeze the thread: pending and future wakeups are deferred, an active
  /// CPU burst is paused. Idempotent.
  void ckpt_suspend();
  /// Unfreeze; fires any deferred wakeup and resumes a paused CPU burst.
  void ckpt_resume();
  bool ckpt_suspended() const { return ckpt_suspended_; }
  /// True if the thread is parked waiting (i.e., at a safe suspend point).
  bool parked() const { return static_cast<bool>(next_resume_); }

  ThreadContext& context() { return ctx_; }
  const ThreadContext& context() const { return ctx_; }
  void set_context(const ThreadContext& c) { ctx_ = c; }

  Tid tid() const { return tid_; }
  ThreadKind kind() const { return kind_; }
  Process& process() { return process_; }
  Kernel& kernel() { return kernel_; }

  /// Per-thread ProcessCtx facade (created lazily by Kernel when starting
  /// program code on this thread).
  ProcessCtx& pctx();

 private:
  struct Root {
    struct promise_type {
      Root get_return_object() {
        return Root{std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      std::suspend_always final_suspend() noexcept { return {}; }
      void return_void() {}
      void unhandled_exception();
    };
    std::coroutine_handle<promise_type> h;
  };
  static Root root_body(Thread* self, Task<void> body);
  void on_body_done();
  void schedule_resume();

  Kernel& kernel_;
  Process& process_;
  Tid tid_;
  ThreadKind kind_;
  ThreadContext ctx_;
  std::unique_ptr<ProcessCtx> pctx_;

  std::coroutine_handle<Root::promise_type> root_{};
  std::coroutine_handle<> next_resume_{};
  WaitQueue* waiting_on_ = nullptr;
  EventId pending_wake_ = kNoEvent;
  EventId timer_ = kNoEvent;
  CpuModel* cpu_ = nullptr;
  CpuModel::JobId cpu_job_ = 0;
  bool ckpt_suspended_ = false;
  bool wake_deferred_ = false;
  bool started_ = false;
  bool done_ = false;
  bool killed_ = false;

  friend class WaitQueue;
};

}  // namespace dsim::sim
