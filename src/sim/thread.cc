#include "sim/thread.h"

#include <algorithm>

#include "sim/kernel.h"
#include "sim/pctx.h"
#include "sim/process.h"
#include "util/assertx.h"
#include "util/logging.h"

namespace dsim::sim {

// --- WaitQueue -------------------------------------------------------------

WaitQueue::~WaitQueue() {
  // Threads must not be left waiting on a destroyed queue.
  for (Thread* t : waiters_) {
    if (t->waiting_on_ == this) t->waiting_on_ = nullptr;
  }
}

void WaitQueue::Awaiter::await_suspend(std::coroutine_handle<> h) {
  t.park(h, &q);
  q.waiters_.push_back(&t);
}

void WaitQueue::wake_all() {
  auto waiters = std::move(waiters_);
  waiters_.clear();
  for (Thread* t : waiters) {
    if (t->waiting_on_ == this) t->waiting_on_ = nullptr;
    t->wake();
  }
}

// --- Thread ------------------------------------------------------------------

Thread::Thread(Kernel& kernel, Process& process, Tid tid, ThreadKind kind)
    : kernel_(kernel), process_(process), tid_(tid), kind_(kind) {}

Thread::~Thread() { kill(); }

void Thread::Root::promise_type::unhandled_exception() {
  // Program bugs surface loudly: a simulated thread must not die silently.
  try {
    throw;
  } catch (const std::exception& e) {
    DSIM_CHECK_MSG(false, e.what());
  } catch (...) {
    DSIM_CHECK_MSG(false, "unknown exception escaped simulated thread");
  }
}

Thread::Root Thread::root_body(Thread* self, Task<void> body) {
  co_await std::move(body);
  self->on_body_done();
}

void Thread::start(Task<void> body) {
  DSIM_CHECK_MSG(!started_, "thread already started");
  started_ = true;
  Root r = root_body(this, std::move(body));
  root_ = r.h;
  next_resume_ = root_;
  wake();
}

void Thread::on_body_done() {
  done_ = true;
  // Defer the kernel notification: we are still inside the coroutine here,
  // and the kernel may destroy this thread (and its frames) in response.
  Kernel* k = &kernel_;
  const Pid pid = process_pid_of(process_);
  const Tid tid = tid_;
  kernel_.loop().post_now([k, pid, tid] { k->on_thread_done(pid, tid); });
}

void Thread::kill() {
  if (killed_) return;
  killed_ = true;
  if (waiting_on_) {
    auto& w = waiting_on_->waiters_;
    w.erase(std::remove(w.begin(), w.end(), this), w.end());
    waiting_on_ = nullptr;
  }
  kernel_.loop().cancel(pending_wake_);
  pending_wake_ = kNoEvent;
  kernel_.loop().cancel(timer_);
  timer_ = kNoEvent;
  if (cpu_) {
    cpu_->cancel(cpu_job_);
    cpu_ = nullptr;
  }
  next_resume_ = {};
  if (root_) {
    root_.destroy();
    root_ = {};
  }
}

void Thread::park(std::coroutine_handle<> h, WaitQueue* q) {
  DSIM_CHECK_MSG(!next_resume_, "thread parked twice");
  next_resume_ = h;
  waiting_on_ = q;
}

void Thread::wake() {
  if (killed_ || done_) return;
  if (pending_wake_ != kNoEvent) return;  // already scheduled
  if (!next_resume_) return;              // running or not parked yet
  pending_wake_ = kernel_.loop().post_now([this] {
    pending_wake_ = kNoEvent;
    if (ckpt_suspended_) {
      wake_deferred_ = true;
      return;
    }
    schedule_resume();
  });
}

void Thread::schedule_resume() {
  auto h = next_resume_;
  next_resume_ = {};
  DSIM_CHECK(h);
  h.resume();
}

void Thread::ckpt_suspend() {
  if (ckpt_suspended_) return;
  ckpt_suspended_ = true;
  if (cpu_) cpu_->pause(cpu_job_);
}

void Thread::ckpt_resume() {
  if (!ckpt_suspended_) return;
  ckpt_suspended_ = false;
  if (cpu_) cpu_->resume(cpu_job_);
  if (wake_deferred_) {
    wake_deferred_ = false;
    wake();
  }
}

ProcessCtx& Thread::pctx() {
  if (!pctx_) pctx_ = std::make_unique<ProcessCtx>(kernel_, process_, *this);
  return *pctx_;
}

}  // namespace dsim::sim
