#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/assertx.h"
#include "util/types.h"

namespace dsim {
namespace {

/// The caller publishes a job under the lock and claims indices with the
/// workers. A worker joins a job only while it is open, so once the caller
/// has closed it and seen no worker busy, every index has run and no
/// worker still holds the caller's fn. The first exception a job throws
/// stops further claims and is rethrown to the caller after the join.
class Pool {
 public:
  explicit Pool(unsigned workers) {
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { work(); });
    }
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void run(size_t n, const std::function<void(size_t)>& fn) {
    {
      std::lock_guard lk(mu_);
      DSIM_CHECK_MSG(fn_ == nullptr, "parallel_for is not reentrant");
      fn_ = &fn;
      n_ = n;
      next_.store(0, std::memory_order_relaxed);
      ++job_;
    }
    wake_.notify_all();
    claim(fn, n);
    std::unique_lock lk(mu_);
    fn_ = nullptr;  // closed: a worker waking from here on skips the job
    idle_.wait(lk, [this] { return busy_ == 0; });
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

 private:
  void claim(const std::function<void(size_t)>& fn, size_t n) {
    for (size_t i; (i = next_.fetch_add(1, std::memory_order_relaxed)) < n;) {
      try {
        fn(i);
      } catch (...) {
        next_.store(n, std::memory_order_relaxed);
        std::lock_guard lk(mu_);
        if (!error_) error_ = std::current_exception();
      }
    }
  }

  void work() {
    u64 seen = 0;
    std::unique_lock lk(mu_);
    for (;;) {
      wake_.wait(lk, [&] { return stop_ || job_ != seen; });
      if (stop_) return;
      seen = job_;
      if (fn_ == nullptr) continue;
      const auto& fn = *fn_;
      const size_t n = n_;
      ++busy_;
      lk.unlock();
      claim(fn, n);
      lk.lock();
      if (--busy_ == 0) idle_.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;  // a job was published, or stop_
  std::condition_variable idle_;  // busy_ fell to 0
  const std::function<void(size_t)>* fn_ = nullptr;  // the open job
  size_t n_ = 0;
  u64 job_ = 0;        // jobs published so far
  unsigned busy_ = 0;  // workers inside the open or closing job
  bool stop_ = false;
  std::exception_ptr error_;     // the job's first exception
  std::atomic<size_t> next_{0};  // next unclaimed index
  std::vector<std::thread> threads_;
};

}  // namespace

unsigned pool_width() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, kMaxPoolWidth);
}

void parallel_for(size_t n, const std::function<void(size_t)>& fn) {
  if (n <= 1) {
    if (n == 1) fn(0);
    return;
  }
  static Pool pool(pool_width() - 1);
  pool.run(n, fn);
}

}  // namespace dsim
