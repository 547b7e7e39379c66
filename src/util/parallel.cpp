#include "util/parallel.hpp"

#include "util/timer.hpp"

namespace dlouvain::util {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    const auto hw = static_cast<int>(std::thread::hardware_concurrency());
    num_threads = hw > 0 ? hw : 1;
  }
  busy_.assign(static_cast<std::size_t>(num_threads), 0.0);
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int tid = 1; tid < num_threads; ++tid)
    workers_.emplace_back([this, tid] { worker_loop(tid); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop(int tid) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    WallTimer timer;
    std::exception_ptr error;
    try {
      (*job)(tid);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      busy_[static_cast<std::size_t>(tid)] += timer.seconds();
      if (error && !first_error_) first_error_ = error;
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::run(const std::function<void(int)>& job) {
  if (workers_.empty()) {
    run_inline([&] { job(0); });
    return;
  }
  {
    std::lock_guard lock(mutex_);
    job_ = &job;
    remaining_ = static_cast<int>(workers_.size());
    ++epoch_;
  }
  start_cv_.notify_all();

  WallTimer timer;
  std::exception_ptr error;
  try {
    job(0);
  } catch (...) {
    error = std::current_exception();
  }

  std::unique_lock lock(mutex_);
  busy_[0] += timer.seconds();
  if (error && !first_error_) first_error_ = error;
  done_cv_.wait(lock, [&] { return remaining_ == 0; });
  job_ = nullptr;
  if (first_error_) {
    const auto rethrown = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(rethrown);
  }
}

double ThreadPool::busy_seconds() const {
  // Only meaningful between run() calls; no run is in flight, so the plain
  // reads race with nothing.
  double total = 0;
  for (const double seconds : busy_) total += seconds;
  return total;
}

void ThreadPool::reset_busy() {
  for (auto& seconds : busy_) seconds = 0;
}

}  // namespace dlouvain::util
