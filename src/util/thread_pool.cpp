#include "util/thread_pool.hpp"

namespace mmdiag {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads - 1);
  for (unsigned lane = 1; lane < threads; ++lane) {
    workers_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::drain(unsigned lane) {
  // Pull indices until the shared counter runs past the end. After an
  // exception the remaining indices are consumed unexecuted so every lane
  // terminates; the first error is kept and rethrown by parallel_for.
  for (;;) {
    const std::size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (i >= job_count_) return;
    if (has_error_.load(std::memory_order_relaxed)) continue;
    try {
      (*job_)(lane, i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
      has_error_.store(true, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_loop(unsigned lane) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [&] { return stopping_ || job_epoch_ != seen_epoch; });
      if (stopping_) return;
      seen_epoch = job_epoch_;
    }
    drain(lane);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (--lanes_busy_ == 0) work_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t count, const std::function<void(unsigned, std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1 || workers_.empty() ||
      claimed_.exchange(true, std::memory_order_acquire)) {
    // One item (waking lanes would only add latency), a 1-lane pool, or
    // the slot is held (by an enclosing job of this pool or by another
    // caller): run inline, no signalling.
    for (std::size_t i = 0; i < count; ++i) fn(0, i);
    return;
  }
  struct Release {
    std::atomic<bool>& claimed;
    ~Release() { claimed.store(false, std::memory_order_release); }
  } const release{claimed_};
  {
    const std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    job_count_ = count;
    first_error_ = nullptr;
    has_error_.store(false, std::memory_order_relaxed);
    next_index_.store(0, std::memory_order_relaxed);
    lanes_busy_ = static_cast<unsigned>(workers_.size());
    ++job_epoch_;
  }
  work_ready_.notify_all();
  drain(0);  // the caller is lane 0
  {
    std::unique_lock<std::mutex> lock(mu_);
    work_done_.wait(lock, [&] { return lanes_busy_ == 0; });
    job_ = nullptr;
    if (first_error_) {
      std::exception_ptr err = first_error_;
      first_error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(err);
    }
  }
}

}  // namespace mmdiag
