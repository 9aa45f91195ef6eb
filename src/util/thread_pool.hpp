// Fixed-size thread pool with a shared-counter parallel_for.
//
// Deliberately work-stealing-free: batch diagnosis partitions work by item
// index and every item is independent, so a single atomic fetch_add is both
// the scheduler and the load balancer. The calling thread participates as
// worker 0, which makes a 1-thread pool run the loop inline with zero
// synchronisation — the sequential baseline every speedup is measured
// against is therefore exactly the sequential code path.
//
// The pool has one job slot. A parallel_for that finds it taken — called
// from inside one of this pool's own lanes, or from another thread while a
// job is in flight — runs its loop inline on the calling thread instead of
// waiting, so nested and concurrent callers can never deadlock on it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mmdiag {

class ThreadPool {
 public:
  /// A pool of `threads` total lanes (callers thread included); 0 means
  /// std::thread::hardware_concurrency(). Spawns threads-1 workers.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes, including the calling thread.
  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs fn(lane, index) for every index in [0, count), spread over all
  /// lanes; lane is in [0, size()) and identifies the executing thread, so
  /// callers may index per-lane scratch. Blocks until every index has run.
  /// The first exception thrown by fn is rethrown here (remaining indices
  /// are still drained so no lane blocks). A single item, or a call made
  /// while the pool is busy, runs inline on the calling thread as lane 0,
  /// so callers must key per-lane scratch to this call, not to the thread.
  void parallel_for(std::size_t count,
                    const std::function<void(unsigned, std::size_t)>& fn);

 private:
  void worker_loop(unsigned lane);
  void drain(unsigned lane);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  const std::function<void(unsigned, std::size_t)>* job_ = nullptr;
  std::size_t job_count_ = 0;
  std::uint64_t job_epoch_ = 0;     // bumped per parallel_for call
  unsigned lanes_busy_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;

  std::atomic<bool> claimed_{false};  // a caller holds the job slot
  std::atomic<std::size_t> next_index_{0};
  std::atomic<bool> has_error_{false};
};

}  // namespace mmdiag
