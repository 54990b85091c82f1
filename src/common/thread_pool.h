#ifndef TWIMOB_COMMON_THREAD_POOL_H_
#define TWIMOB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace twimob {

/// A fixed-size worker pool for data-parallel scans and analyses.
///
/// Tasks are arbitrary void() callables; Submit enqueues, Wait blocks until
/// the queue drains and every in-flight task finishes. The pool is meant
/// for coarse-grained parallelism (one task per storage block / per area),
/// not fine-grained scheduling.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (0 means hardware concurrency, min 1).
  explicit ThreadPool(size_t num_threads = 0);

  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Never blocks. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has completed.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, count) across the pool, blocking until done.
  /// The calling thread and up to one task per worker each claim the next
  /// unclaimed index from a shared counter until none is left, so uneven
  /// per-index costs balance themselves. The caller then helps drain the
  /// pool's queue while waiting, so the call only blocks on its own work
  /// and is safe to issue from within a pool task (nested calls cannot
  /// deadlock, even on a one-thread pool). Which thread runs an index
  /// depends on scheduling, so `fn` must write only per-index state; then
  /// the results are deterministic.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::queue<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace twimob

#endif  // TWIMOB_COMMON_THREAD_POOL_H_
