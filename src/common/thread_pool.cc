#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace twimob {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this]() { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this]() { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_done_.notify_all();
    }
  }
}

namespace {

// Completion latch of one ParallelFor call: the caller only waits for its
// own claiming loops, not for unrelated tasks in the pool.
struct BatchLatch {
  std::mutex mu;
  std::condition_variable done;
  size_t remaining = 0;
};

}  // namespace

void ThreadPool::ParallelFor(size_t count, const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  // One claiming loop per participating thread — the caller's and up to one
  // per worker. Each loop takes the next unclaimed index until none is
  // left, so a thread that runs slower, or starts later, takes fewer.
  const size_t loops = std::min(count, workers_.size() + 1);
  std::atomic<size_t> next{0};
  auto latch = std::make_shared<BatchLatch>();
  latch->remaining = loops;
  auto claim_loop = [&fn, &next, count, latch]() {
    for (size_t i = next++; i < count; i = next++) fn(i);
    std::unique_lock<std::mutex> lock(latch->mu);
    if (--latch->remaining == 0) latch->done.notify_all();
  };

  // `fn` and `next` outlive every loop because this call returns only
  // after the latch opens.
  for (size_t t = 1; t < loops; ++t) Submit(claim_loop);
  claim_loop();

  // Help drain the queue while waiting: a nested call from within a pool
  // task executes its own (and other queued) loops instead of blocking on
  // workers that may all be busy, so nesting cannot deadlock.
  while (true) {
    {
      std::unique_lock<std::mutex> lock(latch->mu);
      if (latch->remaining == 0) return;
    }
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop();
        ++in_flight_;
      }
    }
    if (task) {
      task();
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_done_.notify_all();
    } else {
      // Queue empty: every outstanding loop is already running in a
      // worker, whose completion notifies the latch.
      std::unique_lock<std::mutex> lock(latch->mu);
      if (latch->remaining == 0) return;
      latch->done.wait(lock);
    }
  }
}

}  // namespace twimob
