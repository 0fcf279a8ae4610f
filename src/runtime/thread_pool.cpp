#include "runtime/thread_pool.h"

#include <algorithm>

namespace tetris::runtime {

namespace {

/// The pool owning the calling thread; set for the lifetime of
/// ThreadPool::worker_loop, null on every non-worker thread.
thread_local ThreadPool* t_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    active_workers_.fetch_add(1, std::memory_order_relaxed);
    task();  // packaged_task: exceptions land in the future, never here
    active_workers_.fetch_sub(1, std::memory_order_relaxed);
    tasks_completed_.fetch_add(1, std::memory_order_relaxed);
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats out;
  out.threads = size();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.queued = tasks_.size();
  }
  out.active = active_workers_.load(std::memory_order_relaxed);
  out.submitted = tasks_submitted_.load(std::memory_order_relaxed);
  out.completed = tasks_completed_.load(std::memory_order_relaxed);
  return out;
}

ThreadPool* ThreadPool::current() { return t_worker_pool; }

}  // namespace tetris::runtime
