#include "runtime/thread_pool.h"

#include <cstdlib>

namespace tetris::runtime {

namespace {

/// The pool owning the calling thread; set for the lifetime of
/// ThreadPool::worker_loop, null on every non-worker thread.
thread_local ThreadPool* t_worker_pool = nullptr;

std::mutex& global_pool_mutex() {
  static std::mutex m;
  return m;
}

std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = default_global_threads();
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

bool ThreadPool::on_worker_thread() { return t_worker_pool != nullptr; }

ThreadPool* ThreadPool::current() { return t_worker_pool; }

unsigned ThreadPool::default_global_threads() {
  if (const char* env = std::getenv("TETRIS_THREADS")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && n > 0 && n <= static_cast<long>(kMaxThreads)) {
      return static_cast<unsigned>(n);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(global_pool_mutex());
  auto& slot = global_pool_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(default_global_threads());
  return *slot;
}

void ThreadPool::set_global_threads(unsigned n) {
  std::unique_ptr<ThreadPool> replacement =
      std::make_unique<ThreadPool>(n == 0 ? default_global_threads() : n);
  std::unique_ptr<ThreadPool> old;
  {
    std::lock_guard<std::mutex> lock(global_pool_mutex());
    old = std::move(global_pool_slot());
    global_pool_slot() = std::move(replacement);
  }
  // `old` destructs outside the lock: its destructor joins the workers, which
  // may take a while if tasks are still draining.
}

}  // namespace tetris::runtime
