#include "runtime/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

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
    long n = std::strtol(env, &end, 10);
    if (end != env && n > 0) return static_cast<unsigned>(n);
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

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  const ParallelForOptions& options) {
  if (end <= begin) return;
  const std::size_t count = end - begin;
  const std::size_t grain = std::max<std::size_t>(1, options.grain);
  if (count <= grain || ThreadPool::on_worker_thread()) {
    body(begin, end);
    return;
  }
  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::global();
  if (pool.size() <= 1) {
    body(begin, end);
    return;
  }

  // A few chunks per worker so a slow chunk does not serialize the tail.
  const std::size_t max_chunks =
      std::max<std::size_t>(1, static_cast<std::size_t>(pool.size()) * 4);
  const std::size_t by_grain = (count + grain - 1) / grain;
  std::size_t chunk =
      (count + std::min(by_grain, max_chunks) - 1) / std::min(by_grain, max_chunks);
  const std::size_t align = std::max<std::size_t>(1, options.align);
  chunk = ((chunk + align - 1) / align) * align;
  const std::size_t num_chunks = (count + chunk - 1) / chunk;

  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  auto failed = std::make_shared<std::atomic<bool>>(false);
  std::exception_ptr error;
  std::mutex error_mutex;

  auto run_chunks = [&, next, failed] {
    std::size_t c;
    while ((c = next->fetch_add(1, std::memory_order_relaxed)) < num_chunks) {
      if (failed->load(std::memory_order_relaxed)) return;
      const std::size_t chunk_begin = begin + c * chunk;
      const std::size_t chunk_end = std::min(end, chunk_begin + chunk);
      try {
        body(chunk_begin, chunk_end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!failed->exchange(true)) error = std::current_exception();
      }
    }
  };

  // The caller is one of the workers, so at most num_chunks - 1 helpers are
  // ever useful. Helpers queued behind unrelated work simply find the cursor
  // exhausted when they run.
  const std::size_t helper_count =
      std::min<std::size_t>(pool.size(), num_chunks - 1);
  std::vector<std::future<void>> helpers;
  helpers.reserve(helper_count);
  for (std::size_t i = 0; i < helper_count; ++i) {
    helpers.push_back(pool.submit(run_chunks));
  }
  run_chunks();
  for (auto& helper : helpers) helper.get();
  if (error) std::rethrow_exception(error);
}

}  // namespace tetris::runtime
