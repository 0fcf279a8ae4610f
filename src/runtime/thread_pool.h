#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.h"

namespace tetris::runtime {

/// Fixed-size worker-thread pool.
///
/// Tasks are submitted as callables and drained FIFO by `num_threads` worker
/// threads; `submit` returns a `std::future` that carries the task's return
/// value or its exception. The pool is intentionally simple — no work
/// stealing, no priorities — because every hot loop in the library goes
/// through `parallel_for` or `run_chunked` (both chunked, self-balancing via
/// a shared cursor), and `service::Service` submits coarse independent flow
/// jobs; none of them benefits from a fancier scheduler.
///
/// Most callers should not construct a pool: use `ThreadPool::global()`,
/// which is sized from `--jobs` / `TETRIS_THREADS` / the hardware and shared
/// by the statevector kernels, the sampler, and the service.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means `std::thread::hardware_concurrency`.
  explicit ThreadPool(unsigned num_threads = 0);

  /// Drains nothing: pending tasks are completed before the workers exit.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Point-in-time telemetry snapshot. `queued` + `active` can momentarily
  /// disagree with `submitted - completed` (a task between dequeue and the
  /// active increment), so treat the fields as independent gauges/counters,
  /// not an exact conservation law.
  struct Stats {
    unsigned threads = 0;            ///< worker count (fixed at construction)
    std::size_t queued = 0;          ///< tasks waiting in the queue
    unsigned active = 0;             ///< workers currently running a task
    std::uint64_t submitted = 0;     ///< tasks ever accepted by submit()
    std::uint64_t completed = 0;     ///< tasks that finished running
  };
  Stats stats() const;

  /// Enqueues `fn` and returns a future for its result. The future rethrows
  /// any exception `fn` throws. Submitting after destruction has begun is a
  /// programming error and throws InvalidArgument.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      TETRIS_REQUIRE(!stop_, "ThreadPool::submit: pool is shutting down");
      tasks_.push([task] { (*task)(); });
      tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
    }
    cv_.notify_one();
    return future;
  }

  /// True when the calling thread is a worker of *any* ThreadPool. Used by
  /// `parallel_for` to fall back to serial execution instead of deadlocking
  /// on nested parallelism (a pool task waiting for pool tasks).
  ///
  /// \return true iff the caller is inside some pool's worker_loop.
  static bool on_worker_thread();

  /// The pool whose worker is executing the calling thread.
  ///
  /// Nested fan-out (e.g. `sim::sample` sharding its shots from inside a
  /// `service::Service` flow job) uses this to enqueue helper tasks on the
  /// *same* pool the caller already runs on, so intra-job parallelism shares
  /// the job-level pool's workers instead of oversubscribing the machine
  /// with a second pool.
  ///
  /// \return the owning pool, or nullptr when called from a non-worker
  ///         thread (the main thread, a detached std::thread, ...).
  static ThreadPool* current();

  /// The process-wide shared pool. Created on first use with
  /// `default_global_threads()` workers.
  static ThreadPool& global();

  /// Resizes the global pool (tears down the old one and spawns a new one).
  /// Call at startup — e.g. from a `--jobs N` flag — before parallel work is
  /// in flight; concurrent in-flight users of the old pool are waited for.
  /// `n == 0` restores the default sizing.
  static void set_global_threads(unsigned n);

  /// Sizing rule for the global pool: `TETRIS_THREADS` env var when set to a
  /// positive integer, otherwise `std::thread::hardware_concurrency` (>= 1).
  static unsigned default_global_threads();

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
  std::atomic<std::uint64_t> tasks_submitted_{0};
  std::atomic<std::uint64_t> tasks_completed_{0};
  std::atomic<unsigned> active_workers_{0};
};

/// Chunking knobs for `parallel_for`.
struct ParallelForOptions {
  /// Minimum number of iterations per chunk. Ranges at or below one grain run
  /// serially on the calling thread (zero scheduling overhead), so `grain`
  /// doubles as the small-problem cutoff.
  std::size_t grain = 4096;
  /// Pool to run on; nullptr means `ThreadPool::global()`.
  ThreadPool* pool = nullptr;
  /// Chunk sizes are rounded up to a multiple of `align`, so chunk
  /// boundaries land on multiples of it (relative to `begin`). The SIMD
  /// statevector kernels pass their vector group width and the tiled fused
  /// sweeps their tile size, keeping every chunk boundary off the middle of
  /// a vector group or cache tile. Purely a partitioning knob: bodies whose
  /// per-index results are position-independent (all of this repo's) return
  /// identical results at any alignment.
  std::size_t align = 1;
};

/// Runs `body(chunk_begin, chunk_end)` over a partition of [begin, end).
///
/// The range is cut into chunks of at least `options.grain` iterations which
/// workers (and the calling thread, which participates) claim from a shared
/// cursor — cheap dynamic load balancing without work stealing. Returns when
/// every chunk has completed. The first exception thrown by `body` is
/// rethrown on the caller after the remaining chunks are cancelled.
///
/// Chunks never overlap and each index is visited exactly once, so any body
/// that writes only to locations derived from its own indices is safe and —
/// because no arithmetic is reassociated across chunks — produces results
/// bit-identical to the serial loop.
///
/// Calls from inside a pool worker run serially inline (nested parallelism
/// would deadlock a fixed pool). Fan-out that must also parallelize when
/// nested uses `runtime::run_chunked` (shard.h) instead — the
/// caller-participates cursor design `sim::sample` shards its trajectories
/// with; see docs/ARCHITECTURE.md.
///
/// \param begin   first iteration index (inclusive)
/// \param end     one past the last iteration index
/// \param body    chunk body, invoked as body(chunk_begin, chunk_end)
/// \param options grain size and target pool
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  const ParallelForOptions& options = {});

}  // namespace tetris::runtime
