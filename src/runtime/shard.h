#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>

#include "runtime/thread_pool.h"

namespace tetris::runtime {

/// \brief Caller-participates chunk fan-out — the library's one way to split
/// work inside a job (`sim::sample` shards its shots with it).
///
/// Runs `fn(c)` exactly once for every chunk index in [0, num_chunks),
/// concurrently on up to `width` participants: the calling thread plus up
/// to `width - 1` helper tasks submitted to `pool`. Participants claim
/// chunk indices from a shared cursor; the call returns once every claimed
/// chunk has *finished* — it never waits for helper tasks that have not
/// started. Helpers stuck in the queue behind unrelated work later find the
/// cursor exhausted and return without touching anything but the
/// shared-ownership control block, which makes this safe at any nesting
/// depth:
///
///   - called **from a pool worker**, the helpers queue on that same pool;
///     on a saturated pool they never run and the calling worker simply
///     executes all chunks itself — graceful serial degradation instead of
///     deadlock or oversubscription;
///   - called from a non-worker thread while the pool is busy, the caller
///     likewise chews through the chunks without blocking on the queue.
///
/// The first exception thrown by a chunk is rethrown on the caller after
/// all claimed chunks have settled; chunks claimed after a failure are
/// skipped (claimed-but-not-run), so a failing run does not pay for the
/// remaining work.
///
/// Determinism: chunk index -> work must be a pure mapping in `fn` (e.g.
/// writing only to slot `c` of a pre-sized result vector, drawing only
/// from a chunk-derived RNG stream). Under that contract the outcome is
/// independent of width, pool, and claim order — see `sim::sample`, the
/// primary user, and docs/ARCHITECTURE.md.
///
/// \param pool       pool the helper tasks are submitted to
/// \param num_chunks number of chunk indices to execute
/// \param width      maximum participants (including the caller); <= 1 runs
///                   everything serially on the caller
/// \param fn         chunk body, invoked as fn(chunk_index); may throw
template <typename ChunkFn>
void run_chunked(ThreadPool& pool, std::size_t num_chunks, unsigned width,
                 const ChunkFn& fn) {
  if (num_chunks == 0) return;
  if (width <= 1 || num_chunks == 1) {
    for (std::size_t c = 0; c < num_chunks; ++c) fn(c);
    return;
  }

  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> cancelled{false};
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t finished = 0;
    std::exception_ptr error;
  };
  auto shared = std::make_shared<Shared>();

  // The capture of `fn` is a raw pointer into the caller's frame: a
  // participant only dereferences it while it holds a claimed chunk, and
  // the caller cannot return before every claimed chunk has finished.
  // Stragglers claim nothing and touch only `shared`, which they co-own.
  auto participant = [shared, fn_ptr = &fn, num_chunks] {
    for (;;) {
      const std::size_t c =
          shared->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      std::exception_ptr error;
      // A chunk claimed after a sibling failed is counted but not run —
      // the result is about to be discarded anyway.
      if (!shared->cancelled.load(std::memory_order_relaxed)) {
        try {
          (*fn_ptr)(c);
        } catch (...) {
          error = std::current_exception();
          shared->cancelled.store(true, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(shared->mutex);
      if (error && !shared->error) shared->error = error;
      if (++shared->finished == num_chunks) shared->cv.notify_all();
    }
  };

  const std::size_t helpers =
      std::min<std::size_t>(width - 1, num_chunks - 1);
  for (std::size_t i = 0; i < helpers; ++i) {
    try {
      pool.submit(participant);  // future dropped: completion is per chunk
    } catch (...) {
      break;  // pool shutting down — the caller still runs every chunk
    }
  }
  participant();
  std::unique_lock<std::mutex> lock(shared->mutex);
  shared->cv.wait(lock, [&] { return shared->finished == num_chunks; });
  if (shared->error) std::rethrow_exception(shared->error);
}

}  // namespace tetris::runtime
