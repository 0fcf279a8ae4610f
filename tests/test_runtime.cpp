#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.h"
#include "runtime/shard.h"

namespace tetris::runtime {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  constexpr int kTasks = 200;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, SizeRespectsRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_GE(ThreadPool(0).size(), 1u);  // 0 = hardware default, at least one
}

TEST(ThreadPool, WorkerThreadFlag) {
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  ThreadPool pool(1);
  EXPECT_TRUE(pool.submit([] { return ThreadPool::on_worker_thread(); }).get());
}

TEST(ThreadPool, DefaultThreadsIgnoresOutOfRangeEnv) {
  // Only the sizing rule is probed: no pool is built from these values.
  const char* env = std::getenv("TETRIS_THREADS");
  const bool had_env = env != nullptr;
  const std::string saved = had_env ? env : "";
  ::unsetenv("TETRIS_THREADS");
  const unsigned hardware = ThreadPool::default_global_threads();
  EXPECT_GE(hardware, 1u);
  for (const char* bad : {"0", "-3", "abc", "100000", "1025", "4294967296",
                          "4294967297", "99999999999999999999"}) {
    ::setenv("TETRIS_THREADS", bad, 1);
    EXPECT_EQ(ThreadPool::default_global_threads(), hardware) << bad;
  }
  ::setenv("TETRIS_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_global_threads(), 3u);
  ::setenv("TETRIS_THREADS", "1024", 1);
  EXPECT_EQ(ThreadPool::default_global_threads(), ThreadPool::kMaxThreads);
  if (had_env) {
    ::setenv("TETRIS_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("TETRIS_THREADS");
  }
}

// --------------------------------------------------------------- run_chunked

TEST(RunChunked, VisitsEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kChunks = 37;
  std::vector<std::atomic<int>> visits(kChunks);
  run_chunked(pool, kChunks, 4, [&](std::size_t c) { ++visits[c]; });
  for (std::size_t c = 0; c < kChunks; ++c) EXPECT_EQ(visits[c].load(), 1);
}

TEST(RunChunked, SerialWidthAndEmptyRange) {
  ThreadPool pool(2);
  int calls = 0;
  run_chunked(pool, 0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  run_chunked(pool, 5, 1, [&](std::size_t) { ++calls; });  // width 1: serial
  EXPECT_EQ(calls, 5);
}

TEST(RunChunked, PropagatesFirstExceptionAndSkipsRemainingWork) {
  // The pool's only worker is held on a latch for the whole call, so the
  // helper task queues behind it and the caller is the only participant: it
  // claims chunk 0, which throws, and every chunk it claims afterwards is
  // counted but not executed, so a failing run does not pay for the tail.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  auto blocker = pool.submit([latch] { latch.wait(); });
  std::atomic<int> executed{0};
  EXPECT_THROW(run_chunked(pool, 64, 1u + pool.size(),
                           [&](std::size_t c) {
                             if (c == 0) throw InvalidArgument("boom");
                             ++executed;
                           }),
               InvalidArgument);
  EXPECT_EQ(executed.load(), 0);
  release.set_value();
  blocker.get();
}

TEST(RunChunked, NestedInsideWorkerDoesNotDeadlock) {
  // run_chunked from a pool task fans out over that same pool: the calling
  // worker participates, helpers queue behind it, nothing blocks.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  auto future = pool.submit([&] {
    run_chunked(pool, 16, 8, [&](std::size_t) { ++total; });
  });
  future.get();
  EXPECT_EQ(total.load(), 16);
}

}  // namespace
}  // namespace tetris::runtime
