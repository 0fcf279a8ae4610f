#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "runtime/shard.h"
#include "sim/statevector.h"

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

// -------------------------------------------------------------- parallel_for

TEST(ParallelFor, MatchesSerialLoop) {
  constexpr std::size_t kCount = 100000;
  std::vector<double> serial(kCount), parallel(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    serial[i] = static_cast<double>(i) * 1.5 + 1.0;
  }
  ThreadPool pool(4);
  ParallelForOptions options;
  options.pool = &pool;
  options.grain = 1000;
  parallel_for(
      0, kCount,
      [&parallel](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          parallel[i] = static_cast<double>(i) * 1.5 + 1.0;
        }
      },
      options);
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 54321;  // not a multiple of any grain
  std::vector<std::atomic<int>> visits(kCount);
  ThreadPool pool(4);
  ParallelForOptions options;
  options.pool = &pool;
  options.grain = 128;
  parallel_for(
      7, kCount,
      [&visits](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++visits[i];
      },
      options);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(visits[i].load(), 0);
  for (std::size_t i = 7; i < kCount; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  int calls = 0;
  auto count_calls = [&calls](std::size_t, std::size_t) { ++calls; };
  parallel_for(5, 5, count_calls);
  EXPECT_EQ(calls, 0);
  parallel_for(10, 5, count_calls);  // inverted range is a no-op
  EXPECT_EQ(calls, 0);
  parallel_for(0, 3, count_calls);  // below grain: single serial call
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(4);
  ParallelForOptions options;
  options.pool = &pool;
  options.grain = 10;
  EXPECT_THROW(
      parallel_for(
          0, 10000,
          [](std::size_t begin, std::size_t) {
            if (begin >= 5000) throw InvalidArgument("boom");
          },
          options),
      InvalidArgument);
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

TEST(ParallelFor, NestedCallRunsSerially) {
  // A body that itself calls parallel_for must not deadlock the fixed pool.
  ThreadPool pool(2);
  ParallelForOptions options;
  options.pool = &pool;
  options.grain = 1;
  std::atomic<int> total{0};
  parallel_for(
      0, 8,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          parallel_for(
              0, 4,
              [&total](std::size_t b, std::size_t e) {
                total += static_cast<int>(e - b);
              },
              {1, nullptr});
        }
      },
      options);
  EXPECT_EQ(total.load(), 8 * 4);
}

// --------------------------------------------------- statevector equivalence

/// A random circuit mixing every kernel family: single-qubit rotations,
/// controlled singles, SWAP and Toffoli.
qir::Circuit random_circuit(int num_qubits, int num_gates, Rng& rng) {
  qir::Circuit c(num_qubits, "random");
  for (int g = 0; g < num_gates; ++g) {
    int q0 = rng.uniform_int(0, num_qubits - 1);
    int q1 = rng.uniform_int(0, num_qubits - 2);
    if (q1 >= q0) ++q1;  // distinct second qubit
    switch (rng.uniform_int(0, 7)) {
      case 0: c.h(q0); break;
      case 1: c.t(q0); break;
      case 2: c.rx(rng.uniform() * 3.1, q0); break;
      case 3: c.rz(rng.uniform() * 3.1, q0); break;
      case 4: c.cx(q0, q1); break;
      case 5: c.swap(q0, q1); break;
      case 6: c.add(qir::make_cp(rng.uniform() * 3.1, q0, q1)); break;
      default: {
        int q2 = rng.uniform_int(0, num_qubits - 1);
        if (q2 == q0 || q2 == q1) {
          c.cx(q0, q1);
        } else {
          c.add(qir::make_ccx(q0, q1, q2));
        }
        break;
      }
    }
  }
  return c;
}

TEST(StateVectorParallel, BitIdenticalToSerialOnRandomCircuits) {
  // Force genuine multi-chunk, multi-worker execution: with the default
  // grain (2^12) an 8-12 qubit register fits in one chunk and parallel_for
  // would quietly serialize, and on a 1-core box the default global pool has
  // a single worker. Shrink the grain and widen the pool so the parallel
  // path really runs chunked across threads.
  ThreadPool::set_global_threads(4);
  Rng rng(99);
  for (int trial = 0; trial < 6; ++trial) {
    const int num_qubits = 8 + (trial % 5);  // 8..12
    auto circuit = random_circuit(num_qubits, 60, rng);

    sim::StateVector serial(num_qubits);
    serial.set_parallel_threshold(num_qubits + 1);  // pin serial kernels
    serial.apply_circuit(circuit);

    sim::StateVector parallel(num_qubits);
    parallel.set_parallel_threshold(0);  // force parallel kernels
    parallel.set_parallel_grain(64);     // many chunks even at 8 qubits
    parallel.apply_circuit(circuit);

    // Exact equality, not a tolerance: the parallel kernels perform the same
    // arithmetic per amplitude, only partitioned differently.
    EXPECT_EQ(parallel.max_abs_diff(serial), 0.0)
        << "trial " << trial << " on " << num_qubits << " qubits";
    EXPECT_EQ(parallel.probabilities(), serial.probabilities());
  }
  ThreadPool::set_global_threads(0);  // restore default sizing
}

TEST(StateVectorParallel, ThresholdDefaultsKeepSmallRegistersSerial) {
  sim::StateVector sv(4);
  EXPECT_EQ(sv.parallel_threshold(),
            sim::StateVector::kDefaultParallelThresholdQubits);
}

}  // namespace
}  // namespace tetris::runtime
