// Micro-benchmarks (google-benchmark) for the substrate hot paths: state-
// vector gate application, noisy trajectory sampling, transpilation, and the
// TetrisLock designer-side transforms. These guard against performance
// regressions in the loops the experiment harnesses hammer.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "compiler/compiler.h"
#include "compiler/target.h"
#include "lock/obfuscator.h"
#include "lock/pipeline.h"
#include "lock/splitter.h"
#include "revlib/benchmarks.h"
#include "runtime/thread_pool.h"
#include "sim/fusion.h"
#include "sim/kernels/simd.h"
#include "sim/sampler.h"
#include "sim/statevector.h"

namespace {

using namespace tetris;

void BM_StateVectorHLayer(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::StateVector sv(n);
  for (auto _ : state) {
    for (int q = 0; q < n; ++q) sv.apply_gate(qir::make_h(q));
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StateVectorHLayer)->Arg(5)->Arg(10)->Arg(12)->Arg(16);

void BM_StateVectorCxChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::StateVector sv(n);
  for (auto _ : state) {
    for (int q = 0; q + 1 < n; ++q) sv.apply_gate(qir::make_cx(q, q + 1));
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}
BENCHMARK(BM_StateVectorCxChain)->Arg(5)->Arg(10)->Arg(12)->Arg(16);

// Parallel-kernel scaling: the same H layer, forced through the threaded
// statevector path on a pool of range(1) workers. Compare against
// BM_StateVectorHLayer at equal qubit counts for the parallel overhead /
// speedup picture.
void BM_StateVectorHLayerMT(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  runtime::ThreadPool::set_global_threads(
      static_cast<unsigned>(state.range(1)));
  sim::StateVector sv(n);
  sv.set_parallel_threshold(0);  // always take the parallel kernels
  for (auto _ : state) {
    for (int q = 0; q < n; ++q) sv.apply_gate(qir::make_h(q));
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  runtime::ThreadPool::set_global_threads(0);  // restore default sizing
}
BENCHMARK(BM_StateVectorHLayerMT)
    ->Args({16, 1})->Args({16, 2})->Args({16, 4})
    ->Args({20, 1})->Args({20, 2})->Args({20, 4});

// SIMD kernel dispatch: one fused sweep workload (gang rows + pair windows)
// under each kernel mode. range(0) = qubits, range(1) = 0 scalar / 1 AVX2;
// the AVX2 rows are skipped on hosts without the ISA. The ratio at equal
// width is the SIMD speedup BENCH_fusion.json reports as
// speedup_simd_vs_scalar_fused.
void BM_FusedSweepSimd(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool avx2 = state.range(1) != 0;
  if (avx2 && !sim::kernels::avx2_available()) {
    state.SkipWithError("no AVX2 on this host");
    return;
  }
  const auto saved = sim::kernels::simd_mode();
  sim::kernels::set_simd_mode(avx2 ? sim::kernels::SimdMode::kAvx2
                                   : sim::kernels::SimdMode::kScalar);
  qir::Circuit c(n, "simd_bench");
  Rng rng(11);
  for (int layer = 0; layer < 4; ++layer) {
    for (int q = 0; q < n; ++q) c.rz(rng.uniform() * 3.0, q);
    for (int q = 0; q + 1 < n; q += 2) c.cx(q, q + 1);
  }
  const auto plan = sim::FusionPlan::build(c);
  sim::StateVector sv(n);
  for (auto _ : state) {
    sv.reset();
    sv.apply_fused(plan);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetLabel(avx2 ? "avx2" : "scalar");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(c.size()));
  sim::kernels::set_simd_mode(saved);
}
BENCHMARK(BM_FusedSweepSimd)
    ->Args({12, 0})->Args({12, 1})
    ->Args({16, 0})->Args({16, 1})
    ->Args({20, 0})->Args({20, 1});

// Scheduling overhead of parallel_for itself on a trivial body.
void BM_ParallelForOverhead(benchmark::State& state) {
  runtime::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  std::vector<double> sink(std::size_t{1} << 20, 1.0);
  runtime::ParallelForOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    runtime::parallel_for(
        0, sink.size(),
        [&sink](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) sink[i] *= 1.0000001;
        },
        options);
    benchmark::DoNotOptimize(sink.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sink.size()));
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(2)->Arg(4);

void BM_NoisySampling(benchmark::State& state) {
  const auto& b = revlib::get_benchmark("rd53");
  auto target = compiler::device_for(b.circuit.num_qubits()).target;
  compiler::Compiler comp(
      {target, compiler::LayoutStrategy::GreedyDegree, true, std::nullopt});
  auto compiled = comp.compile(b.circuit);
  Rng rng(1);
  sim::SampleOptions opts;
  opts.shots = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto counts = sim::sample(compiled.circuit, target.noise, rng, opts);
    benchmark::DoNotOptimize(counts.shots);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NoisySampling)->Arg(100)->Arg(1000);

void BM_CompileBenchmark(benchmark::State& state) {
  const auto& all = revlib::table1_benchmarks();
  const auto& b = all[static_cast<std::size_t>(state.range(0))];
  auto target = compiler::device_for(b.circuit.num_qubits()).target;
  compiler::CompileOptions opts{target, compiler::LayoutStrategy::GreedyDegree,
                                true, std::nullopt};
  for (auto _ : state) {
    compiler::Compiler comp(opts);
    auto result = comp.compile(b.circuit);
    benchmark::DoNotOptimize(result.circuit.size());
  }
  state.SetLabel(b.name);
}
BENCHMARK(BM_CompileBenchmark)->DenseRange(0, 7);

void BM_ObfuscateAndSplit(benchmark::State& state) {
  const auto& all = revlib::table1_benchmarks();
  const auto& b = all[static_cast<std::size_t>(state.range(0))];
  Rng rng(7);
  for (auto _ : state) {
    lock::Obfuscator obfuscator;
    auto obf = obfuscator.obfuscate(b.circuit, rng);
    lock::InterlockSplitter splitter;
    auto pair = splitter.split(obf, rng);
    benchmark::DoNotOptimize(pair.first.gate_indices.size());
  }
  state.SetLabel(b.name);
}
BENCHMARK(BM_ObfuscateAndSplit)->DenseRange(0, 7);

void BM_FullFlow(benchmark::State& state) {
  const auto& b = revlib::get_benchmark("4mod5");
  auto target = compiler::device_for(b.circuit.num_qubits()).target;
  lock::FlowConfig cfg;
  cfg.shots = 200;
  Rng rng(3);
  for (auto _ : state) {
    auto r = lock::run_flow(b.circuit, b.measured, target, cfg, rng);
    benchmark::DoNotOptimize(r.accuracy_restored);
  }
}
BENCHMARK(BM_FullFlow);

}  // namespace

BENCHMARK_MAIN();
