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
#include "qir/library.h"
#include "revlib/benchmarks.h"
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

// One permutation gate per iteration: range(0) = 0 CX, 1 CCX, 2 SWAP;
// range(1) = qubits. Placements cycle over every adjacent wire window in
// both orders, so the reported time is the mean per-gate cost over low,
// middle and top wires.
void BM_StateVectorPermutation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(1));
  std::vector<qir::Gate> gates;
  for (int q = 0; q + 2 < n; ++q) {
    switch (state.range(0)) {
      case 0:
        gates.push_back(qir::make_cx(q, q + 1));
        gates.push_back(qir::make_cx(q + 2, q));
        break;
      case 1:
        gates.push_back(qir::make_ccx(q, q + 1, q + 2));
        gates.push_back(qir::make_ccx(q + 2, q + 1, q));
        break;
      default:
        gates.push_back(qir::make_swap(q, q + 1));
        gates.push_back(qir::make_swap(q + 2, q));
        break;
    }
  }
  sim::StateVector sv(n);
  for (int q = 0; q < n; ++q) sv.apply_gate(qir::make_h(q));
  std::size_t i = 0;
  for (auto _ : state) {
    sv.apply_gate(gates[i]);
    i = i + 1 == gates.size() ? 0 : i + 1;
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateVectorPermutation)
    ->Args({0, 12})->Args({0, 14})
    ->Args({1, 12})->Args({1, 14})
    ->Args({2, 12})->Args({2, 14});

// SIMD kernel dispatch: one fused workload (an rz.sx.rz chain per qubit,
// each merged into one dense 2x2 sweep, then CX pairs) under each kernel
// mode. range(0) = qubits, range(1) = 0 scalar / 1 AVX2; the AVX2 rows are
// skipped on hosts without the ISA. The ratio at equal width is the SIMD
// speedup BENCH_fusion.json reports as speedup_simd_vs_scalar_fused.
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
    for (int q = 0; q < n; ++q) {
      const double before = rng.uniform() * 3.0;
      const double after = rng.uniform() * 3.0;
      c.rz(before, q).sx(q).rz(after, q);
    }
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

// One 1000-shot noisy sample of a compiled view on one thread: range(0) = 0
// rd84 (12 qubits, unfused), 1 the 14-qubit ripple-carry adder (fused) —
// the errored-trajectory replay the suite and wide flows spend their time in.
void BM_SampleCompiledView(benchmark::State& state) {
  const bool adder = state.range(0) == 1;
  const qir::Circuit circuit = adder ? qir::library::ripple_carry_adder(6)
                                     : revlib::get_benchmark("rd84").circuit;
  auto target = compiler::device_for(circuit.num_qubits()).target;
  compiler::Compiler comp(
      {target, compiler::LayoutStrategy::GreedyDegree, true, std::nullopt});
  const auto compiled = comp.compile(circuit);
  sim::SampleOptions opts;
  opts.shots = 1000;
  opts.threads = 1;
  opts.fuse = adder;
  for (auto _ : state) {
    Rng rng(1);
    auto counts = sim::sample(compiled.circuit, target.noise, rng, opts);
    benchmark::DoNotOptimize(counts.shots);
  }
}
BENCHMARK(BM_SampleCompiledView)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The fixed per-shot cost: one 1000-shot sample of the compiled 4mod5 view
// (5 qubits, fake_valencia) on one thread, where no gate error fires, so
// every shot seeds its stream, draws its outcome from the shared ideal run,
// draws its readout flips and is counted. range(0) = 0 zeroes the gate
// rates (no gate draws); 1 sets them to 1e-9, so every gate also draws its
// Bernoulli and, at this seed, none fires.
void BM_ShotOverhead(benchmark::State& state) {
  const auto& b = revlib::get_benchmark("4mod5");
  auto target = compiler::device_for(b.circuit.num_qubits()).target;
  compiler::Compiler comp(
      {target, compiler::LayoutStrategy::GreedyDegree, true, std::nullopt});
  const auto compiled = comp.compile(b.circuit);
  sim::NoiseModel noise = target.noise;
  noise.p1 = noise.p2 = state.range(0) == 0 ? 0.0 : 1e-9;
  sim::SampleOptions opts;
  opts.shots = 1000;
  opts.threads = 1;
  for (auto _ : state) {
    Rng rng(1);
    auto counts = sim::sample(compiled.circuit, noise, rng, opts);
    benchmark::DoNotOptimize(counts.shots);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ShotOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

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
