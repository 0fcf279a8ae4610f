#include "sim/sampler.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "qir/library.h"
#include "runtime/thread_pool.h"
#include "sim/kernels/simd.h"

namespace tetris::sim {
namespace {

TEST(Counts, Basics) {
  Counts c;
  c.shots = 10;
  c.histogram["00"] = 7;
  c.histogram["11"] = 3;
  EXPECT_EQ(c.count("00"), 7u);
  EXPECT_EQ(c.count("01"), 0u);
  EXPECT_EQ(c.mode(), "00");
  auto d = c.distribution();
  EXPECT_DOUBLE_EQ(d["00"], 0.7);
  EXPECT_DOUBLE_EQ(d["11"], 0.3);
}

TEST(Counts, ModeOnEmptyThrows) {
  Counts c;
  EXPECT_THROW(c.mode(), InvalidArgument);
}

TEST(Bitstring, MsbFirstConvention) {
  EXPECT_EQ(bitstring(0, 3), "000");
  EXPECT_EQ(bitstring(1, 3), "001");  // qubit 0 is rightmost
  EXPECT_EQ(bitstring(4, 3), "100");  // qubit 2 is leftmost
  EXPECT_EQ(bitstring(6, 4), "0110");
}

TEST(Sampler, DeterministicCircuitIdealNoise) {
  qir::Circuit c(3);
  c.x(0).x(2);
  Rng rng(1);
  SampleOptions opts;
  opts.shots = 200;
  auto counts = sample(c, NoiseModel::ideal(), rng, opts);
  EXPECT_EQ(counts.count("101"), 200u);
}

TEST(Sampler, MeasuredSubsetProjects) {
  qir::Circuit c(3);
  c.x(0).x(2);
  Rng rng(1);
  SampleOptions opts;
  opts.shots = 50;
  opts.measured = {2};  // only qubit 2
  auto counts = sample(c, NoiseModel::ideal(), rng, opts);
  EXPECT_EQ(counts.count("1"), 50u);
  opts.measured = {1};
  counts = sample(c, NoiseModel::ideal(), rng, opts);
  EXPECT_EQ(counts.count("0"), 50u);
}

TEST(Sampler, MeasuredOrderMatchesConvention) {
  qir::Circuit c(2);
  c.x(0);  // qubit0 = 1, qubit1 = 0
  Rng rng(1);
  SampleOptions opts;
  opts.shots = 10;
  opts.measured = {0, 1};
  auto counts = sample(c, NoiseModel::ideal(), rng, opts);
  // measured[0]=q0 is the last character.
  EXPECT_EQ(counts.count("01"), 10u);
}

TEST(Sampler, MeasuredOutOfRangeThrows) {
  qir::Circuit c(2);
  Rng rng(1);
  SampleOptions opts;
  opts.measured = {5};
  EXPECT_THROW(sample(c, NoiseModel::ideal(), rng, opts), InvalidArgument);
}

TEST(Sampler, SuperpositionRoughlyBalanced) {
  qir::Circuit c(1);
  c.h(0);
  Rng rng(99);
  SampleOptions opts;
  opts.shots = 20000;
  auto counts = sample(c, NoiseModel::ideal(), rng, opts);
  double p1 = static_cast<double>(counts.count("1")) / 20000.0;
  EXPECT_NEAR(p1, 0.5, 0.02);
}

TEST(Sampler, ReadoutErrorFlipsBits) {
  qir::Circuit c(1);  // stays |0>
  NoiseModel nm;
  nm.readout = 0.1;
  Rng rng(7);
  SampleOptions opts;
  opts.shots = 20000;
  auto counts = sample(c, nm, rng, opts);
  double flip = static_cast<double>(counts.count("1")) / 20000.0;
  EXPECT_NEAR(flip, 0.1, 0.015);
}

TEST(Sampler, GateNoiseCorruptsDeterministicOutcome) {
  qir::Circuit c(2);
  for (int i = 0; i < 10; ++i) c.x(0);
  NoiseModel nm;
  nm.p1 = 0.05;
  Rng rng(3);
  SampleOptions opts;
  opts.shots = 4000;
  auto counts = sample(c, nm, rng, opts);
  // All-X circuit with 10 gates: ideal outcome "00" (even X count);
  // with gate noise some shots land elsewhere.
  EXPECT_GT(counts.count("00"), 2500u);
  EXPECT_LT(counts.count("00"), 4000u);
}

TEST(Sampler, NoiselessModelGivesIdealEvenWithManyGates) {
  qir::Circuit c(2);
  for (int i = 0; i < 9; ++i) c.x(1);
  Rng rng(3);
  SampleOptions opts;
  opts.shots = 500;
  auto counts = sample(c, NoiseModel::ideal(), rng, opts);
  EXPECT_EQ(counts.count("10"), 500u);
}

TEST(IdealDistribution, PointMassForClassical) {
  qir::Circuit c(2);
  c.x(1);
  auto d = ideal_distribution(c);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d.at("10"), 1.0);
}

TEST(IdealDistribution, MarginalizesSubset) {
  qir::Circuit c(2);
  c.h(0).cx(0, 1);  // Bell
  auto d = ideal_distribution(c, {0});
  EXPECT_NEAR(d.at("0"), 0.5, 1e-12);
  EXPECT_NEAR(d.at("1"), 0.5, 1e-12);
}

TEST(ClassicalOutcome, MatchesSimulation) {
  qir::Circuit c(4);
  c.x(0).cx(0, 1).ccx(0, 1, 2).swap(2, 3).x(2);
  std::string outcome = classical_outcome(c);
  auto d = ideal_distribution(c);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d.begin()->first, outcome);
}

TEST(ClassicalOutcome, CswapAndMcx) {
  qir::Circuit c(5);
  c.x(0).x(1).x(2).mcx({0, 1, 2}, 4).cswap(4, 0, 3);
  // q4 flips (all controls set); then q0<->q3 swap since q4=1.
  std::string outcome = classical_outcome(c);
  auto d = ideal_distribution(c);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d.begin()->first, outcome);
}

TEST(ClassicalOutcome, RejectsNonClassical) {
  qir::Circuit c(1);
  c.h(0);
  EXPECT_THROW(classical_outcome(c), InvalidArgument);
}

TEST(ClassicalOutcome, MeasuredSubset) {
  qir::Circuit c(3);
  c.x(1);
  EXPECT_EQ(classical_outcome(c, {1}), "1");
  EXPECT_EQ(classical_outcome(c, {0, 1}), "10");  // q1 first char (highest)
  EXPECT_EQ(classical_outcome(c, {2}), "0");
}

// ------------------------------------------------------- parallel sharding

NoiseModel test_noise() {
  NoiseModel nm;
  nm.p1 = 0.01;
  nm.p2 = 0.03;
  nm.readout = 0.02;
  return nm;
}

/// Samples `circuit` on a private pool of `threads` workers with a small
/// chunk grain, so even modest shot counts really shard.
Counts sample_at(const qir::Circuit& circuit, const NoiseModel& nm,
                 unsigned threads, std::size_t shots,
                 std::size_t shots_per_chunk = 16) {
  runtime::ThreadPool pool(threads);
  SampleOptions opts;
  opts.shots = shots;
  opts.threads = threads;
  opts.pool = &pool;
  opts.shots_per_chunk = shots_per_chunk;
  Rng rng(4242);
  return sample(circuit, nm, rng, opts);
}

TEST(SamplerParallel, BitIdenticalAcrossThreadCountsOnRandomCircuits) {
  // Random noisy 6-10q circuits: the histogram must match bit for bit at
  // 1, 2, and 8 worker threads (the ISSUE 3 acceptance gate).
  for (int seed = 1; seed <= 5; ++seed) {
    Rng crng(static_cast<std::uint64_t>(seed));
    const int qubits = 6 + (seed - 1) % 5;
    auto circuit = qir::library::random_universal(qubits, 40, crng);
    auto serial = sample_at(circuit, test_noise(), 1, 500);
    auto two = sample_at(circuit, test_noise(), 2, 500);
    auto eight = sample_at(circuit, test_noise(), 8, 500);
    EXPECT_EQ(serial.histogram, two.histogram) << "qubits=" << qubits;
    EXPECT_EQ(serial.histogram, eight.histogram) << "qubits=" << qubits;
    EXPECT_EQ(serial.shots, 500u);
  }
}

TEST(SamplerParallel, ChunkGrainNeverChangesCounts) {
  Rng crng(7);
  auto circuit = qir::library::random_universal(7, 30, crng);
  auto reference = sample_at(circuit, test_noise(), 4, 300, /*chunk=*/1);
  for (std::size_t grain : {std::size_t{2}, std::size_t{77},
                            std::size_t{100000}}) {
    auto counts = sample_at(circuit, test_noise(), 4, 300, grain);
    EXPECT_EQ(reference.histogram, counts.histogram) << "grain=" << grain;
  }
}

TEST(SamplerParallel, CallerRngAdvancesByOneDrawRegardlessOfEverything) {
  // sample() consumes exactly one u64 whatever shots/threads are, so the
  // caller's downstream randomness never depends on sampler settings.
  Rng crng(9);
  auto circuit = qir::library::random_universal(6, 20, crng);
  auto next_after = [&](std::size_t shots, unsigned threads) {
    runtime::ThreadPool pool(threads == 0 ? 1 : threads);
    SampleOptions opts;
    opts.shots = shots;
    opts.threads = threads;
    opts.pool = &pool;
    Rng rng(31337);
    sample(circuit, test_noise(), rng, opts);
    return rng.next_u64();
  };
  const std::uint64_t reference = next_after(0, 1);
  EXPECT_EQ(reference, next_after(100, 1));
  EXPECT_EQ(reference, next_after(2000, 4));
}

TEST(SamplerParallel, NestedInsidePoolWorkerIsSafeAndIdentical) {
  // A sampler running *on* a pool worker (exactly how service::Service flow
  // jobs call it) must neither deadlock nor change the counts, even when it
  // shards over its own pool.
  Rng crng(13);
  auto circuit = qir::library::random_universal(6, 25, crng);
  auto reference = sample_at(circuit, test_noise(), 1, 400);
  runtime::ThreadPool pool(2);
  auto future = pool.submit([&] {
    SampleOptions opts;
    opts.shots = 400;
    opts.threads = 0;  // auto: resolves to the worker's own pool
    opts.shots_per_chunk = 16;
    Rng rng(4242);
    return sample(circuit, test_noise(), rng, opts);
  });
  auto nested = future.get();
  EXPECT_EQ(reference.histogram, nested.histogram);
}

TEST(SamplerEdge, ZeroShotsGiveEmptyHistogram) {
  qir::Circuit c(3);
  c.x(0).h(1);
  Rng rng(1);
  SampleOptions opts;
  opts.shots = 0;
  auto counts = sample(c, test_noise(), rng, opts);
  EXPECT_EQ(counts.shots, 0u);
  EXPECT_TRUE(counts.histogram.empty());
  EXPECT_TRUE(counts.distribution().empty());
}

TEST(SamplerEdge, ZeroShotsStillValidateMeasured) {
  qir::Circuit c(2);
  Rng rng(1);
  SampleOptions opts;
  opts.shots = 0;
  opts.measured = {5};
  EXPECT_THROW(sample(c, NoiseModel::ideal(), rng, opts), InvalidArgument);
}

TEST(SamplerEdge, EmptyCircuitSamplesAllZeros) {
  qir::Circuit c(3);  // no gates at all
  Rng rng(2);
  SampleOptions opts;
  opts.shots = 50;
  auto counts = sample(c, NoiseModel::ideal(), rng, opts);
  EXPECT_EQ(counts.count("000"), 50u);
}

TEST(SamplerFused, NoisyHistogramBitIdenticalFusedVsUnfused) {
  // Pin of `fuse` under gate noise on an EXACTLY fusible circuit: rows
  // where each qubit appears once (gangs of unmerged singles — the exact
  // per-amplitude arithmetic of the unfused stream), CCX passthroughs, and
  // lone CXs (the next gate is outside the pair, so no 4x4 matrix product
  // forms). With no inexact fusion anywhere, the fused ideal run that serves
  // the error-free shots is bit-identical to the unfused one, and errored
  // shots replay the unfused gate stream either way — so the histograms
  // must match EXACTLY, in both SIMD modes. An ideal run that drifted from
  // the unfused stream by even one ULP would flip threshold comparisons and
  // fail it.
  qir::Circuit c(4);
  c.h(0).h(1).h(2).h(3);
  c.barrier();  // fences the rows so no same-qubit 2x2 product forms
  c.ry(0.3, 0).ry(0.7, 1).ry(1.1, 2).ry(0.2, 3);
  c.ccx(0, 1, 3);
  c.cx(1, 2);
  c.t(0);  // outside {1, 2}: keeps the cx a lone passthrough
  c.barrier();
  c.rz(0.5, 3).rz(1.3, 0).rz(0.9, 1).rz(2.1, 2);
  c.ccx(2, 3, 0);
  c.cx(0, 3);
  c.s(1);  // outside {0, 3}

  NoiseModel noise;
  noise.p1 = 0.03;  // ~half the 1000 shots carry at least one injection
  noise.p2 = 0.06;
  noise.readout = 0.01;
  noise.name = "pin";

  std::vector<kernels::SimdMode> modes = {kernels::SimdMode::kScalar};
  if (kernels::avx2_available()) modes.push_back(kernels::SimdMode::kAvx2);
  const kernels::SimdMode saved = kernels::simd_mode();
  for (kernels::SimdMode mode : modes) {
    kernels::set_simd_mode(mode);
    SampleOptions fused_opts, unfused_opts;
    fused_opts.shots = unfused_opts.shots = 1000;
    fused_opts.fuse = true;
    unfused_opts.fuse = false;
    Rng rng_a(555), rng_b(555);
    auto fused = sample(c, noise, rng_a, fused_opts);
    auto unfused = sample(c, noise, rng_b, unfused_opts);
    EXPECT_EQ(fused.histogram, unfused.histogram)
        << kernels::simd_mode_name(mode);
  }
  kernels::set_simd_mode(saved);
}

TEST(SamplerEdge, ZeroQubitCircuit) {
  qir::Circuit c(0);
  Rng rng(3);
  SampleOptions opts;
  opts.shots = 10;
  auto counts = sample(c, NoiseModel::ideal(), rng, opts);
  // The only outcome of an empty register is the empty bitstring.
  EXPECT_EQ(counts.count(""), 10u);
  EXPECT_EQ(counts.shots, 10u);
}

}  // namespace
}  // namespace tetris::sim
