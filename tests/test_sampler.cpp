#include "sim/sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/error.h"
#include "qir/library.h"
#include "runtime/thread_pool.h"
#include "sim/backend/statevector_backend.h"
#include "sim/fusion.h"
#include "sim/kernels/simd.h"
#include "sim/statevector.h"

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
  // Pin of `fuse` under gate noise on circuits where no qubit holds two
  // gates of one single-qubit window, so the plan merges nothing: rows where
  // each qubit appears once, CCX passthroughs, lone CXs, and pair windows
  // (a CX followed by rotations on its wires, CX-CX on one pair) that keep
  // their subspace kernels. The fused ideal run that serves the error-free
  // shots is then bit-identical to the unfused one, and errored shots
  // replay the unfused gate stream either way — so the histograms must
  // match EXACTLY, in both SIMD modes. An ideal run that drifted from the
  // unfused stream by even one ULP would flip threshold comparisons and
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

  qir::Circuit pairs(4);
  pairs.h(0).h(1).h(2).h(3);
  pairs.cx(0, 1).rx(0.4, 0).ry(0.9, 1);
  pairs.cx(2, 3).cx(3, 2).sx(3).rz(0.6, 2);
  pairs.cx(1, 2).h(1).ry(1.3, 2).t(0);
  pairs.cx(0, 3).cz(0, 3).rx(2.2, 0);

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
    for (const qir::Circuit* circuit : {&c, &pairs}) {
      SampleOptions fused_opts, unfused_opts;
      fused_opts.shots = unfused_opts.shots = 1000;
      fused_opts.fuse = true;
      unfused_opts.fuse = false;
      Rng rng_a(555), rng_b(555);
      auto fused = sample(*circuit, noise, rng_a, fused_opts);
      auto unfused = sample(*circuit, noise, rng_b, unfused_opts);
      EXPECT_EQ(fused.histogram, unfused.histogram)
          << kernels::simd_mode_name(mode) << (circuit == &pairs ? " pairs" : "");
    }
  }
  kernels::set_simd_mode(saved);
}

// ------------------------------------------------ independent shot loop

/// What the reference shot loop produced for both settings of `fuse`, plus
/// where its gate errors fell, so a test can show which replay starts it
/// exercised.
struct ReferenceRun {
  Counts unfused;
  Counts fused;
  std::set<std::size_t> first_errors;  ///< first error site per errored shot
  std::set<std::size_t> error_sites;   ///< every error site of every shot
};

/// The per-shot contract of `sample` written out directly, with no
/// checkpoints, sharding, thresholds or engine layer: one base draw, and
/// shot i on Rng::for_stream(base, i); a Rng::bernoulli trial per gate
/// whose rate is > 0, in gate order (barriers, p <= 0 and NaN draw
/// nothing, and p >= 1 errs without a draw); an errored shot replays every
/// gate from |0...0>, injecting a uniform non-identity Pauli string after
/// each error site; one uniform for the outcome, drawn from the ideal state
/// (apply_circuit, or apply_fused when fused) if no gate erred; then,
/// unless readout <= 0, one readout flip trial per qubit (a NaN rate draws
/// and never flips). All qubits are measured. Errored shots do not depend
/// on `fuse`, so one pass serves both.
ReferenceRun reference_sample(const qir::Circuit& c, const NoiseModel& noise,
                              std::uint64_t seed, std::size_t shots) {
  const int n = c.num_qubits();
  const auto& gates = c.gates();
  StateVector unfused_ideal(n), fused_ideal(n), sv(n);
  unfused_ideal.apply_circuit(c);
  fused_ideal.apply_fused(FusionPlan::build(c));
  const auto record = [&](std::size_t raw, Rng r, Counts& out) {
    if (!(noise.readout <= 0.0)) {
      for (int q = 0; q < n; ++q) {
        if (r.bernoulli(noise.readout)) raw ^= std::size_t{1} << q;
      }
    }
    ++out.histogram[bitstring(raw, n)];
  };
  Rng rng(seed);
  const std::uint64_t base = rng.next_u64();
  ReferenceRun run;
  run.unfused.shots = run.fused.shots = shots;
  for (std::size_t shot = 0; shot < shots; ++shot) {
    Rng r = Rng::for_stream(base, shot);
    std::vector<std::size_t> sites;
    for (std::size_t i = 0; i < gates.size(); ++i) {
      if (gates[i].kind == qir::GateKind::Barrier) continue;
      const double p = gates[i].num_qubits() >= 2 ? noise.p2 : noise.p1;
      if (p > 0.0 && r.bernoulli(p)) sites.push_back(i);
    }
    if (sites.empty()) {
      Rng r_fused = r;
      const std::size_t raw = unfused_ideal.sample(r);
      record(raw, r, run.unfused);
      const std::size_t raw_fused = fused_ideal.sample(r_fused);
      record(raw_fused, r_fused, run.fused);
      continue;
    }
    run.first_errors.insert(sites.front());
    sv.reset();
    std::size_t next = 0;
    for (std::size_t i = 0; i < gates.size(); ++i) {
      sv.apply_gate(gates[i]);
      if (next < sites.size() && sites[next] == i) {
        run.error_sites.insert(i);
        const std::vector<int>& qubits = gates[i].qubits;
        std::size_t code =
            1 + r.index((std::size_t{1} << (2 * qubits.size())) - 1);
        for (int q : qubits) {
          sv.apply_pauli("IXYZ"[code & 3], q);
          code >>= 2;
        }
        ++next;
      }
    }
    const std::size_t raw = sv.sample(r);
    record(raw, r, run.unfused);
    record(raw, r, run.fused);
  }
  return run;
}

/// `sample` with `fuse` off and on, at 1 and 4 workers (chunks of 16
/// shots, so 4 workers really share the checkpoints), must give the
/// reference's counts exactly.
void expect_matches_reference(const qir::Circuit& c, const NoiseModel& noise,
                              std::size_t shots,
                              const ReferenceRun& reference) {
  for (bool fuse : {false, true}) {
    for (unsigned threads : {1u, 4u}) {
      runtime::ThreadPool pool(threads);
      SampleOptions opts;
      opts.shots = shots;
      opts.threads = threads;
      opts.pool = &pool;
      opts.shots_per_chunk = 16;
      opts.fuse = fuse;
      Rng rng(77);
      const Counts counts = sample(c, noise, rng, opts);
      const Counts& expected = fuse ? reference.fused : reference.unfused;
      EXPECT_EQ(counts.shots, expected.shots);
      EXPECT_EQ(counts.histogram, expected.histogram)
          << c.num_qubits() << " qubits, fuse=" << fuse
          << ", threads=" << threads;
    }
  }
}

TEST(SamplerReference, CountsEqualIndependentShotLoop) {
  NoiseModel noise;
  noise.p1 = 0.01;
  noise.p2 = 0.04;
  noise.readout = 0.02;
  for (int n : {3, 7, 10}) {
    Rng crng(static_cast<std::uint64_t>(n));
    qir::Circuit c = qir::library::random_universal(n, 4 * n, crng);
    c.barrier().ccx(0, 1, 2);
    c.append(qir::library::random_universal(n, 4 * n, crng));
    const ReferenceRun reference = reference_sample(c, noise, 77, 300);
    EXPECT_GT(reference.first_errors.size(), 10u) << n << " qubits";
    expect_matches_reference(c, noise, 300, reference);
  }
}

TEST(SamplerReference, FourteenQubitsUnderTheSnapshotBudget) {
  // 96 gates on 14 qubits: a 256 KiB register leaves room for 8 snapshots
  // in the 2 MiB budget, so they sit 11 gates apart, not ceil(sqrt(96)) =
  // 10 (which would need 9).
  constexpr int kQubits = 14;
  constexpr std::size_t kGates = 96;
  const std::size_t budget = (std::size_t{2} << 20) / (sizeof(cplx) << kQubits);
  const auto spacing = std::max<std::size_t>(
      static_cast<std::size_t>(std::ceil(std::sqrt(double{kGates}))),
      (kGates + budget) / (budget + 1));
  ASSERT_EQ(spacing, 11u);

  // Only two-qubit gates may err (p1 = 0). They sit on gate 0, on every
  // snapshot index, midway between snapshots and on the last gate; RY
  // layers make the amplitudes uneven, so a wrong replay start shows in
  // the sampled outcomes. The rest are cheap diagonal RZs, which keeps the
  // 14-qubit replays affordable under the sanitizers.
  qir::Circuit c(kQubits);
  Rng crng(19);
  for (std::size_t i = 0; i < kGates; ++i) {
    const int q = static_cast<int>(i % kQubits);
    const int t = (q + 5) % kQubits;
    if (i % spacing == 0 || i % spacing == 5 || i + 1 == kGates) {
      switch (i % 3) {
        case 0: c.cx(q, t); break;
        case 1: c.cz(q, t); break;
        default: c.add(qir::make_cp(crng.uniform() * 3.0, q, t)); break;
      }
    } else if (i < 16 || i % spacing == 8) {
      c.ry(crng.uniform() * 3.0, q);
    } else {
      c.rz(crng.uniform() * 3.0, q);
    }
  }
  NoiseModel noise;
  noise.p1 = 0.0;
  noise.p2 = 0.035;
  noise.readout = 0.01;
  constexpr std::size_t kShots = 128;
  const ReferenceRun reference = reference_sample(c, noise, 77, kShots);
  // The draws put a first error on gate 0 (replay from |0...0>), on a
  // snapshot index (the replay starts on the erring gate) and past the
  // last snapshot, and some error on the last gate.
  EXPECT_EQ(reference.first_errors.count(0), 1u);
  EXPECT_TRUE(std::any_of(
      reference.first_errors.begin(), reference.first_errors.end(),
      [&](std::size_t e) { return e > 0 && e % spacing == 0; }));
  EXPECT_GE(*reference.first_errors.rbegin(), 8 * spacing);
  EXPECT_EQ(reference.error_sites.count(kGates - 1), 1u);
  expect_matches_reference(c, noise, kShots, reference);
}

TEST(SamplerReference, DrawsAtTheEdgesOfTheRates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Rates {
    double p1, p2, readout;
    const char* what;
  };
  const Rates cases[] = {
      {-0.5, 0.04, 0.02, "p1 < 0 draws nothing"},
      {0.0, 0.04, 0.0, "p1 = 0 and readout = 0 draw nothing"},
      {0.01, 1.0, 0.02, "p2 = 1 errs without a draw"},
      {1.5, 0.0, 0.02, "p1 > 1 errs without a draw"},
      {nan, 0.04, 0.02, "a NaN gate rate draws nothing"},
      {0.01, 0.04, nan, "a NaN readout draws and never flips"},
      {0.01, 0.04, 1.0, "readout 1 flips every bit without a draw"},
  };
  Rng crng(11);
  qir::Circuit c = qir::library::random_universal(5, 16, crng);
  c.barrier();
  c.append(qir::library::random_universal(5, 16, crng));
  for (const Rates& rates : cases) {
    SCOPED_TRACE(rates.what);
    NoiseModel noise;
    noise.p1 = rates.p1;
    noise.p2 = rates.p2;
    noise.readout = rates.readout;
    const ReferenceRun reference = reference_sample(c, noise, 77, 200);
    expect_matches_reference(c, noise, 200, reference);
  }
}

TEST(SamplerOutcome, PreparedBlockDrawEqualsTheScan) {
  // StateVectorBackend::prepare's block sums and binary search must return
  // StateVector::sample's index for the same draw: on random states, on
  // states with whole zero-probability blocks (a qubit projected onto |0>
  // or |1>), and on states scaled to a total of 0.6, where 40% of the draws
  // pass the accumulated total and take the scan's last-index tail.
  const cplx zero(0.0, 0.0), one(1.0, 0.0), scale(std::sqrt(0.6), 0.0);
  const cplx keep0[2][2] = {{one, zero}, {zero, zero}};
  const cplx keep1[2][2] = {{zero, zero}, {zero, one}};
  const cplx shrink[2][2] = {{scale, zero}, {zero, scale}};
  for (int n = 0; n <= 14; ++n) {
    Rng crng(static_cast<std::uint64_t>(100 + n));
    qir::Circuit c(n);
    for (int layer = 0; layer < 2; ++layer) {
      for (int q = 0; q < n; ++q) c.ry(crng.uniform() * 3.0, q);
      for (int q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
    }
    for (int variant = 0; variant < 4; ++variant) {
      StateVector sv(n);
      sv.apply_circuit(c);
      if (n > 0 && variant == 1) sv.apply_matrix(keep0, std::min(n - 1, 6));
      if (n > 0 && variant == 2) sv.apply_matrix(keep1, n - 1);
      if (n > 0 && variant == 3) sv.apply_matrix(shrink, 0);
      StateVectorBackend prepared(n);
      prepared.state() = sv;
      prepared.prepare();
      Rng a(static_cast<std::uint64_t>(n * 4 + variant));
      Rng b = a;
      for (int draw = 0; draw < 3000; ++draw) {
        ASSERT_EQ(prepared.sample_index(a), sv.sample(b))
            << n << " qubits, variant " << variant << ", draw " << draw;
      }
    }
  }
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
