// Tests for the pluggable simulator backends (src/sim/backend/): the
// registry/factory, the two engines, and — the load-bearing property —
// the differential harness proving the stabilizer engine reproduces the
// statevector's sampled counts SHOT FOR SHOT on Clifford circuits. The
// equality is exact, not statistical: Clifford amplitudes stay on the
// +/-(1/sqrt(2))^d grid where every squared magnitude rounds to an exact
// power of two, so both engines map the same uniform draw to the same
// basis index (see backend/stabilizer.h).

#include "sim/backend/backend.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "compiler/compiler.h"
#include "compiler/target.h"
#include "revlib/benchmarks.h"
#include "runtime/thread_pool.h"
#include "service/service.h"
#include "sim/backend/stabilizer.h"
#include "sim/backend/statevector_backend.h"
#include "sim/sampler.h"
#include "sim/statevector.h"

namespace tetris::sim {
namespace {

constexpr double kHalfPi = 1.5707963267948966;

/// Random Clifford circuit over the FIXED-matrix Clifford gates (H, S, Sdg,
/// X, Y, Z, SX, SXdg, CX, CY, CZ, SWAP). Parametric quarter-turn gates are
/// deliberately excluded here: their statevector matrices go through libm
/// cos/sin, which is correct to <1 ulp but not guaranteed exactly on the
/// Clifford grid — the exact shot-for-shot harness needs the grid.
qir::Circuit random_clifford(int num_qubits, int num_gates, Rng& rng) {
  qir::Circuit c(num_qubits);
  for (int i = 0; i < num_gates; ++i) {
    const int a = static_cast<int>(rng.index(static_cast<std::size_t>(num_qubits)));
    const int b = num_qubits < 2
                      ? a
                      : (a + 1 +
                         static_cast<int>(rng.index(
                             static_cast<std::size_t>(num_qubits - 1)))) %
                            num_qubits;
    switch (rng.index(12)) {
      case 0: c.add(qir::make_h(a)); break;
      case 1: c.add(qir::make_s(a)); break;
      case 2: c.add(qir::make_sdg(a)); break;
      case 3: c.add(qir::make_x(a)); break;
      case 4: c.add(qir::make_y(a)); break;
      case 5: c.add(qir::make_z(a)); break;
      case 6: c.add(qir::make_sx(a)); break;
      case 7: c.add(qir::make_sxdg(a)); break;
      case 8: c.add(qir::make_cx(a, b)); break;
      case 9: c.add(qir::make_cy(a, b)); break;
      case 10: c.add(qir::make_cz(a, b)); break;
      default: c.add(qir::make_swap(a, b)); break;
    }
  }
  return c;
}

/// Noise-free histogram of `c` on engine `kind`, sampled serially through
/// sim::sample — the one shot loop every engine shares.
std::map<std::string, std::size_t> ideal_counts(
    const qir::Circuit& c, BackendKind kind, std::size_t shots, Rng& rng,
    std::vector<int> measured = {}) {
  SampleOptions opts;
  opts.shots = shots;
  opts.measured = std::move(measured);
  opts.threads = 1;
  opts.backend = kind;
  return sample(c, NoiseModel::ideal(), rng, opts).histogram;
}

// ----------------------------------------------------------- kinds/registry

TEST(BackendKind, NamesRoundTrip) {
  for (BackendKind k : {BackendKind::kAuto, BackendKind::kStateVector,
                        BackendKind::kStabilizer}) {
    EXPECT_EQ(parse_backend_kind(backend_kind_name(k)), k);
  }
  EXPECT_THROW(parse_backend_kind("chp"), InvalidArgument);
  EXPECT_THROW(parse_backend_kind(""), InvalidArgument);
  // The error lists every accepted name; "unitary" is not one of them.
  try {
    parse_backend_kind("unitary");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("auto, statevector, stabilizer"),
              std::string::npos)
        << e.what();
  }
}

TEST(BackendRegistry, ListsAllEnginesWithCapabilities) {
  const auto& infos = registered_backends();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(std::string(infos[0].name), "statevector");
  EXPECT_FALSE(infos[0].caps.clifford_only);
  EXPECT_TRUE(infos[0].caps.supports_noise);
  EXPECT_EQ(std::string(infos[1].name), "stabilizer");
  EXPECT_TRUE(infos[1].caps.clifford_only);
  EXPECT_TRUE(infos[1].caps.supports_noise);
  EXPECT_GE(infos[1].caps.max_qubits, 50);
}

TEST(BackendFactory, MakesEachKindAndRejectsAuto) {
  EXPECT_EQ(std::string(make_backend(BackendKind::kStateVector, 3)->name()),
            "statevector");
  EXPECT_EQ(std::string(make_backend(BackendKind::kStabilizer, 3)->name()),
            "stabilizer");
  EXPECT_THROW(make_backend(BackendKind::kAuto, 3), InvalidArgument);
}

TEST(BackendResolve, AutoPicksStabilizerOnlyForWideClifford) {
  qir::Circuit narrow_clifford(4);
  narrow_clifford.h(0).cx(0, 1);
  qir::Circuit wide_clifford(kAutoStateVectorCeilingQubits + 1);
  wide_clifford.x(0).cx(0, 1);
  qir::Circuit wide_nonclifford(kAutoStateVectorCeilingQubits + 1);
  wide_nonclifford.add(qir::make_t(0));

  EXPECT_EQ(resolve_backend(BackendKind::kAuto, narrow_clifford),
            BackendKind::kStateVector);
  EXPECT_EQ(resolve_backend(BackendKind::kAuto, wide_clifford),
            BackendKind::kStabilizer);
  EXPECT_EQ(resolve_backend(BackendKind::kAuto, wide_nonclifford),
            BackendKind::kStateVector);
  // Explicit kinds pass through untouched.
  EXPECT_EQ(resolve_backend(BackendKind::kStateVector, wide_clifford),
            BackendKind::kStateVector);
}

// ------------------------------------------------------- engine equivalence

TEST(StateVectorBackend, MatchesRawStateVector) {
  Rng gen(11);
  qir::Circuit c = random_clifford(5, 40, gen);
  StateVectorBackend backend(5);
  backend.apply(c);
  StateVector sv(5);
  sv.apply_circuit(c);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(backend.probability(i), std::norm(sv.amplitudes()[i]));
  }
  Rng a(7), b(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(backend.sample_index(a), sv.sample(b));
  }
}

// ----------------------------------------------------------- stabilizer core

TEST(Stabilizer, ZeroStateIsPointMass) {
  StabilizerBackend backend(6);
  backend.prepare();
  EXPECT_EQ(backend.support_dim(), 0);
  EXPECT_EQ(backend.probability(0), 1.0);
  EXPECT_EQ(backend.probability(5), 0.0);
  Rng rng(1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(backend.sample_index(rng), 0u);
}

TEST(Stabilizer, BellStateSupportAndDistribution) {
  StabilizerBackend backend(2);
  backend.apply_gate(qir::make_h(0));
  backend.apply_gate(qir::make_cx(0, 1));
  backend.prepare();
  EXPECT_EQ(backend.support_dim(), 1);
  EXPECT_EQ(backend.probability(0), 0.5);
  EXPECT_EQ(backend.probability(3), 0.5);
  EXPECT_EQ(backend.probability(1), 0.0);
  EXPECT_EQ(backend.probability(2), 0.0);
  auto dist = backend.distribution();
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_EQ(dist["00"], 0.5);
  EXPECT_EQ(dist["11"], 0.5);
}

TEST(Stabilizer, SignTrackingThroughPaulis) {
  // X then H gives |->: equal probabilities but a sign the sampler never
  // sees; X on |+> keeps |+>. Check with the parity-visible version: X(0)
  // alone flips the outcome bit.
  StabilizerBackend backend(3);
  backend.apply_gate(qir::make_x(1));
  backend.prepare();
  EXPECT_EQ(backend.probability(2), 1.0);
  Rng rng(5);
  EXPECT_EQ(backend.sample_index(rng), 2u);
  // apply_pauli is the sampler's noise-injection hook.
  backend.apply_pauli('X', 0);
  backend.apply_pauli('Z', 1);  // phase only: outcome unchanged
  EXPECT_EQ(backend.probability(3), 1.0);
}

TEST(Stabilizer, QuarterTurnRotationsAcceptedOffGridRejected) {
  StabilizerBackend backend(2);
  backend.apply_gate(qir::make_rz(kHalfPi, 0));        // S
  backend.apply_gate(qir::make_rx(2.0 * kHalfPi, 0));  // X up to phase
  backend.apply_gate(qir::make_ry(-kHalfPi, 1));
  backend.apply_gate(qir::make_p(3.0 * kHalfPi, 0));
  backend.apply_gate(qir::make_cp(2.0 * kHalfPi, 0, 1));  // CZ
  EXPECT_THROW(backend.apply_gate(qir::make_rz(0.3, 0)), UnsupportedGate);
  EXPECT_THROW(backend.apply_gate(qir::make_t(0)), UnsupportedGate);
  EXPECT_THROW(backend.apply_gate(qir::make_ccx(0, 1, 0)), UnsupportedGate);
}

TEST(Stabilizer, UnsupportedGateNamesGateAndIndex) {
  qir::Circuit c(2);
  c.h(0);
  c.add(qir::make_t(1));  // index 1: the offender
  c.cx(0, 1);
  StabilizerBackend backend(2);
  try {
    backend.apply(c);
    FAIL() << "expected UnsupportedGate";
  } catch (const UnsupportedGate& e) {
    EXPECT_EQ(e.backend(), "stabilizer");
    EXPECT_EQ(e.gate_index(), 1u);
    EXPECT_NE(e.gate().find('t'), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("at index 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("stabilizer"), std::string::npos);
  }
}

TEST(Stabilizer, WideRegisterSampling) {
  // 50 qubits: far past the statevector wall. X(0) + CX staircase gives a
  // deterministic all-ones outcome.
  const int n = 50;
  qir::Circuit c(n);
  c.x(0);
  for (int q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  StabilizerBackend backend(n);
  backend.apply(c);
  backend.prepare();
  EXPECT_EQ(backend.support_dim(), 0);
  const std::uint64_t all_ones = (std::uint64_t{1} << n) - 1;
  EXPECT_EQ(backend.probability(static_cast<std::size_t>(all_ones)), 1.0);
  Rng rng(9);
  auto counts =
      ideal_counts(c, BackendKind::kStabilizer, 100, rng, {0, 25, 49});
  EXPECT_EQ(counts["111"], 100u);
}

// ------------------------------------------------- the differential harness

TEST(BackendDifferential, CliffordCountsMatchStateVectorShotForShot) {
  // Random Clifford circuits at 4..16 qubits (3 seeds, 500 shots) and at
  // the auto policy's statevector ceiling (1 seed, 64 shots); the stabilizer
  // histogram must equal the statevector histogram EXACTLY under the same
  // stream seeds — same keys, same counts, shot for shot.
  for (int num_qubits :
       {4, 6, 8, 10, 12, 14, 16, kAutoStateVectorCeilingQubits}) {
    const bool widest = num_qubits == kAutoStateVectorCeilingQubits;
    const std::uint64_t seeds = widest ? 1 : 3;
    const std::size_t shots = widest ? 64 : 500;
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
      Rng gen(1000 * static_cast<std::uint64_t>(num_qubits) + seed);
      qir::Circuit c = random_clifford(num_qubits, 8 * num_qubits, gen);

      Rng rng_sv(77 + seed), rng_stab(77 + seed);
      EXPECT_EQ(ideal_counts(c, BackendKind::kStateVector, shots, rng_sv),
                ideal_counts(c, BackendKind::kStabilizer, shots, rng_stab))
          << "divergence at " << num_qubits << " qubits, seed " << seed;
      // Both engines must also leave the caller's generator in the same
      // state (exactly one u64 consumed each).
      EXPECT_EQ(rng_sv.next_u64(), rng_stab.next_u64());
      if (widest) continue;  // counts only: the dense run dominates at 2^20

      StateVectorBackend sv(num_qubits);
      sv.apply(c);
      StabilizerBackend stab(num_qubits);
      stab.apply(c);

      // The measured marginal agrees to the last ulp. (Not bit-equal: the
      // statevector's marginal sums accumulate norms that can sit an ulp
      // off the exact 2^-k, while the stabilizer emits the exact power of
      // two — the counts above still match because a 1-ulp CDF offset only
      // moves draws on ~1e-16-wide boundary slivers, and none of the
      // pinned-seed draws land there.)
      std::vector<int> half;
      for (int q = 0; q < num_qubits; q += 2) half.push_back(q);
      const auto dist_sv = sv.distribution(half);
      const auto dist_stab = stab.distribution(half);
      ASSERT_EQ(dist_sv.size(), dist_stab.size());
      for (const auto& [key, p] : dist_stab) {
        auto it = dist_sv.find(key);
        ASSERT_NE(it, dist_sv.end()) << "missing key " << key;
        EXPECT_NEAR(it->second, p, 1e-12) << "key " << key;
      }
    }
  }
}

TEST(BackendDifferential, NoisyTrajectoriesMatchThroughSampler) {
  // Pauli injections are Clifford conjugations, so even errored shots must
  // agree exactly between the engines when driven by sim::sample.
  Rng gen(21);
  qir::Circuit c = random_clifford(6, 40, gen);
  NoiseModel noise;
  noise.p1 = 0.02;
  noise.p2 = 0.05;
  noise.readout = 0.01;

  SampleOptions opts;
  opts.shots = 400;
  opts.threads = 1;
  opts.backend = BackendKind::kStateVector;
  Rng rng_a(5);
  auto counts_sv = sample(c, noise, rng_a, opts);

  opts.backend = BackendKind::kStabilizer;
  Rng rng_b(5);
  auto counts_stab = sample(c, noise, rng_b, opts);

  EXPECT_EQ(counts_sv.histogram, counts_stab.histogram);
  EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
}

TEST(BackendDifferential, SamplerThreadInvarianceOnStabilizer) {
  // PR 3's determinism contract, extended to the new engine: identical
  // counts at 1, 2, and 8 workers, and exactly one u64 drawn from the
  // caller's generator whatever shots/threads are.
  Rng gen(33);
  qir::Circuit c = random_clifford(8, 60, gen);
  NoiseModel noise;
  noise.p1 = 0.01;

  auto run = [&](unsigned threads, std::size_t shots) {
    runtime::ThreadPool pool(threads);
    SampleOptions opts;
    opts.shots = shots;
    opts.threads = threads;
    opts.shots_per_chunk = 32;
    opts.backend = BackendKind::kStabilizer;
    Rng rng(123);
    auto counts =
        pool.submit([&] { return sample(c, noise, rng, opts); }).get();
    return std::make_pair(counts.histogram, rng.next_u64());
  };

  const auto serial = run(1, 600);
  EXPECT_EQ(run(2, 600), serial);
  EXPECT_EQ(run(8, 600), serial);

  // One u64 even at zero shots: the generator advance is shot-independent.
  runtime::ThreadPool pool(2);
  SampleOptions opts;
  opts.shots = 0;
  opts.backend = BackendKind::kStabilizer;
  Rng rng(123);
  pool.submit([&] { sample(c, noise, rng, opts); }).get();
  EXPECT_EQ(rng.next_u64(), serial.second);
}

TEST(BackendDifferential, CompiledCliffordCircuitStaysClifford) {
  // The compiler's {X, SX, RZ, CX} output of a Clifford source stays on the
  // quarter-turn lattice, so flow-level auto-resolution (made on the source
  // circuit) remains valid for the compiled views it actually samples.
  Rng gen(8);
  qir::Circuit c = random_clifford(5, 25, gen);
  ASSERT_TRUE(c.is_clifford());
  compiler::CompileOptions options{compiler::device_for(5).target,
                                   compiler::LayoutStrategy::GreedyDegree,
                                   /*run_optimizer=*/true, std::nullopt};
  compiler::Compiler compiler(options);
  auto compiled = compiler.compile(c);
  EXPECT_TRUE(compiled.circuit.is_clifford());

  // And the two engines still agree exactly on the compiled circuit's
  // fixed-matrix subset? RZ matrices go through libm, so compiled circuits
  // are NOT part of the exact harness — sanity-check distributions within
  // tolerance instead.
  StateVectorBackend sv(compiled.circuit.num_qubits());
  sv.apply(compiled.circuit);
  StabilizerBackend stab(compiled.circuit.num_qubits());
  stab.apply(compiled.circuit);
  auto dist_sv = sv.distribution();
  auto dist_stab = stab.distribution();
  for (const auto& [key, p] : dist_stab) {
    EXPECT_NEAR(dist_sv[key], p, 1e-9) << "key " << key;
  }
}

// ---------------------------------------------------------- unsupported gates

TEST(BackendSampler, ExplicitStabilizerOnNonCliffordFailsStructured) {
  qir::Circuit c(2);
  c.h(0);
  c.add(qir::make_t(0));
  SampleOptions opts;
  opts.shots = 10;
  opts.backend = BackendKind::kStabilizer;
  Rng rng(1);
  EXPECT_THROW(sample(c, NoiseModel::ideal(), rng, opts), UnsupportedGate);
}

// ------------------------------------------------------ service fingerprint

TEST(BackendFingerprint, MixedOnlyWhenResolvedOffDefault) {
  qir::Circuit c(4, "fp");
  c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
  lock::FlowJob job = lock::make_flow_job("fp", c);

  job.config.backend = BackendKind::kAuto;
  const std::uint64_t fp_auto = service::flow_fingerprint(job);
  job.config.backend = BackendKind::kStateVector;
  const std::uint64_t fp_sv = service::flow_fingerprint(job);
  job.config.backend = BackendKind::kStabilizer;
  const std::uint64_t fp_stab = service::flow_fingerprint(job);

  // auto resolves to the statevector on this narrow circuit: all default
  // spellings share the pre-backend fingerprint.
  EXPECT_EQ(fp_auto, fp_sv);
  EXPECT_NE(fp_stab, fp_sv);

  // On a wide Clifford circuit auto resolves to the stabilizer, and the
  // fingerprint follows the resolution, not the spelling.
  const auto& cliff = revlib::get_benchmark("cliff50");
  lock::FlowJob wide = lock::make_flow_job("cliff50", cliff.circuit,
                                           cliff.measured);
  wide.config.backend = BackendKind::kAuto;
  const std::uint64_t wide_auto = service::flow_fingerprint(wide);
  wide.config.backend = BackendKind::kStabilizer;
  EXPECT_EQ(service::flow_fingerprint(wide), wide_auto);
  wide.config.backend = BackendKind::kStateVector;
  EXPECT_NE(service::flow_fingerprint(wide), wide_auto);
}

// ------------------------------------------------------- the 50-qubit flow

TEST(BackendFlow, Cliff50BenchmarkIsSyntheticCliffordClassical) {
  const auto& b = revlib::get_benchmark("cliff50");
  EXPECT_EQ(b.circuit.num_qubits(), 50);
  EXPECT_TRUE(b.circuit.is_clifford());
  EXPECT_TRUE(b.circuit.is_classical());
  EXPECT_EQ(static_cast<int>(b.circuit.gate_count()), b.expected_gates);
  EXPECT_EQ(b.circuit.depth(), b.expected_depth);
  // benchmark_names() stays Table-I only: the parametrized paper-metric
  // suites must not pick up the synthetic scale circuit.
  for (const auto& name : revlib::benchmark_names()) {
    EXPECT_NE(name, "cliff50");
  }
  ASSERT_EQ(revlib::synthetic_benchmarks().size(), 1u);
  EXPECT_EQ(revlib::synthetic_benchmarks()[0].name, "cliff50");
}

TEST(BackendFlow, FiftyQubitLockedCliffordFlowEndToEnd) {
  // The tentpole acceptance: a 50-qubit Clifford circuit completes the full
  // protect flow — obfuscate, split, split-compile, recombine, noisy
  // verification — on the stabilizer engine.
  const auto& b = revlib::get_benchmark("cliff50");
  lock::FlowConfig config;
  config.shots = 64;
  config.backend = BackendKind::kAuto;  // resolves to the stabilizer at 50q
  config.insertion.alphabet = lock::InsertionAlphabet::Mixed;
  Rng rng(2025);
  lock::FlowResult result = lock::run_flow(
      b.circuit, b.measured,
      compiler::device_for(b.circuit.num_qubits()).target, config, rng);
  EXPECT_EQ(result.depth_obfuscated, result.depth_original);
  EXPECT_GT(result.gates_obfuscated, result.gates_original);
  // The restored circuit beats the masked one by construction; with the
  // valencia noise band the recombined accuracy stays well above zero.
  EXPECT_GT(result.accuracy_restored, 0.0);
  EXPECT_GE(result.tvd_obfuscated, result.tvd_restored);
}

}  // namespace
}  // namespace tetris::sim
