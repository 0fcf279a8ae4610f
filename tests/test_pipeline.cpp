#include "lock/pipeline.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "qir/library.h"
#include "revlib/benchmarks.h"
#include "service/serialize.h"
#include "sim/kernels/simd.h"

namespace tetris::lock {
namespace {

FlowResult run_on(const std::string& name, const compiler::Target& target,
                  std::uint64_t seed, std::size_t shots = 400) {
  const auto& b = revlib::get_benchmark(name);
  FlowConfig cfg;
  cfg.shots = shots;
  Rng rng(seed);
  return run_flow(b.circuit, b.measured, target, cfg, rng);
}

TEST(Pipeline, IdealBackendGivesPerfectRestoration) {
  auto target = compiler::device_for(5).target;
  target.noise = sim::NoiseModel::ideal();
  auto r = run_on("4mod5", target, 3);
  EXPECT_DOUBLE_EQ(r.accuracy_original, 1.0);
  EXPECT_DOUBLE_EQ(r.accuracy_restored, 1.0);
  EXPECT_DOUBLE_EQ(r.tvd_restored, 0.0);
}

TEST(Pipeline, ObfuscatedOutputDiffersEvenIdeally) {
  auto target = compiler::device_for(7).target;
  target.noise = sim::NoiseModel::ideal();
  auto r = run_on("rd53", target, 5);
  ASSERT_GE(r.obf.random.size(), 1u);
  EXPECT_GT(r.tvd_obfuscated, 0.3);
}

TEST(Pipeline, DepthNeverIncreases) {
  for (const auto& name : revlib::benchmark_names()) {
    auto target = compiler::device_for(
        revlib::get_benchmark(name).circuit.num_qubits()).target;
    target.noise = sim::NoiseModel::ideal();
    auto r = run_on(name, target, 11, 64);
    EXPECT_EQ(r.depth_obfuscated, r.depth_original) << name;
  }
}

TEST(Pipeline, GateOverheadWithinPaperBand) {
  auto target = compiler::device_for(5).target;
  target.noise = sim::NoiseModel::ideal();
  auto r = run_on("4mod5", target, 17, 64);
  std::size_t inserted = r.gates_obfuscated - r.gates_original;
  EXPECT_LE(inserted, 4u);
}

TEST(Pipeline, NoisyBackendKeepsRestoredAccuracyHigh) {
  auto target = compiler::device_for(5).target;  // fake_valencia noise
  auto r = run_on("1bit_adder", target, 23, 1000);
  EXPECT_GT(r.accuracy_restored, 0.8);
  EXPECT_GT(r.accuracy_original, 0.8);
  // Restoration penalty stays small (paper: < ~1%; we allow sampling slack).
  EXPECT_LT(r.accuracy_original - r.accuracy_restored, 0.1);
  // Restored TVD is near the noise floor, far below the obfuscated TVD.
  EXPECT_LT(r.tvd_restored, 0.3);
}

TEST(Pipeline, ObfuscatedTvdExceedsRestoredTvd) {
  auto target = compiler::device_for(7).target;
  auto r = run_on("rd53", target, 29, 600);
  ASSERT_GE(r.obf.random.size(), 1u);
  EXPECT_GT(r.tvd_obfuscated, r.tvd_restored);
}

TEST(Pipeline, ResultCarriesArtifacts) {
  auto target = compiler::device_for(5).target;
  target.noise = sim::NoiseModel::ideal();
  auto r = run_on("4gt13", target, 31, 64);
  EXPECT_EQ(r.obf.original.gate_count(), 4u);
  EXPECT_FALSE(r.splits.second.gate_indices.empty());
  EXPECT_EQ(r.recombined.circuit.num_qubits(), target.num_qubits());
  EXPECT_EQ(r.baseline.circuit.num_qubits(), target.num_qubits());
}

TEST(Pipeline, DeterministicForFixedSeed) {
  auto target = compiler::device_for(5).target;
  auto a = run_on("4mod5", target, 101, 200);
  auto b = run_on("4mod5", target, 101, 200);
  EXPECT_EQ(a.tvd_obfuscated, b.tvd_obfuscated);
  EXPECT_EQ(a.accuracy_restored, b.accuracy_restored);
  EXPECT_TRUE(a.obf.circuit == b.obf.circuit);
}

// The kernel mode never changes a byte of a job: each flow, run with one
// seed under forced scalar and forced AVX2 kernels, serializes to the same
// document. The random_universal flows are the sensitive ones: an FMA in the
// AVX2 complex multiply changes both of their documents.
TEST(Pipeline, JobBytesEqualAcrossSimdModes) {
  using sim::kernels::SimdMode;
  if (!sim::kernels::avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  FlowConfig unfused;
  unfused.shots = 16;
  FlowConfig fused = unfused;
  fused.fusion = true;
  Rng gen(7);
  const qir::Circuit univ10 = qir::library::random_universal(10, 120, gen);
  const auto& rd84 = revlib::get_benchmark("rd84");
  const std::vector<FlowJob> jobs = {
      make_flow_job("univ10", univ10, {}, unfused),
      make_flow_job("univ10 fused", univ10, {}, fused),
      make_flow_job("rd84 fused", rd84.circuit, rd84.measured, fused),
      make_flow_job("adder6 fused", qir::library::ripple_carry_adder(6), {},
                    fused),
  };
  const SimdMode saved = sim::kernels::simd_mode();
  for (const FlowJob& job : jobs) {
    const auto document = [&job](SimdMode mode) {
      sim::kernels::set_simd_mode(mode);
      Rng rng(2025);
      return service::to_json(
          run_flow(job.circuit, job.measured, job.target, job.config, rng));
    };
    EXPECT_TRUE(document(SimdMode::kScalar) == document(SimdMode::kAvx2))
        << job.name;
  }
  sim::kernels::set_simd_mode(saved);
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

// Golden flow metrics: the exact bits of the sampled metrics of three flows
// at seed 2025 and 1000 shots on their default targets (4mod5 on
// fake_valencia, rd84 on a 12-qubit ring, cliff50 on the stabilizer
// engine), recorded from a build whose engine and draws were libstdc++'s
// `std::mt19937_64` and distributions. Any change to a draw, to the order
// of draws or to the arithmetic that consumes them moves at least one of
// these bits.
TEST(Pipeline, GoldenFlowMetricBits) {
  struct Golden {
    const char* name;
    std::uint64_t tvd_obfuscated, tvd_restored, accuracy_original,
        accuracy_restored;
  };
  const Golden goldens[] = {
      {"4mod5", 0x3fef6c8b43958106ULL, 0x3f9374bc6a7ef9deULL,
       0x3fef9db22d0e5604ULL, 0x3fef645a1cac0831ULL},
      {"rd84", 0x3fefa5e353f7ced9ULL, 0x3fb2b020c49ba5e2ULL,
       0x3fee24dd2f1a9fbeULL, 0x3feda9fbe76c8b44ULL},
      {"cliff50", 0x3fee978d4fdf3b64ULL, 0x3fb47ae147ae1479ULL,
       0x3feef9db22d0e560ULL, 0x3fed70a3d70a3d71ULL},
  };
  for (const Golden& g : goldens) {
    const auto& b = revlib::get_benchmark(g.name);
    FlowConfig cfg;
    cfg.shots = 1000;
    const FlowJob job = make_flow_job(b.name, b.circuit, b.measured, cfg);
    Rng rng(2025);
    const FlowResult r =
        run_flow(job.circuit, job.measured, job.target, job.config, rng);
    EXPECT_EQ(bits_of(r.tvd_obfuscated), g.tvd_obfuscated) << g.name;
    EXPECT_EQ(bits_of(r.tvd_restored), g.tvd_restored) << g.name;
    EXPECT_EQ(bits_of(r.accuracy_original), g.accuracy_original) << g.name;
    EXPECT_EQ(bits_of(r.accuracy_restored), g.accuracy_restored) << g.name;
  }
}

}  // namespace
}  // namespace tetris::lock
