#include "sim/estimate.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "compiler/compiler.h"
#include "compiler/target.h"
#include "metrics/metrics.h"
#include "revlib/benchmarks.h"
#include "sim/sampler.h"

namespace tetris::sim {
namespace {

TEST(Estimate, IdealNoiseGivesOne) {
  qir::Circuit c(3);
  c.x(0).cx(0, 1).ccx(0, 1, 2);
  auto e = estimate_accuracy(c, NoiseModel::ideal(), 3);
  EXPECT_DOUBLE_EQ(e.estimate, 1.0);
  EXPECT_DOUBLE_EQ(e.p_no_gate_error, 1.0);
  EXPECT_DOUBLE_EQ(e.expected_gate_errors, 0.0);
}

TEST(Estimate, HandComputedCase) {
  qir::Circuit c(2);
  c.x(0).cx(0, 1);  // one 1q, one 2q gate
  NoiseModel nm;
  nm.p1 = 0.1;
  nm.p2 = 0.2;
  nm.readout = 0.5;
  auto e = estimate_accuracy(c, nm, 1, /*error_miss_rate=*/1.0);
  EXPECT_NEAR(e.p_no_gate_error, 0.9 * 0.8, 1e-12);
  EXPECT_NEAR(e.p_clean_readout, 0.5, 1e-12);
  EXPECT_NEAR(e.estimate, 0.9 * 0.8 * 0.5, 1e-12);
  EXPECT_NEAR(e.expected_gate_errors, 0.3, 1e-12);
}

TEST(Estimate, MonotoneInNoise) {
  qir::Circuit c(2);
  for (int i = 0; i < 10; ++i) c.cx(0, 1);
  double prev = 1.1;
  for (double scale : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    auto nm = NoiseModel::fake_valencia().scaled(scale);
    double est = estimate_accuracy(c, nm, 2).estimate;
    EXPECT_LT(est, prev);
    prev = est;
  }
}

TEST(Estimate, Validation) {
  qir::Circuit c(1);
  EXPECT_THROW(estimate_accuracy(c, NoiseModel::ideal(), -1), InvalidArgument);
  EXPECT_THROW(estimate_accuracy(c, NoiseModel::ideal(), 1, 1.5),
               InvalidArgument);
}

TEST(ShotSizing, StandardErrorMatchesBinomialFormula) {
  EXPECT_NEAR(accuracy_standard_error(0.5, 1000),
              std::sqrt(0.25 / 1000.0), 1e-15);
  EXPECT_NEAR(accuracy_standard_error(0.9, 4000),
              std::sqrt(0.09 / 4000.0), 1e-15);
  // Degenerate accuracies have no sampling variance at all.
  EXPECT_DOUBLE_EQ(accuracy_standard_error(0.0, 100), 0.0);
  EXPECT_DOUBLE_EQ(accuracy_standard_error(1.0, 100), 0.0);
  // Quadrupling the shots halves the error bar.
  EXPECT_NEAR(accuracy_standard_error(0.7, 4000),
              accuracy_standard_error(0.7, 1000) / 2.0, 1e-15);
}

TEST(ShotSizing, ShotsForTargetInvertsTheFormula) {
  EXPECT_EQ(shots_for_standard_error(0.5, 0.01), 2500u);
  EXPECT_EQ(shots_for_standard_error(0.5, 0.5), 1u);
  // Round-trip: the returned count actually achieves the target.
  for (double accuracy : {0.3, 0.5, 0.95}) {
    for (double target : {0.02, 0.005}) {
      std::size_t shots = shots_for_standard_error(accuracy, target);
      EXPECT_LE(accuracy_standard_error(accuracy, shots), target);
      // ...and it is minimal: one shot fewer misses it (unless already 1).
      if (shots > 1) {
        EXPECT_GT(accuracy_standard_error(accuracy, shots - 1), target);
      }
    }
  }
}

TEST(ShotSizing, Validation) {
  EXPECT_THROW(accuracy_standard_error(-0.1, 100), InvalidArgument);
  EXPECT_THROW(accuracy_standard_error(1.1, 100), InvalidArgument);
  EXPECT_THROW(accuracy_standard_error(0.5, 0), InvalidArgument);
  EXPECT_THROW(shots_for_standard_error(2.0, 0.1), InvalidArgument);
  EXPECT_THROW(shots_for_standard_error(0.5, 0.0), InvalidArgument);
  EXPECT_THROW(shots_for_standard_error(0.5, -1.0), InvalidArgument);
  // Targets needing more shots than a size_t can hold are rejected, not
  // silently wrapped through a float-to-integer overflow.
  EXPECT_THROW(shots_for_standard_error(0.5, 1e-10), InvalidArgument);
}

/// The estimator must track the sampled accuracy on the real compiled
/// workloads — that is its whole purpose.
class EstimateVsSampled : public ::testing::TestWithParam<std::string> {};

TEST_P(EstimateVsSampled, WithinFivePercentOfSampledAccuracy) {
  const auto& b = revlib::get_benchmark(GetParam());
  auto target = compiler::device_for(b.circuit.num_qubits()).target;
  compiler::CompileOptions opts(target);
  auto compiled = compiler::Compiler(opts).compile(b.circuit);

  auto est = estimate_accuracy(compiled.circuit, target.noise,
                               static_cast<int>(b.measured.size()));

  std::vector<int> phys;
  for (int o : b.measured) {
    phys.push_back(compiled.final_layout[static_cast<std::size_t>(o)]);
  }
  std::string correct = sim::classical_outcome(b.circuit, b.measured);
  SampleOptions sopts;
  sopts.shots = 4000;
  sopts.measured = phys;
  Rng rng(11);
  auto counts = sample(compiled.circuit, target.noise, rng, sopts);
  double sampled = metrics::accuracy(counts, correct);

  EXPECT_NEAR(est.estimate, sampled, 0.05)
      << GetParam() << ": estimate " << est.estimate << " vs sampled "
      << sampled;
}

INSTANTIATE_TEST_SUITE_P(Table1, EstimateVsSampled,
                         ::testing::ValuesIn(revlib::benchmark_names()));

}  // namespace
}  // namespace tetris::sim
