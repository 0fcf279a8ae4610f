#include "compiler/compiler.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "compiler/routing.h"
#include "revlib/benchmarks.h"
#include "sim/unitary.h"
#include "test_util.h"

namespace tetris::compiler {
namespace {

CompileOptions valencia_options() {
  return CompileOptions{fake_valencia(), LayoutStrategy::GreedyDegree, true,
                        std::nullopt};
}

TEST(Compiler, OutputIsBasisOnly) {
  Compiler compiler(valencia_options());
  auto result = compiler.compile(revlib::build_4mod5());
  for (const auto& g : result.circuit.gates()) {
    EXPECT_TRUE(fake_valencia().in_basis(g.kind)) << g.name();
  }
}

TEST(Compiler, OutputIsCouplingCompliant) {
  Compiler compiler(valencia_options());
  auto result = compiler.compile(revlib::build_4gt13());
  EXPECT_TRUE(is_coupling_compliant(result.circuit, fake_valencia().coupling));
}

TEST(Compiler, FunctionalEquivalenceOnValencia) {
  qir::Circuit c = revlib::build_4mod5();
  Compiler compiler(valencia_options());
  auto result = compiler.compile(c);

  qir::Circuit reference =
      testutil::embed(c, result.initial_layout, fake_valencia().num_qubits());
  testutil::apply_wire_permutation(reference, result.wire_permutation);
  EXPECT_TRUE(sim::circuits_equivalent(result.circuit, reference));
}

TEST(Compiler, FunctionalEquivalenceNonClassicalCircuit) {
  qir::Circuit c = testutil::ghz_with_phases(4);
  CompileOptions opts{line_device(6), LayoutStrategy::GreedyDegree, true,
                      std::nullopt};
  Compiler compiler(opts);
  auto result = compiler.compile(c);
  qir::Circuit reference = testutil::embed(c, result.initial_layout, 6);
  testutil::apply_wire_permutation(reference, result.wire_permutation);
  EXPECT_TRUE(sim::circuits_equivalent(result.circuit, reference));
}

TEST(Compiler, PinnedInitialLayoutIsHonored) {
  qir::Circuit c(3);
  c.cx(0, 1).cx(1, 2);
  CompileOptions opts{line_device(5), LayoutStrategy::GreedyDegree, true,
                      std::vector<int>{4, 2, 0}};
  Compiler compiler(opts);
  auto result = compiler.compile(c);
  EXPECT_EQ(result.initial_layout, (std::vector<int>{4, 2, 0}));
  qir::Circuit reference = testutil::embed(c, result.initial_layout, 5);
  testutil::apply_wire_permutation(reference, result.wire_permutation);
  EXPECT_TRUE(sim::circuits_equivalent(result.circuit, reference));
}

TEST(Compiler, PinnedLayoutValidated) {
  qir::Circuit c(3);
  CompileOptions opts{line_device(5), LayoutStrategy::Trivial, true,
                      std::vector<int>{0, 0, 1}};
  Compiler compiler(opts);
  EXPECT_THROW(compiler.compile(c), InvalidArgument);
}

TEST(Compiler, RejectsWideCircuit) {
  qir::Circuit c(6);
  Compiler compiler(valencia_options());
  EXPECT_THROW(compiler.compile(c), InvalidArgument);
}

TEST(Compiler, StatsArepopulated) {
  qir::Circuit c = revlib::build_1bit_adder();
  CompileOptions opts{line_device(4), LayoutStrategy::GreedyDegree, true,
                      std::nullopt};
  Compiler compiler(opts);
  auto result = compiler.compile(c);
  EXPECT_EQ(result.stats.input_gates, c.gate_count());
  EXPECT_EQ(result.stats.input_depth, c.depth());
  EXPECT_EQ(result.stats.output_gates, result.circuit.gate_count());
  EXPECT_EQ(result.stats.output_depth, result.circuit.depth());
  EXPECT_GT(result.stats.output_gates, result.stats.input_gates);
}

TEST(Compiler, OptimizerToggleMatters) {
  qir::Circuit c(2);
  c.x(0).x(0).cx(0, 1);
  CompileOptions no_opt{line_device(2), LayoutStrategy::Trivial, false,
                        std::nullopt};
  CompileOptions with_opt{line_device(2), LayoutStrategy::Trivial, true,
                          std::nullopt};
  auto raw = Compiler(no_opt).compile(c);
  auto opt = Compiler(with_opt).compile(c);
  EXPECT_GT(raw.circuit.gate_count(), opt.circuit.gate_count());
}

/// Compile every Table-I benchmark on its experiment device and verify
/// functional equivalence end-to-end — the strongest compiler test we have.
class CompileBenchmark : public ::testing::TestWithParam<std::string> {};

TEST(DeviceFor, CheckedSurfacesRingFallback) {
  auto in_band = device_for(5);
  EXPECT_FALSE(in_band.fallback);
  EXPECT_TRUE(in_band.note.empty());
  EXPECT_EQ(in_band.target.name, "fake_valencia");

  auto past_band = device_for(9);
  EXPECT_TRUE(past_band.fallback);
  EXPECT_EQ(past_band.target.name, "ring9");
  EXPECT_NE(past_band.note.find("ring9"), std::string::npos) << past_band.note;
}

TEST_P(CompileBenchmark, EquivalentOnExperimentDevice) {
  const auto& b = revlib::get_benchmark(GetParam());
  if (b.circuit.num_qubits() > 7) {
    GTEST_SKIP() << "dense-unitary oracle too large";
  }
  Target target = device_for(b.circuit.num_qubits()).target;
  CompileOptions opts{target, LayoutStrategy::GreedyDegree, true, std::nullopt};
  auto result = Compiler(opts).compile(b.circuit);
  EXPECT_TRUE(is_coupling_compliant(result.circuit, target.coupling));
  qir::Circuit reference =
      testutil::embed(b.circuit, result.initial_layout, target.num_qubits());
  testutil::apply_wire_permutation(reference, result.wire_permutation);
  EXPECT_TRUE(sim::circuits_equivalent(result.circuit, reference));
}

INSTANTIATE_TEST_SUITE_P(Table1, CompileBenchmark,
                         ::testing::ValuesIn(revlib::benchmark_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           return n;
                         });

}  // namespace
}  // namespace tetris::compiler
