#include "lock/multisplit.h"

#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "revlib/benchmarks.h"
#include "sim/sampler.h"
#include "sim/unitary.h"

namespace tetris::lock {
namespace {

ObfuscatedCircuit obfuscate(const std::string& name, std::uint64_t seed) {
  Rng rng(seed);
  Obfuscator obfuscator;
  return obfuscator.obfuscate(revlib::get_benchmark(name).circuit, rng);
}

TEST(MultiSplit, TwoWayDegeneratesToPairSplit) {
  auto obf = obfuscate("rd53", 3);
  Rng rng(7);
  auto split = multi_split(obf, 2, rng);
  ASSERT_EQ(split.segments.size(), 2u);
  EXPECT_NO_THROW(validate_multi_split(obf, split));
}

TEST(MultiSplit, RequestedSegmentCount) {
  auto obf = obfuscate("rd53", 3);
  for (int k : {3, 4, 5}) {
    Rng rng(static_cast<std::uint64_t>(k));
    auto split = multi_split(obf, k, rng);
    EXPECT_EQ(split.segments.size(), static_cast<std::size_t>(k));
  }
}

TEST(MultiSplit, Validation) {
  auto obf = obfuscate("4mod5", 5);
  Rng rng(1);
  EXPECT_THROW(multi_split(obf, 1, rng), InvalidArgument);
  // Far more segments than layers must fail cleanly.
  EXPECT_THROW(multi_split(obf, 50, rng), InvalidArgument);
}

TEST(MultiSplit, SegmentsHaveVaryingWidths) {
  auto obf = obfuscate("rd84", 3);
  Rng rng(11);
  auto split = multi_split(obf, 4, rng);
  std::set<int> widths;
  for (const auto& seg : split.segments) {
    widths.insert(seg.circuit.num_qubits());
  }
  EXPECT_GE(widths.size(), 2u) << "all segments had identical qubit counts";
}

TEST(MultiSplit, TamperedPartitionDetected) {
  auto obf = obfuscate("rd53", 9);
  Rng rng(2);
  auto split = multi_split(obf, 3, rng);
  auto bad = split;
  ASSERT_FALSE(bad.segments[2].gate_indices.empty());
  bad.segments[1].gate_indices.push_back(bad.segments[2].gate_indices.front());
  EXPECT_THROW(validate_multi_split(obf, bad), LockError);
}

class MultiSplitProperty
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(MultiSplitProperty, StructuralRecombinationRestoresFunction) {
  const auto& [name, k] = GetParam();
  auto obf = obfuscate(name, 17);
  Rng rng(23);
  auto split = multi_split(obf, k, rng);
  if (obf.circuit.num_qubits() > 10) GTEST_SKIP() << "oracle too large";
  auto recombined =
      multi_recombine_structural(split, obf.circuit.num_qubits());
  EXPECT_TRUE(sim::circuits_equivalent(recombined, obf.original));
}

TEST_P(MultiSplitProperty, StagedCompilationRestoresFunction) {
  const auto& [name, k] = GetParam();
  const auto& b = revlib::get_benchmark(name);
  auto obf = obfuscate(name, 29);
  Rng rng(31);
  auto split = multi_split(obf, k, rng);

  auto target = compiler::device_for(b.circuit.num_qubits()).target;
  target.noise = sim::NoiseModel::ideal();
  compiler::CompileOptions options(target);
  auto recombined =
      multi_deobfuscate(split, b.circuit.num_qubits(), options);

  std::vector<int> all(static_cast<std::size_t>(b.circuit.num_qubits()));
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  std::string expected = sim::classical_outcome(b.circuit, all);

  std::vector<int> phys;
  for (int o : all) {
    phys.push_back(recombined.orig_to_phys[static_cast<std::size_t>(o)]);
  }
  Rng sample_rng(1);
  sim::SampleOptions opts;
  opts.shots = 16;
  opts.measured = phys;
  auto counts =
      sim::sample(recombined.circuit, sim::NoiseModel::ideal(), sample_rng, opts);
  EXPECT_EQ(counts.count(expected), opts.shots)
      << name << " k=" << k << " got " << counts.mode();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiSplitProperty,
    ::testing::Combine(::testing::Values("4gt11", "rd53", "rd73", "rd84"),
                       ::testing::Values(2, 3, 4)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

TEST(MultiSplit, OrigToPhysInjectiveAfterStagedCompile) {
  const auto& b = revlib::get_benchmark("rd73");
  auto obf = obfuscate("rd73", 41);
  Rng rng(43);
  auto split = multi_split(obf, 3, rng);
  auto target = compiler::device_for(b.circuit.num_qubits()).target;
  compiler::CompileOptions options(target);
  auto recombined = multi_deobfuscate(split, b.circuit.num_qubits(), options);
  std::set<int> seen;
  for (int p : recombined.orig_to_phys) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, target.num_qubits());
    EXPECT_TRUE(seen.insert(p).second);
  }
}

}  // namespace
}  // namespace tetris::lock
