#include "lock/deobfuscate.h"

#include <gtest/gtest.h>

#include "lock/obfuscator.h"
#include "lock/splitter.h"
#include "revlib/benchmarks.h"
#include "sim/sampler.h"
#include "test_util.h"

namespace tetris::lock {
namespace {

struct FullRun {
  ObfuscatedCircuit obf;
  SplitPair pair;
  RecombinedCircuit recombined;
};

FullRun run_benchmark(const std::string& name, std::uint64_t seed,
                      const compiler::Target& target) {
  Rng rng(seed);
  FullRun out;
  Obfuscator obfuscator;
  out.obf = obfuscator.obfuscate(revlib::get_benchmark(name).circuit, rng);
  InterlockSplitter splitter;
  out.pair = splitter.split(out.obf, rng);

  compiler::CompileOptions first{target, compiler::LayoutStrategy::GreedyDegree,
                                 true, std::nullopt};
  compiler::CompileOptions second{target, compiler::LayoutStrategy::Trivial,
                                  true, std::nullopt};
  Deobfuscator deob;
  out.recombined =
      deob.run(out.pair, out.obf.circuit.num_qubits(), first, second);
  return out;
}

/// The decisive end-to-end check: simulate the recombined *compiled* circuit
/// noiselessly and compare the measured original-qubit outcome with the
/// original circuit's deterministic outcome.
void expect_restores_function(const std::string& name, std::uint64_t seed) {
  const auto& b = revlib::get_benchmark(name);
  auto target = compiler::device_for(b.circuit.num_qubits()).target;
  target.noise = sim::NoiseModel::ideal();
  auto run = run_benchmark(name, seed, target);

  std::vector<int> all(static_cast<std::size_t>(b.circuit.num_qubits()));
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  std::string expected = sim::classical_outcome(b.circuit, all);

  std::vector<int> phys_measured;
  for (int o : all) {
    phys_measured.push_back(
        run.recombined.orig_to_phys[static_cast<std::size_t>(o)]);
  }
  Rng rng(seed + 1);
  sim::SampleOptions opts;
  opts.shots = 32;
  opts.measured = phys_measured;
  auto counts =
      sim::sample(run.recombined.circuit, sim::NoiseModel::ideal(), rng, opts);
  EXPECT_EQ(counts.count(expected), opts.shots)
      << name << " seed " << seed << ": got " << counts.mode();
}

class DeobfuscateProperty
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(DeobfuscateProperty, RecombinedCompiledCircuitRestoresFunction) {
  const auto& [name, seed] = GetParam();
  expect_restores_function(name, static_cast<std::uint64_t>(seed));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeobfuscateProperty,
    ::testing::Combine(::testing::ValuesIn(revlib::benchmark_names()),
                       ::testing::Values(1, 9, 77)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Deobfuscate, OrigToPhysIsInjective) {
  const auto& b = revlib::get_benchmark("rd53");
  auto target = compiler::device_for(b.circuit.num_qubits()).target;
  auto run = run_benchmark("rd53", 5, target);
  std::set<int> seen;
  for (int p : run.recombined.orig_to_phys) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, target.num_qubits());
    EXPECT_TRUE(seen.insert(p).second);
  }
}

TEST(Deobfuscate, SecondCompileIsPinnedToFirstFinalLayout) {
  const auto& b = revlib::get_benchmark("4gt11");
  auto target = compiler::device_for(b.circuit.num_qubits()).target;
  auto run = run_benchmark("4gt11", 3, target);
  // For each original qubit in both splits, split2's initial wire must equal
  // split1's final wire.
  for (std::size_t l1 = 0; l1 < run.recombined.first.local_to_orig.size();
       ++l1) {
    int o = run.recombined.first.local_to_orig[l1];
    int l2 = run.pair.second.orig_to_local(o);
    if (l2 < 0) continue;
    EXPECT_EQ(run.recombined.second.result.initial_layout[static_cast<std::size_t>(l2)],
              run.recombined.first.result.final_layout[l1]);
  }
}

TEST(Deobfuscate, MismatchedTargetsRejected) {
  auto run_bad = [] {
    Rng rng(1);
    Obfuscator obfuscator;
    auto obf = obfuscator.obfuscate(revlib::build_4mod5(), rng);
    InterlockSplitter splitter;
    auto pair = splitter.split(obf, rng);
    compiler::CompileOptions first{compiler::line_device(5),
                                   compiler::LayoutStrategy::Trivial, true,
                                   std::nullopt};
    compiler::CompileOptions second{compiler::line_device(6),
                                    compiler::LayoutStrategy::Trivial, true,
                                    std::nullopt};
    Deobfuscator deob;
    deob.run(pair, 5, first, second);
  };
  EXPECT_THROW(run_bad(), InvalidArgument);
}

TEST(Deobfuscate, CompiledSplitsStayInBasisAndOnDevice) {
  const auto& b = revlib::get_benchmark("rd73");
  auto target = compiler::device_for(b.circuit.num_qubits()).target;
  auto run = run_benchmark("rd73", 7, target);
  for (const auto* cs : {&run.recombined.first, &run.recombined.second}) {
    for (const auto& g : cs->result.circuit.gates()) {
      EXPECT_TRUE(target.in_basis(g.kind)) << g.name();
    }
  }
  EXPECT_EQ(run.recombined.circuit.num_qubits(), target.num_qubits());
}

}  // namespace
}  // namespace tetris::lock
