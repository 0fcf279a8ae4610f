#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "compiler/decompose.h"
#include "compiler/routing.h"
#include "qir/library.h"
#include "revlib/benchmarks.h"
#include "sim/unitary.h"
#include "test_util.h"

namespace tetris::compiler {
namespace {

RoutingOptions lookahead() {
  RoutingOptions o;
  o.strategy = RoutingStrategy::Lookahead;
  return o;
}

TEST(LookaheadRouting, ProducesCompliantCircuit) {
  qir::Circuit c(4);
  c.cx(0, 3).cx(1, 2).cx(0, 2).cx(3, 1);
  auto coupling = CouplingMap::line(4);
  auto r = route(c, coupling, {0, 1, 2, 3}, lookahead());
  EXPECT_TRUE(is_coupling_compliant(r.circuit, coupling));
}

TEST(LookaheadRouting, PreservesFunction) {
  qir::Circuit c(4);
  c.cx(0, 3).cx(1, 2).cx(0, 2).cx(3, 1).cx(2, 0);
  auto coupling = CouplingMap::line(5);
  std::vector<int> init{0, 2, 3, 4};
  auto r = route(c, coupling, init, lookahead());
  qir::Circuit reference = testutil::embed(c, init, 5);
  testutil::apply_wire_permutation(reference, r.wire_permutation);
  EXPECT_TRUE(sim::circuits_equivalent(r.circuit, reference));
}

TEST(LookaheadRouting, NeverWorseOnRepeatedDistantPairs) {
  // A pattern lookahead is built for: the same distant pair interacts
  // repeatedly; lookahead parks the operands adjacently once.
  qir::Circuit c(2);
  for (int i = 0; i < 6; ++i) c.cx(0, 1);
  auto coupling = CouplingMap::line(6);
  auto greedy = route(c, coupling, {0, 5});
  auto smart = route(c, coupling, {0, 5}, lookahead());
  EXPECT_LE(smart.swaps_inserted, greedy.swaps_inserted);
}

TEST(LookaheadRouting, HelpsOnRandomReversibleWorkloads) {
  // Aggregate: across seeds, lookahead inserts no more swaps than greedy on
  // average (it may tie on easy instances).
  std::size_t greedy_total = 0, smart_total = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    auto c = qir::library::random_reversible(6, 20, rng);
    DecomposePass pass;
    auto lowered = pass.run(c);
    auto coupling = CouplingMap::line(6);
    std::vector<int> init{0, 1, 2, 3, 4, 5};
    greedy_total += route(lowered, coupling, init).swaps_inserted;
    smart_total += route(lowered, coupling, init, lookahead()).swaps_inserted;
  }
  EXPECT_LE(smart_total, greedy_total);
}

TEST(LookaheadRouting, FunctionPreservedAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed + 40);
    auto c = qir::library::random_universal(4, 15, rng);
    auto coupling = CouplingMap::ring(5);
    std::vector<int> init{0, 1, 2, 3};
    auto r = route(c, coupling, init, lookahead());
    EXPECT_TRUE(is_coupling_compliant(r.circuit, coupling));
    qir::Circuit reference = testutil::embed(c, init, 5);
    testutil::apply_wire_permutation(reference, r.wire_permutation);
    EXPECT_TRUE(sim::circuits_equivalent(r.circuit, reference)) << seed;
  }
}

TEST(LookaheadRouting, CompilerIntegration) {
  const auto& b = revlib::get_benchmark("rd53");
  auto target = device_for(b.circuit.num_qubits()).target;
  CompileOptions opts{target, LayoutStrategy::GreedyDegree, true, std::nullopt};
  opts.routing = lookahead();
  auto result = Compiler(opts).compile(b.circuit);
  EXPECT_TRUE(is_coupling_compliant(result.circuit, target.coupling));
  qir::Circuit reference =
      testutil::embed(b.circuit, result.initial_layout, target.num_qubits());
  testutil::apply_wire_permutation(reference, result.wire_permutation);
  EXPECT_TRUE(sim::circuits_equivalent(result.circuit, reference));
}

TEST(CommutationInCompiler, ReducesGateCount) {
  const auto& b = revlib::get_benchmark("4gt11");
  auto target = device_for(b.circuit.num_qubits()).target;
  CompileOptions with{target, LayoutStrategy::GreedyDegree, true, std::nullopt};
  with.use_commutation = true;
  CompileOptions without = with;
  without.use_commutation = false;
  auto on = Compiler(with).compile(b.circuit);
  auto off = Compiler(without).compile(b.circuit);
  EXPECT_LE(on.circuit.gate_count(), off.circuit.gate_count());
  // Both must be correct regardless.
  for (const auto* r : {&on, &off}) {
    qir::Circuit reference =
        testutil::embed(b.circuit, r->initial_layout, target.num_qubits());
    testutil::apply_wire_permutation(reference, r->wire_permutation);
    EXPECT_TRUE(sim::circuits_equivalent(r->circuit, reference));
  }
}

}  // namespace
}  // namespace tetris::compiler
