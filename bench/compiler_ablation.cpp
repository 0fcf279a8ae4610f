// Compiler-substrate ablation: how much each pass earns on the Table-I
// workloads. Columns:
//   O0      = decompose + route only,
//   O1      = + peephole optimizer (inverse pairs, rotation merging),
//   O2      = + commutation-aware cancellation,
//   greedy / lookahead = routing swap counts under each strategy (at O2).
// This backs the DESIGN.md claim that the optimizer cancels the CX-chain
// overlap of the parity-network decomposition, and quantifies the lookahead
// router on the real workloads.

#include <iostream>

#include "bench_util.h"
#include "common/strings.h"
#include "compiler/compiler.h"
#include "revlib/benchmarks.h"

int main(int argc, char** argv) {
  using namespace tetris;
  (void)benchutil::parse_args(argc, argv);

  std::cout << "== Compiler ablation: output gates / depth per optimization "
               "level, swaps per router ==\n\n";

  benchutil::Table table({"circuit", "O0 gates", "O1 gates", "O2 gates",
                          "O2 depth", "swaps_greedy", "swaps_look"},
                         {10, 8, 8, 8, 8, 12, 10});
  table.print_header();

  for (const auto& b : revlib::table1_benchmarks()) {
    auto target = compiler::device_for(b.circuit.num_qubits()).target;

    compiler::CompileOptions o0(target);
    o0.run_optimizer = false;
    compiler::CompileOptions o1(target);
    o1.use_commutation = false;
    compiler::CompileOptions o2(target);
    compiler::CompileOptions look(target);
    look.routing.strategy = compiler::RoutingStrategy::Lookahead;

    auto r0 = compiler::Compiler(o0).compile(b.circuit);
    auto r1 = compiler::Compiler(o1).compile(b.circuit);
    auto r2 = compiler::Compiler(o2).compile(b.circuit);
    auto rl = compiler::Compiler(look).compile(b.circuit);

    table.print_row({b.name, std::to_string(r0.stats.output_gates),
                     std::to_string(r1.stats.output_gates),
                     std::to_string(r2.stats.output_gates),
                     std::to_string(r2.stats.output_depth),
                     std::to_string(r2.stats.swaps_inserted),
                     std::to_string(rl.stats.swaps_inserted)});
  }

  std::cout << "\npass criteria: O0 >= O1 >= O2 gate counts on every row; "
               "lookahead swaps <= greedy\nswaps on most rows.\n";
  return 0;
}
