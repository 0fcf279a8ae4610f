// Empirical security benchmark: runs the colluding-compilers attack (with an
// attacker-favorable exact-equivalence oracle) against
//  (a) cascading split compilation (Saki et al., the paper's prior work), and
//  (b) TetrisLock interlocked splits,
// on the small benchmarks where exhaustive search is feasible, and the
// boundary-identification attack against prefix insertion (Das/Ghosh) vs
// TetrisLock's slot-filling insertion.
//
// Expected shape: cascade splits align immediately (identity mapping works);
// TetrisLock forces orders of magnitude more candidates; the prefix-insertion
// boundary is flagged every time while TetrisLock leaves no depth footprint.

#include <iostream>

#include "attack/boundary.h"
#include "attack/collusion.h"
#include "attack/plausibility.h"
#include "compiler/compiler.h"
#include "baselines/das_insertion.h"
#include "baselines/saki_split.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "lock/obfuscator.h"
#include "lock/splitter.h"
#include "metrics/metrics.h"
#include "revlib/benchmarks.h"

int main(int argc, char** argv) {
  using namespace tetris;
  auto args = benchutil::parse_args(argc, argv);

  std::cout << "== Colluding-compilers attack: tries until functional match "
               "(oracle attacker) ==\n\n";

  benchutil::Table table({"circuit", "defense", "space", "tried", "success"},
                         {10, 10, 10, 10, 7});
  table.print_header();

  for (const auto& name : {"4gt13", "1bit_adder", "4mod5"}) {
    const auto& b = revlib::get_benchmark(name);

    auto cascade = baselines::cascade_split(b.circuit, 0.5);
    auto cascade_result = attack::cascade_collusion_attack(
        cascade.first, cascade.second, b.circuit, 10'000'000);
    table.print_row({b.name, "cascade",
                     std::to_string(cascade_result.search_space),
                     std::to_string(cascade_result.mappings_tried),
                     cascade_result.success ? "yes" : "no"});

    metrics::RunningStats tried, space;
    int successes = 0;
    Rng master(args.seed);
    const int trials = std::min(args.iterations, 5);
    for (int it = 0; it < trials; ++it) {
      Rng rng = master.fork();
      lock::Obfuscator obfuscator;
      auto obf = obfuscator.obfuscate(b.circuit, rng);
      lock::InterlockSplitter splitter;
      auto pair = splitter.split(obf, rng);
      auto result = attack::collusion_attack(
          pair.first.circuit, pair.second.circuit, b.circuit,
          pair.first.local_to_orig, 10'000'000);
      tried.add(static_cast<double>(result.mappings_tried));
      space.add(static_cast<double>(result.search_space));
      if (result.success) ++successes;
    }
    table.print_row({b.name, "tetrislock", fmt_double(space.mean(), 0),
                     fmt_double(tried.mean(), 0),
                     std::to_string(successes) + "/" + std::to_string(trials)});
  }

  std::cout << "\n== Boundary-identification attack: recovery rate of the "
               "R|C boundary ==\n\n";
  benchutil::Table btable({"circuit", "defense", "flagged_true", "false_pos"},
                          {10, 16, 12, 9});
  btable.print_header();

  for (const auto& name : {"4mod5", "4gt11", "rd53"}) {
    const auto& b = revlib::get_benchmark(name);
    Rng master(args.seed);
    int das_hits = 0, tetris_hits = 0;
    metrics::RunningStats das_fp, tetris_fp;
    for (int it = 0; it < args.iterations; ++it) {
      Rng rng = master.fork();
      auto das = baselines::prefix_obfuscate(b.circuit, 3, rng);
      auto das_scan = attack::scan_prefix_boundary(das.obfuscated,
                                                   das.random.gate_count());
      if (das_scan.true_prefix_flagged) ++das_hits;
      das_fp.add(static_cast<double>(das_scan.false_positives));

      lock::Obfuscator obfuscator;
      auto obf = obfuscator.obfuscate(b.circuit, rng);
      auto tetris_scan =
          attack::scan_prefix_boundary(obf.masked(), obf.random.size());
      if (tetris_scan.true_prefix_flagged) ++tetris_hits;
      tetris_fp.add(static_cast<double>(tetris_scan.false_positives));
    }
    btable.print_row({b.name, "prefix_insertion",
                      std::to_string(das_hits) + "/" +
                          std::to_string(args.iterations),
                      fmt_double(das_fp.mean(), 1)});
    btable.print_row({b.name, "tetrislock",
                      std::to_string(tetris_hits) + "/" +
                          std::to_string(args.iterations),
                      fmt_double(tetris_fp.mean(), 1)});
  }

  std::cout << "\n== Oracle-free heuristic (cancellation leakage): rank of "
               "the true stitching ==\n\n";
  benchutil::Table htable({"circuit", "splits", "candidates", "true_rank",
                           "raw_score", "compiled_score"},
                          {10, 9, 10, 9, 9, 14});
  htable.print_header();

  for (const auto& name : {"4gt13", "1bit_adder"}) {
    const auto& b = revlib::get_benchmark(name);
    Rng rng(args.seed);
    lock::Obfuscator obfuscator;
    auto obf = obfuscator.obfuscate(b.circuit, rng);
    lock::InterlockSplitter splitter;
    auto pair = splitter.split(obf, rng);

    auto h = attack::heuristic_collusion_attack(
        pair.first.circuit, pair.second.circuit, pair.first.local_to_orig,
        pair.second.local_to_orig, b.circuit.num_qubits(), 10'000'000);

    // Countermeasure: release *compiled* splits — the lowered R fragments no
    // longer cancel gate-for-gate, so the leakage channel closes.
    auto target = compiler::device_for(b.circuit.num_qubits()).target;
    compiler::CompileOptions comp_options(target);
    compiler::Compiler comp(comp_options);
    auto c1 = comp.compile(pair.first.circuit);
    auto c2 = comp.compile(pair.second.circuit);
    qir::Circuit stitched_compiled(target.num_qubits(), "stitched");
    stitched_compiled.append(c1.circuit);
    stitched_compiled.append(c2.circuit);
    double compiled_score = attack::plausibility_score(stitched_compiled);

    htable.print_row(
        {b.name,
         std::to_string(pair.first.circuit.num_qubits()) + "+" +
             std::to_string(pair.second.circuit.num_qubits()),
         std::to_string(h.candidates), std::to_string(h.true_rank),
         fmt_double(h.true_score, 3), fmt_double(compiled_score, 3)});
  }

  std::cout << "\npass criteria: cascade aligns at try 1; tetrislock space/"
               "tries are much larger;\nprefix-insertion boundary flagged "
               "every run, tetrislock boundary never.\nheuristic: the raw "
               "cancellation leakage ranks the true stitching high — the\n"
               "compiled-release countermeasure drives the score toward the "
               "noise level.\n";
  return 0;
}
