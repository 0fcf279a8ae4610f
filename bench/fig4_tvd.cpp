// Reproduces Figure 4 of the TetrisLock paper: the Total Variation Distance
// (Eq. 2) of the obfuscated circuit (R.C, what the untrusted compiler's side
// computes) and of the restored circuit (recombined split compilation),
// each against the ideal output of the original circuit, per benchmark.
//
// Expected shape: obfuscated TVD is large (approaching 1 for the multi-bit
// rd53/rd73/rd84 circuits, smaller for the 1-bit-output circuits), restored
// TVD sits near the backend noise floor for every benchmark.

#include <iostream>

#include "bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "compiler/target.h"
#include "lock/pipeline.h"
#include "metrics/metrics.h"
#include "revlib/benchmarks.h"

int main(int argc, char** argv) {
  using namespace tetris;
  auto args = benchutil::parse_args(argc, argv);

  std::cout << "== Figure 4: TVD of obfuscated vs restored circuits (avg of "
            << args.iterations << " iterations, " << args.shots
            << " shots, FakeValencia-band noise) ==\n\n";

  benchutil::Table table({"circuit", "tvd_obf", "std", "tvd_rest", "std"},
                         {10, 8, 6, 8, 6});
  table.print_header();

  struct Row {
    std::string name;
    double obf, rest;
  };
  std::vector<Row> rows;

  Rng master(args.seed);
  for (const auto& b : revlib::table1_benchmarks()) {
    auto target = compiler::device_for(b.circuit.num_qubits()).target;
    lock::FlowConfig cfg;
    cfg.shots = args.shots;

    metrics::RunningStats obf, rest;
    for (int it = 0; it < args.iterations; ++it) {
      Rng rng = master.fork();
      auto r = lock::run_flow(b.circuit, b.measured, target, cfg, rng);
      obf.add(r.tvd_obfuscated);
      rest.add(r.tvd_restored);
    }
    table.print_row({b.name, fmt_double(obf.mean(), 3),
                     fmt_double(obf.stddev(), 3), fmt_double(rest.mean(), 3),
                     fmt_double(rest.stddev(), 3)});
    rows.push_back({b.name, obf.mean(), rest.mean()});
  }

  std::cout << "\nTVD distribution (o = obfuscated, r = restored):\n";
  for (const auto& r : rows) {
    std::cout << pad_right(r.name, 11) << " o " << benchutil::bar(r.obf)
              << " " << fmt_double(r.obf, 2) << "\n";
    std::cout << pad_right("", 11) << " r " << benchutil::bar(r.rest) << " "
              << fmt_double(r.rest, 2) << "\n";
  }
  std::cout << "\npass criteria: tvd_obf >> tvd_rest for every benchmark; "
               "rd53/rd73/rd84 approach 1.0;\nrestored TVD near the noise "
               "floor.\n";
  return 0;
}
