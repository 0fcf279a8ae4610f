// Reproduces Table I of the TetrisLock paper: depth, gate count, and accuracy
// before/after obfuscation for the eight RevLib benchmarks, averaged over
// --iterations runs of the full obfuscate -> interlock-split -> split-compile
// -> recombine flow on a FakeValencia-band noisy backend with --shots shots.
//
// Expected shape (paper values quoted in the last columns):
//  * obfuscated depth == original depth for every circuit (0% overhead),
//  * 2-4 gates inserted (average gate-count increase largest for the small
//    circuits, smallest for rd73/rd84),
//  * restored accuracy within ~1% of the unprotected compiled circuit.

#include <iostream>

#include "bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "compiler/target.h"
#include "lock/pipeline.h"
#include "metrics/metrics.h"
#include "revlib/benchmarks.h"

namespace {

struct PaperRow {
  const char* name;
  double gate_change_pct;
  double acc;
  double acc_restored;
};

// Table I as printed in the paper (for side-by-side comparison).
constexpr PaperRow kPaper[] = {
    {"mini_alu", 22.2, 0.974, 0.974}, {"4mod5", 33.3, 0.973, 0.967},
    {"1bit_adder", 14.2, 0.976, 0.976}, {"4gt11", 15.4, 0.986, 0.983},
    {"4gt13", 67.5, 0.976, 0.977},    {"rd53", 15.7, 0.880, 0.869},
    {"rd73", 13.0, 0.892, 0.884},     {"rd84", 12.5, 0.867, 0.863},
};

const PaperRow& paper_row(const std::string& name) {
  for (const auto& r : kPaper) {
    if (name == r.name) return r;
  }
  throw std::runtime_error("no paper row for " + name);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tetris;
  auto args = benchutil::parse_args(argc, argv);

  std::cout << "== Table I: circuit parameters before/after TetrisLock "
               "(avg of " << args.iterations << " iterations, "
            << args.shots << " shots, FakeValencia-band noise) ==\n\n";

  benchutil::Table table(
      {"circuit", "depth", "depth_obf", "gates", "gates_obf", "gate+%",
       "gate+% paper", "acc", "acc_rest", "acc_d%", "acc paper"},
      {10, 5, 9, 5, 9, 7, 12, 6, 8, 7, 12});
  table.print_header();

  Rng master(args.seed);
  for (const auto& b : revlib::table1_benchmarks()) {
    auto target = compiler::device_for(b.circuit.num_qubits()).target;
    lock::FlowConfig cfg;
    cfg.shots = args.shots;

    metrics::RunningStats gates_obf, acc_orig, acc_rest, depth_obf;
    for (int it = 0; it < args.iterations; ++it) {
      Rng rng = master.fork();
      auto r = lock::run_flow(b.circuit, b.measured, target, cfg, rng);
      gates_obf.add(static_cast<double>(r.gates_obfuscated));
      depth_obf.add(static_cast<double>(r.depth_obfuscated));
      acc_orig.add(r.accuracy_original);
      acc_rest.add(r.accuracy_restored);
    }

    double gate_change =
        100.0 * (gates_obf.mean() - static_cast<double>(b.circuit.gate_count())) /
        static_cast<double>(b.circuit.gate_count());
    double acc_delta_pct =
        100.0 * std::abs(acc_orig.mean() - acc_rest.mean()) /
        std::max(acc_orig.mean(), 1e-9);

    const auto& paper = paper_row(b.name);
    table.print_row({b.name,
                     std::to_string(b.circuit.depth()),
                     fmt_double(depth_obf.mean(), 1),
                     std::to_string(b.circuit.gate_count()),
                     fmt_double(gates_obf.mean(), 1),
                     fmt_double(gate_change, 1) + "%",
                     fmt_double(paper.gate_change_pct, 1) + "%",
                     fmt_double(acc_orig.mean(), 3),
                     fmt_double(acc_rest.mean(), 3),
                     fmt_double(acc_delta_pct, 2) + "%",
                     fmt_double(paper.acc, 3) + "/" +
                         fmt_double(paper.acc_restored, 3)});
  }

  std::cout << "\npass criteria: depth_obf == depth for every row; inserted "
               "gates <= 4;\nrestored-accuracy delta small (paper: < ~1%).\n";
  return 0;
}
