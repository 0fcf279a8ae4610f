// The full designer workflow of the paper's Fig. 2, narrated step by step on
// a Table-I benchmark, including what each (untrusted) party gets to see and
// the noisy-backend metrics the paper reports.
//
//   $ ./split_compile_workflow [benchmark]     (default: rd53)

#include <iostream>
#include <string>

#include "common/rng.h"
#include "common/strings.h"
#include "compiler/target.h"
#include "lock/pipeline.h"
#include "qir/render.h"
#include "revlib/benchmarks.h"

int main(int argc, char** argv) {
  using namespace tetris;
  std::string name = argc > 1 ? argv[1] : "rd53";
  const auto& b = revlib::get_benchmark(name);

  std::cout << "=== TetrisLock split-compilation workflow: " << b.name
            << " ===\n\n";
  std::cout << "[designer] original circuit: " << b.circuit.num_qubits()
            << " qubits, " << b.circuit.gate_count() << " gates, depth "
            << b.circuit.depth() << "\n";

  auto target = compiler::device_for(b.circuit.num_qubits()).target;
  std::cout << "[designer] target device: " << target.name << " ("
            << target.num_qubits() << " qubits, noise model '"
            << target.noise.name << "')\n\n";

  lock::FlowConfig cfg;
  cfg.shots = 1000;
  Rng rng(2025);
  auto r = lock::run_flow(b.circuit, b.measured, target, cfg, rng);

  std::cout << "[designer] random circuit R (" << r.obf.random.size()
            << " gates):\n";
  for (const auto& g : r.obf.random.gates()) {
    std::cout << "    " << g.to_string() << "\n";
  }
  std::cout << "[designer] obfuscated R^-1.R.C: " << r.gates_obfuscated
            << " gates (+" << r.obf.inserted_gates() << "), depth "
            << r.depth_obfuscated << " (unchanged: "
            << (r.depth_obfuscated == r.depth_original ? "yes" : "NO") << ")\n\n";

  std::cout << "[compiler A sees] split 1 = R^-1 | Cl: "
            << r.splits.first.circuit.num_qubits() << " qubits, "
            << r.splits.first.circuit.gate_count() << " gates\n";
  std::cout << qir::render(r.splits.first.circuit) << "\n";
  std::cout << "[compiler B sees] split 2 = R | Cr: "
            << r.splits.second.circuit.num_qubits() << " qubits, "
            << r.splits.second.circuit.gate_count() << " gates\n";
  std::cout << qir::render(r.splits.second.circuit) << "\n";
  std::cout << "note: neither compiler holds the full design, the splits "
               "interlock, and their\nqubit counts ("
            << r.splits.first.circuit.num_qubits() << " vs "
            << r.splits.second.circuit.num_qubits()
            << ") need not match — the anti-collusion property.\n\n";

  std::cout << "[compiler A returns] " << r.recombined.first.result.circuit.gate_count()
            << " basis gates (" << r.recombined.first.result.stats.swaps_inserted
            << " routing swaps)\n";
  std::cout << "[compiler B returns] " << r.recombined.second.result.circuit.gate_count()
            << " basis gates (" << r.recombined.second.result.stats.swaps_inserted
            << " routing swaps, initial layout pinned by designer)\n\n";

  std::cout << "[designer] recombined circuit: "
            << r.recombined.circuit.gate_count() << " gates on "
            << r.recombined.circuit.num_qubits() << " physical qubits\n\n";

  std::cout << "metrics (1000 shots, " << target.noise.name << "):\n";
  std::cout << "  accuracy, unprotected compile : "
            << fmt_double(r.accuracy_original, 3) << "\n";
  std::cout << "  accuracy, restored TetrisLock : "
            << fmt_double(r.accuracy_restored, 3) << "\n";
  std::cout << "  TVD of obfuscated circuit R.C : "
            << fmt_double(r.tvd_obfuscated, 3) << "  (functional corruption)\n";
  std::cout << "  TVD of restored circuit       : "
            << fmt_double(r.tvd_restored, 3) << "  (noise floor)\n";
  return 0;
}
