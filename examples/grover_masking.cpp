// Hadamard-alphabet obfuscation on an interference-style circuit — the
// paper's prescription for non-arithmetic workloads ("for circuits such as
// those implementing Grover's algorithm, we opted to insert Hadamard gates").
//
//   $ ./grover_masking [n] [marked]      (defaults: n=4, marked=11)
//
// Shows that (1) the H-insertion still costs zero depth, (2) the masked
// circuit's output distribution no longer peaks on the marked state, and
// (3) the de-obfuscated split compilation finds the marked state as reliably
// as the unprotected compile.

#include <cstdlib>
#include <iostream>

#include "common/rng.h"
#include "common/strings.h"
#include "compiler/target.h"
#include "lock/deobfuscate.h"
#include "lock/obfuscator.h"
#include "lock/splitter.h"
#include "metrics/metrics.h"
#include "qir/library.h"
#include "sim/sampler.h"

int main(int argc, char** argv) {
  using namespace tetris;
  const int n = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::size_t marked =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 11 % (1u << n);

  auto iterations = qir::library::grover_optimal_iterations(n);
  auto circuit = qir::library::grover(n, marked, iterations);
  std::cout << "Grover search: " << n << " qubits, marked state |"
            << sim::bitstring(marked, n) << ">, " << iterations
            << " iterations, " << circuit.gate_count() << " gates, depth "
            << circuit.depth() << "\n\n";

  // Obfuscate with the Hadamard alphabet. Grover circuits are busy from
  // layer 0, so enable the mid-circuit gap-insertion mode.
  Rng rng(2025);
  lock::InsertionConfig cfg;
  cfg.alphabet = lock::InsertionAlphabet::Hadamard;
  cfg.allow_gap_insertion = true;
  lock::Obfuscator obfuscator(cfg);
  auto obf = obfuscator.obfuscate(circuit, rng);
  std::cout << "inserted " << obf.inserted_gates()
            << " H gates (depth overhead "
            << obf.circuit.depth() - circuit.depth() << ")\n";

  // What the adversary's side computes: the masked circuit R.C.
  auto reference = sim::ideal_distribution(circuit);
  auto masked_dist = sim::ideal_distribution(obf.masked());
  std::cout << "masked-circuit TVD vs true output: "
            << fmt_double(metrics::tvd(masked_dist, reference), 3) << "\n";
  auto peak = [&](const std::map<std::string, double>& d) {
    auto best = d.begin();
    for (auto it = d.begin(); it != d.end(); ++it) {
      if (it->second > best->second) best = it;
    }
    return best;
  };
  auto true_peak = peak(reference);
  auto masked_peak = peak(masked_dist);
  std::cout << "true peak outcome   : " << true_peak->first << " (p="
            << fmt_double(true_peak->second, 3) << ")\n";
  std::cout << "masked peak outcome : " << masked_peak->first << " (p="
            << fmt_double(masked_peak->second, 3) << ")  "
            << (masked_peak->first == true_peak->first
                    ? "!! still reveals the marked state"
                    : "-> marked state hidden")
            << "\n\n";

  // Full split-compile flow on a noisy device.
  lock::InterlockSplitter splitter;
  auto pair = splitter.split(obf, rng);
  auto target = compiler::device_for(n).target;
  compiler::CompileOptions first(target);
  compiler::CompileOptions second(target);
  second.layout = compiler::LayoutStrategy::Trivial;
  lock::Deobfuscator deob;
  auto recombined = deob.run(pair, n, first, second);

  std::vector<int> phys;
  for (int q = 0; q < n; ++q) {
    phys.push_back(recombined.orig_to_phys[static_cast<std::size_t>(q)]);
  }
  sim::SampleOptions opts;
  opts.shots = 1000;
  opts.measured = phys;
  Rng sample_rng(7);
  auto counts = sim::sample(recombined.circuit, target.noise, sample_rng, opts);
  std::string target_key = sim::bitstring(marked, n);
  std::cout << "restored split compilation, 1000 noisy shots: marked state "
               "found in "
            << counts.count(target_key) << " shots ("
            << fmt_double(
                   100.0 * static_cast<double>(counts.count(target_key)) /
                       static_cast<double>(opts.shots),
                   1)
            << "%)\n";
  return counts.count(target_key) > opts.shots / 2 ? 0 : 1;
}
