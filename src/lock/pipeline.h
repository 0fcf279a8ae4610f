#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compiler/compiler.h"
#include "compiler/target.h"
#include "lock/deobfuscate.h"
#include "lock/obfuscator.h"
#include "lock/splitter.h"
#include "obs/trace.h"
#include "qir/circuit.h"
#include "sim/backend/backend.h"

namespace tetris::lock {

/// Knobs of one end-to-end TetrisLock run.
struct FlowConfig {
  InsertionConfig insertion;
  SplitConfig split;
  std::size_t shots = 1000;  ///< paper: 1000 shots per simulation
  /// Worker fan-out of each sim::sample call inside the flow (see
  /// SampleOptions::threads): 0 shards shots over the pool the flow is
  /// executing on — inside service::Service that is the service pool, so
  /// sampler helpers fill idle workers instead of oversubscribing — and 1
  /// pins the samplers serial. Counts are bit-identical at any value, so
  /// this knob is excluded from service::flow_fingerprint (a cached result
  /// is valid whatever fan-out computed it).
  unsigned sample_threads = 0;
  /// Merge same-qubit gate runs into one 2x2 each (sim/fusion.h) in the
  /// noisy verification's ideal statevector runs — CLI `--fuse`. Off by
  /// default: a merged 2x2 reorders floating-point arithmetic, so sampled
  /// metrics are tolerance-equal, not bit-identical, to the unfused path.
  /// Unlike sample_threads this knob IS part of service::flow_fingerprint,
  /// because it can change the result.
  bool fusion = false;
  /// Simulation engine of the flow's sampled runs — CLI `--backend`. kAuto
  /// is resolved ONCE against the source circuit (sim::resolve_backend) and
  /// the resolved engine then serves all three sampled views, so one flow
  /// never mixes engines. The default resolves to the statevector for every
  /// circuit it can hold (bit-identical to the pre-backend pipeline); wide
  /// Clifford circuits resolve to the stabilizer tableau engine, the
  /// 50+-qubit verification path. Part of service::flow_fingerprint
  /// whenever it resolves off the statevector default.
  sim::BackendKind backend = sim::BackendKind::kAuto;
};

/// Everything one TetrisLock iteration produces: artifacts and the metrics
/// Table I / Figure 4 report.
struct FlowResult {
  ObfuscatedCircuit obf;
  SplitPair splits;
  RecombinedCircuit recombined;
  compiler::CompileResult baseline;  ///< C compiled directly (no locking)

  // Size metrics (Table I columns).
  int depth_original = 0;
  int depth_obfuscated = 0;
  std::size_t gates_original = 0;
  std::size_t gates_obfuscated = 0;

  // Fidelity metrics.
  double tvd_obfuscated = 0.0;  ///< masked R.C vs ideal output (Fig. 4 left)
  double tvd_restored = 0.0;    ///< recombined vs ideal output (Fig. 4 right)
  double accuracy_original = 0.0;  ///< compiled C, noisy backend
  double accuracy_restored = 0.0;  ///< recombined splits, noisy backend
};

/// Runs the full flow on one circuit:
///   obfuscate -> interlock-split -> split-compile (2 untrusted compilers)
///   -> recombine -> simulate with the target's noise model.
/// `measured` lists the circuit's output qubits (register order).
///
/// `trace`, when non-null, receives one obs::Span per stage
/// (`lock.obfuscate`, `lock.split`, `lock.recombine`, `compile`,
/// `sim.reference`, `sim.sample` x3) with size/shots/backend attributes —
/// see docs/OBSERVABILITY.md for the taxonomy. Tracing is observation only:
/// it never feeds back into the computation, so results are bit-identical
/// with or without it.
FlowResult run_flow(const qir::Circuit& circuit,
                    const std::vector<int>& measured,
                    const compiler::Target& target, const FlowConfig& config,
                    Rng& rng, obs::Trace* trace = nullptr);

/// One job of a batch run: a named circuit plus its flow knobs.
struct FlowJob {
  std::string name;
  qir::Circuit circuit;
  std::vector<int> measured;  ///< output qubits, register order
  compiler::Target target;
  FlowConfig config;
  /// Setup caveats attached at job-construction time (e.g. the
  /// device_for ring-topology fallback past the preset band). The
  /// service copies them into JobOutcome::warnings so batch JSON surfaces
  /// them; an empty vector adds nothing to the serialized schema.
  std::vector<std::string> warnings;
};

/// Convenience: a job for `circuit` on the device `device_for` picks, with
/// all qubits measured when `measured` is empty. When the selection falls
/// back past the preset band, the note lands in `FlowJob::warnings` instead
/// of being dropped.
FlowJob make_flow_job(std::string name, qir::Circuit circuit,
                      std::vector<int> measured = {}, FlowConfig config = {});

}  // namespace tetris::lock
