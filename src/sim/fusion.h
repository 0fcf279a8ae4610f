#pragma once

#include <cstddef>
#include <vector>

#include "qir/circuit.h"
#include "sim/statevector.h"

namespace tetris::sim {

/// Knobs of the fusion pass (FusionPlan::build).
struct FusionOptions {
  /// Largest number of distinct qubits one gang sweep may cover. Capped by
  /// StateVector::kMaxGangQubits (the kernel's scratch block is
  /// 2^max_gang_qubits amplitudes).
  int max_gang_qubits = StateVector::kMaxGangQubits;
};

/// What the pass did — each emitted op costs exactly one amplitude sweep, so
/// ops_out / gates_in is the memory-pass ratio fusion buys.
struct FusionStats {
  std::size_t gates_in = 0;     ///< non-barrier source gates scanned
  std::size_t barriers = 0;     ///< barrier gates dropped (they are fences)
  std::size_t ops_out = 0;      ///< fused ops emitted == amplitude sweeps
  std::size_t gates_fused = 0;  ///< source gates folded into multi-gate ops

  /// Fraction of amplitude sweeps eliminated: 1 - ops_out / gates_in.
  double sweep_reduction() const;
};

/// One executable unit of a FusionPlan — exactly one amplitude sweep.
///
/// `first_gate` / `gate_count` tie the op back to the source gate stream
/// (barriers included in the indexing), which is what the fence tests and
/// the stats assert on.
struct FusedOp {
  enum class Kind {
    kGate,      ///< passthrough: apply `gate` via StateVector::apply_gate
    kSingle,    ///< one 2x2: a same-qubit run multiplied into one matrix
    kGang,      ///< several 2x2s on distinct qubits, one gathered sweep
    kTwoQubit,  ///< one 4x4 on the wire pair (a, b)
  };
  Kind kind = Kind::kGate;
  std::size_t first_gate = 0;  ///< index of the first source gate
  std::size_t gate_count = 1;  ///< source gates folded into this op
  qir::Gate gate;              ///< kGate payload
  SingleQubitOp single;        ///< kSingle payload
  std::vector<SingleQubitOp> gang;  ///< kGang payload, stream order
  cplx two[4][4] = {};         ///< kTwoQubit payload (apply_two_qubit basis)
  int a = 0, b = 0;            ///< kTwoQubit wires
};

/// A fused compilation of a gate stream: the same unitary as the source
/// circuit, expressed as fewer amplitude sweeps.
///
/// The greedy pass merges, in stream order:
///  (a) runs of single-qubit gates on the same qubit into one 2x2 product,
///  (b) windows of consecutive single-qubit gates on distinct qubits into a
///      gang applied in one sweep (they commute exactly), and
///  (c) adjacent gates acting within one qubit pair — 2q gates in either
///      orientation plus interleaved 1q gates on the pair — into one 4x4.
/// Multi-qubit gates (CCX, CSWAP, MCX) pass through unfused; a lone gate
/// that nothing merges with also passes through to StateVector::apply_gate,
/// so a lone CX, SWAP or controlled phase runs the subspace kernels, which
/// touch only its control subspace.
///
/// **Fences.** No fused op ever spans a Barrier gate, so at every barrier
/// the register holds the unfused stream's state at that gate index (up to
/// the rounding noted below). sim::sample runs a plan only for the
/// noise-free ideal run. Its errored trajectories replay the unfused gate
/// stream from checkpoints taken on an unfused walk, because a fused state
/// is only tolerance-equal to the unfused prefix, not bit-identical.
///
/// **Floating point.** Merging gates multiplies their matrices, which
/// reorders FP arithmetic: a fused run is tolerance-equal to the unfused one
/// (~1e-13 per merged gate), not bit-identical. Gang ops whose entries are
/// single unmerged gates apply the exact per-amplitude operation sequence of
/// the unfused stream (the sweeps differ only in memory-access order).
/// Serial-vs-parallel execution of one plan is always bit-identical
/// (disjoint chunks, no reassociation) — see docs/ARCHITECTURE.md,
/// "Gate fusion".
class FusionPlan {
 public:
  /// Plans the fused execution of `circuit`. Throws InvalidArgument if
  /// `options.max_gang_qubits` is out of range.
  static FusionPlan build(const qir::Circuit& circuit,
                          const FusionOptions& options = {});

  int num_qubits() const { return num_qubits_; }
  const std::vector<FusedOp>& ops() const { return ops_; }
  const FusionStats& stats() const { return stats_; }

 private:
  int num_qubits_ = 0;
  std::vector<FusedOp> ops_;
  FusionStats stats_;
};

/// 4x4 matrix of `gate` acting on the wire pair (a, b), in the local basis
/// convention of StateVector::apply_two_qubit (qubit `a` = low local bit).
/// Accepts any single-qubit gate on a or b and any two-qubit gate on {a, b}
/// in either orientation; throws InvalidArgument otherwise.
void two_qubit_matrix(const qir::Gate& gate, int a, int b, cplx out[4][4]);

}  // namespace tetris::sim
