#pragma once

#include <cstddef>
#include <vector>

#include "qir/circuit.h"
#include "sim/statevector.h"

namespace tetris::sim {

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

/// One 2x2 matrix bound to one qubit: a fused same-qubit product.
struct SingleQubitOp {
  cplx m[2][2] = {};
  int qubit = 0;
};

/// One executable unit of a FusionPlan — exactly one amplitude sweep.
///
/// `first_gate` is the source index (barriers included in the indexing) of
/// the op's first gate and `gate_count` the number of source gates it
/// folds; a kSingle's gates are its qubit's gates in one single-qubit
/// window, so other qubits' gates may sit between them.
struct FusedOp {
  enum class Kind {
    kGate,    ///< passthrough: apply `gate` via StateVector::apply_gate
    kSingle,  ///< one 2x2: a qubit's gates in one window multiplied together
  };
  Kind kind = Kind::kGate;
  std::size_t first_gate = 0;  ///< index of the first source gate
  std::size_t gate_count = 1;  ///< source gates folded into this op
  qir::Gate gate;              ///< kGate payload
  SingleQubitOp single;        ///< kSingle payload
};

/// A fused compilation of a gate stream: the same unitary as the source
/// circuit, expressed as fewer amplitude sweeps.
///
/// The pass scans windows of consecutive single-qubit gates, each stopped by
/// a multi-qubit gate or a Barrier. A qubit that holds two or more of a
/// window's gates gets one kSingle op, their 2x2 product, at the position of
/// its first gate; every other gate passes through unchanged to
/// StateVector::apply_gate. Gates on distinct qubits commute exactly, so the
/// plan is the source unitary. That is the one merge that never costs a
/// sweep: it replaces k sweeps on one wire with one 2x2 sweep (or, while the
/// register tracks its support, one pass over the support), and every
/// multi-qubit gate keeps its subspace kernel. A dense 4x4 product in place
/// of CX swaps, or one gathered sweep over gates on distinct qubits, loses
/// to those kernels and fills a sparse register's support, so the pass
/// builds neither (docs/ARCHITECTURE.md, "Gate fusion", has the numbers).
///
/// **Fences.** No fused op ever spans a Barrier gate, so at every barrier
/// the register holds the unfused stream's state at that gate index (up to
/// the rounding noted below). sim::sample runs a plan only for the
/// noise-free ideal run. Its errored trajectories replay the unfused gate
/// stream from checkpoints taken on an unfused walk, because a fused state
/// is only tolerance-equal to the unfused prefix, not bit-identical.
///
/// **Floating point.** Multiplying a qubit's matrices reorders FP
/// arithmetic, so a fused run is tolerance-equal to the unfused one (~1e-13
/// per merged gate), not bit-identical. Wherever no qubit holds two gates
/// of one window, the plan is the gate stream itself and the run IS
/// bit-identical. Replaying one plan always gives the same bits in either
/// kernel mode — see docs/ARCHITECTURE.md, "Gate fusion".
class FusionPlan {
 public:
  /// Plans the fused execution of `circuit`.
  static FusionPlan build(const qir::Circuit& circuit);

  int num_qubits() const { return num_qubits_; }
  const std::vector<FusedOp>& ops() const { return ops_; }
  const FusionStats& stats() const { return stats_; }

 private:
  int num_qubits_ = 0;
  std::vector<FusedOp> ops_;
  FusionStats stats_;
};

}  // namespace tetris::sim
