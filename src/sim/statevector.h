#pragma once

#include <complex>
#include <vector>

#include "common/rng.h"
#include "qir/circuit.h"

namespace tetris::sim {

using cplx = std::complex<double>;

class FusionPlan;  // sim/fusion.h
struct FusedOp;    // sim/fusion.h
namespace kernels {
struct Subspace;   // sim/kernels/kernels.h
}

/// One 2x2 matrix bound to one qubit — the unit of a fused gang sweep
/// (StateVector::apply_gang) and of the fusion pass (sim/fusion.h).
struct SingleQubitOp {
  cplx m[2][2] = {};
  int qubit = 0;
};

/// Dense state-vector simulator.
///
/// Holds 2^n complex amplitudes in little-endian qubit order: basis index
/// `i` has qubit q in state bit `(i >> q) & 1`. All gate kinds of the IR are
/// supported natively. Permutation and controlled kinds run the subspace
/// kernels, which visit only the amplitudes whose control bits are all set:
/// X/CX/CCX/MCX, SWAP and CSWAP are pure swaps, CZ/CP/CRZ and Z scale,
/// and CY/CH apply their 2x2 on the control subspace.
///
/// **Support tracking.** From construction, `reset` and `set_basis_state`
/// the register also keeps the indices of its nonzero amplitudes (its
/// support) while they number at most 2^(n - kSparseShift), and
/// `apply_gate`/`apply_pauli` then touch only those entries: permutations
/// move them, diagonals scale them, and a 2x2 pairs each entry with its
/// partner through the dense kernels' own `m00 * a0 + m01 * a1` and their
/// diagonal test. Every amplitude therefore equals the dense run's up to the
/// sign of a zero, and `sample` sums the support's norms in index order, so
/// it draws the dense scan's index. A compiled RevLib view holds at most 16
/// nonzero amplitudes (Table-I `rd84`: at most 12 of 4096), so its gates
/// cost a few entries instead of 2^n. Past the limit, and on `apply_fused`,
/// `apply_gang`, `apply_two_qubit`, `apply_matrix` and `normalize`, the
/// list is dropped and the dense kernels below run until the next reset.
///
/// Every gate runs on the calling thread as one call over its whole index
/// range. The library parallelizes across jobs (service::Service) and shots
/// (runtime::run_chunked in sim::sample), where the evaluation's many small
/// registers keep every core busy; a single register is never split.
///
/// The sweeps themselves go through the kernel layer
/// (sim/kernels/kernels.h). The 1q, diagonal, 4x4 and gang sweeps dispatch
/// on `kernels::simd_mode()`, which never changes a byte: the AVX2 kernels
/// compute the scalar kernels' bits, and the subspace kernels have one
/// flavour for both modes. See docs/ARCHITECTURE.md, "Kernel layer".
///
/// The register size is bounded only by memory; the RevLib experiments top
/// out at 12 qubits (4096 amplitudes), far below any practical limit.
class StateVector {
 public:
  /// Widest register: 2^28 amplitudes are 4 GiB.
  static constexpr int kMaxQubits = 28;

  /// The support limit: a register stays sparse while at most
  /// 2^(n - kSparseShift) of its amplitudes are nonzero, so registers below
  /// kSparseShift qubits are always dense. Measured on a 400-gate
  /// CX/CCX/T/RZ/X stream (support-preserving) over Hadamard-prepared
  /// supports of 2^k entries at 5-8, 10, 12 and 14 qubits, one thread,
  /// shared 4-core AVX2 host: a tracked gate costs about 12 ns per entry,
  /// 0.78-1.01x a dense gate at 2^n/32 entries and 1.29-2.29x at 2^n/16, so
  /// the register densifies above 2^n/32.
  static constexpr int kSparseShift = 5;

  /// Initializes |0...0> on `num_qubits` wires (0 <= num_qubits <=
  /// kMaxQubits).
  explicit StateVector(int num_qubits);

  StateVector(const StateVector&) = default;
  StateVector(StateVector&&) noexcept = default;
  StateVector& operator=(StateVector&&) noexcept = default;
  /// Copies the state; between equal-width sparse registers only the two
  /// supports are written (how an errored shot restores a checkpoint).
  StateVector& operator=(const StateVector& other);

  int num_qubits() const { return num_qubits_; }
  std::size_t dim() const { return amps_.size(); }
  const std::vector<cplx>& amplitudes() const { return amps_; }

  /// Resets to |0...0>.
  void reset();

  /// Sets the register to the computational basis state |index>.
  void set_basis_state(std::size_t index);

  /// Applies one gate (Barrier is a no-op). Throws InvalidArgument when a
  /// qubit is out of range or repeated.
  void apply_gate(const qir::Gate& gate);

  /// Applies every gate of the circuit in order. The circuit width must not
  /// exceed the register width.
  void apply_circuit(const qir::Circuit& circuit);

  /// Applies every op of a fusion plan (sim/fusion.h) in order — the fused
  /// equivalent of apply_circuit on the plan's source circuit. The plan width
  /// must not exceed the register width. Fused kernels reorder floating-point
  /// arithmetic relative to the gate-by-gate sweeps, so the result is
  /// tolerance-equal — not bit-identical — to apply_circuit (a plan built
  /// with a fence before every gate degenerates to apply_gate calls and IS
  /// bit-identical). Replaying the SAME plan always gives the same bits.
  ///
  /// When the register is wider than `tile_qubits()`, runs of consecutive
  /// tile-local ops (every qubit below the tile width) execute tile by tile:
  /// each 2^tile_qubits-amplitude slab is loaded once and swept by the whole
  /// run while L2-resident, instead of streaming the full vector once per
  /// op. Tiling only reorders memory traversal — each amplitude sees the
  /// identical arithmetic sequence — so tiled output is bit-identical to
  /// untiled.
  void apply_fused(const FusionPlan& plan);

  /// Applies an arbitrary 2x2 matrix to qubit q in one amplitude sweep (the
  /// public face of the single-qubit kernel; apply_gate routes the named 1q
  /// kinds other than the Paulis through the same loop).
  void apply_matrix(const cplx m[2][2], int q);

  /// Applies each op's 2x2 to its qubit in ONE amplitude sweep. Qubits must
  /// be distinct, in range, and at most kMaxGangQubits many; ops are applied
  /// in vector order (they commute exactly — all on distinct qubits). Each
  /// 2^k-amplitude block is gathered once, transformed in cache, and
  /// scattered back: k gates for the memory traffic of one.
  void apply_gang(const std::vector<SingleQubitOp>& ops);

  /// Applies an arbitrary 4x4 matrix to the qubit pair (a, b), a != b, in
  /// one amplitude sweep. The local basis index of the 4-dim subspace is
  /// `(bit_b << 1) | bit_a` — qubit `a` is the LOW local bit, whatever the
  /// relative wire order of a and b. `sim::two_qubit_matrix` (fusion.h)
  /// builds matrices in this convention.
  void apply_two_qubit(const cplx m[4][4], int a, int b);

  /// Largest gang sweep apply_gang accepts (2^6 = 64 amplitudes of scratch
  /// per block — comfortably in L1).
  static constexpr int kMaxGangQubits = 6;

  /// Applies a single Pauli ('I', 'X', 'Y' or 'Z') to qubit q — the noise
  /// channel injection primitive for trajectory simulation. Calls the
  /// subspace kernels directly (X swaps, Y swaps with exact ±i products, Z
  /// negates the |1> half), with no qir::Gate built per injection.
  void apply_pauli(char pauli, int q);

  /// Measurement probabilities |amp|^2 for every basis state.
  std::vector<double> probabilities() const;

  /// Draws one measurement outcome (basis index) without collapsing.
  std::size_t sample(Rng& rng) const;

  /// <this|other>; registers must have equal width.
  cplx inner(const StateVector& other) const;

  /// |<this|other>|^2.
  double fidelity(const StateVector& other) const;

  /// Max |amp_i - other.amp_i| — used by tests for exactness checks.
  double max_abs_diff(const StateVector& other) const;

  /// Renormalizes (guards against drift in long trajectories).
  void normalize();

  /// Overrides the tile width (in qubits) of apply_fused's cache blocking.
  /// Tests shrink it to exercise tiling on small registers; anything at or
  /// above num_qubits() disables tiling. Purely a traversal-order knob —
  /// never changes bits.
  void set_tile_qubits(int qubits) { tile_qubits_ = qubits; }
  int tile_qubits() const { return tile_qubits_; }

  /// Default tile: 2^13 amplitudes = 128 KiB — comfortably L2-resident with
  /// room for the rest of the working set.
  static constexpr int kDefaultTileQubits = 13;

 private:
  void apply_single_qubit(const cplx m[2][2], int q);

  /// The basis state |index>, sparse when the width allows.
  void to_basis(std::size_t index);

  /// Drops the support list; the dense kernels run until the next reset.
  void densify() {
    sparse_ = false;
    support_.clear();
  }

  /// Sparse form of a subspace kernel: `pair(amps[i0], amps[i0 ^ s.flip])`
  /// once per pair with a support entry in it (`flip == 0` passes the same
  /// amplitude twice), then the support is rebuilt from the nonzero results.
  template <typename PairOp>
  void sparse_pairs(const kernels::Subspace& s, PairOp pair);

  /// Applies one fused op (the unit apply_fused iterates) to the full
  /// register (defined in fusion.cpp, where FusedOp is complete).
  void apply_fused_op(const FusedOp& op);

  /// Runs `kernel(amps, begin, end, s)` over every index of the subspace
  /// `s` — the permutation and controlled gates (sim/kernels/kernels.h) —
  /// or, while sparse, `pair` over the support's pairs (sparse_pairs).
  template <typename Kernel, typename PairOp>
  void run_subspace(const kernels::Subspace& s, Kernel kernel, PairOp pair);

  /// Executes `count` consecutive tile-local fused ops tile by tile
  /// (defined in fusion.cpp, where FusedOp is complete).
  void apply_tiled_run(const FusedOp* ops, std::size_t count);

  int num_qubits_;
  int tile_qubits_ = kDefaultTileQubits;
  std::vector<cplx> amps_;
  /// While sparse: every index whose amplitude is nonzero, each once, in no
  /// particular order. Empty once dense.
  std::vector<std::size_t> support_;
  bool sparse_ = false;
  std::vector<std::size_t> pairs_;  ///< sparse_pairs scratch, empty between calls
};

/// 2x2 matrix for a single-qubit kind (throws for multi-qubit kinds).
void single_qubit_matrix(qir::GateKind kind, const std::vector<double>& params,
                         cplx out[2][2]);

}  // namespace tetris::sim
