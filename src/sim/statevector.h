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
/// Gate kernels run multi-threaded on the global runtime::ThreadPool once
/// the register reaches `parallel_threshold()` qubits; below that they use
/// the serial loops. Both paths compute every amplitude with identical
/// arithmetic (gate application touches each amplitude pair independently,
/// with no cross-element reductions), so parallel results are bit-identical
/// to serial ones at any thread count.
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
  /// Registers below this width (in qubits) always use the serial kernels.
  /// Below 2^16 amplitudes a gate costs less than a trip through the pool:
  /// issued from a non-worker thread to 4 workers on a 4-core AVX2 host, a
  /// CX/RY/RZ mix took 21-23 us per gate against 13-18 us serial at 14
  /// qubits and 45-50 us against 24-28 us at 15; the paths are within 10%
  /// at 16 qubits, and the pool wins from 17 (78-89 us against 111-118 us).
  static constexpr int kDefaultParallelThresholdQubits = 16;

  /// Widest register: 2^28 amplitudes are 4 GiB.
  static constexpr int kMaxQubits = 28;

  /// Initializes |0...0> on `num_qubits` wires (0 <= num_qubits <=
  /// kMaxQubits).
  explicit StateVector(int num_qubits);

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
  /// bit-identical). Serial-vs-parallel execution of the SAME plan is
  /// bit-identical, like every other kernel here.
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

  /// Overrides the parallel/serial cutoff for this register. 0 forces the
  /// parallel kernels even on tiny registers (used by the equivalence tests);
  /// anything above num_qubits() pins the serial path.
  void set_parallel_threshold(int qubits) { parallel_threshold_ = qubits; }
  int parallel_threshold() const { return parallel_threshold_; }

  /// Overrides the amplitudes-per-chunk grain of the parallel kernels. The
  /// default (2^12) also serializes any register whose kernels fit in one
  /// chunk, so equivalence tests shrink it to force real multi-chunk
  /// execution on small registers.
  void set_parallel_grain(std::size_t grain) { parallel_grain_ = grain; }
  std::size_t parallel_grain() const { return parallel_grain_; }

  /// Default kernel grain: 2^12 complex doubles = 64 KiB per chunk — cache
  /// friendly while amortizing the scheduling cost.
  static constexpr std::size_t kDefaultParallelGrain = std::size_t{1} << 12;

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
  /// True when gate kernels should go through runtime::parallel_for.
  bool use_parallel() const { return num_qubits_ >= parallel_threshold_; }

  void apply_single_qubit(const cplx m[2][2], int q);

  /// Applies one fused op (the unit apply_fused iterates) to the full
  /// register (defined in fusion.cpp, where FusedOp is complete).
  void apply_fused_op(const FusedOp& op);

  /// Runs `kernel(amps, begin, end, s)` over every index of the subspace
  /// `s` — the permutation and controlled gates (sim/kernels/kernels.h).
  template <typename Kernel>
  void run_subspace(const kernels::Subspace& s, Kernel kernel);

  /// Executes `count` consecutive tile-local fused ops tile by tile
  /// (defined in fusion.cpp, where FusedOp is complete).
  void apply_tiled_run(const FusedOp* ops, std::size_t count);

  int num_qubits_;
  int parallel_threshold_ = kDefaultParallelThresholdQubits;
  std::size_t parallel_grain_ = kDefaultParallelGrain;
  int tile_qubits_ = kDefaultTileQubits;
  std::vector<cplx> amps_;
};

/// 2x2 matrix for a single-qubit kind (throws for multi-qubit kinds).
void single_qubit_matrix(qir::GateKind kind, const std::vector<double>& params,
                         cplx out[2][2]);

}  // namespace tetris::sim
