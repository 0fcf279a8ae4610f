#pragma once

#include <cstddef>

#include "sim/kernels/simd.h"
#include "sim/statevector.h"

namespace tetris::sim::kernels {

/// The amplitude-sweep kernels behind StateVector's gate application, in one
/// scalar and one AVX2 flavour each.
///
/// Every kernel operates on a REGION: a base pointer plus an index range in
/// the region's own coordinates. Passing the full amplitude array with a
/// chunk of its global range runs the classic whole-vector sweep (this is
/// what runtime::parallel_for chunks feed); passing a 2^t-amplitude tile
/// with its full local range runs the same gate on one cache-resident tile
/// (the L2 blocking path of StateVector::apply_fused). Both uses execute
/// identical per-amplitude arithmetic, so tiled and untiled sweeps are
/// bit-identical.
///
/// One determinism rule covers every kernel: the SIMD mode never changes a
/// byte. The scalar kernels are verbatim copies of the historical
/// StateVector loops. The AVX2 kernels compute each amplitude with the same
/// products, roundings and summation order, two amplitudes per register and
/// no FMA, so they write the scalar kernels' bits wherever a chunk boundary
/// falls. The permutation and controlled kernels at the end of this header
/// have no AVX2 flavour: each amplitude they write equals the historical
/// per-pair loop's value (up to the sign of a zero).

/// One 2x2 complex matrix, flattened for by-value capture into kernels.
struct M2 {
  cplx m00, m01, m10, m11;
};

/// One 4x4 complex matrix, row-major.
struct M4 {
  cplx v[16];
};

/// Precomputed execution form of one gang sweep (k distinct-qubit 2x2s in
/// one gathered pass). Built once per apply_gang / tiled run by
/// make_gang_plan, then shared read-only by every chunk and tile.
struct GangPlan {
  int count = 0;            ///< number of ops == distinct qubits (k)
  std::size_t block = 0;    ///< 2^k amplitudes gathered per outer index
  int sorted[StateVector::kMaxGangQubits] = {};  ///< gang qubits, ascending
  /// offsets[l]: global offset of local index l from a block's base index
  /// (local bit p maps to wire sorted[p]).
  std::size_t offsets[std::size_t{1} << StateVector::kMaxGangQubits] = {};
  /// local_pos[j]: position of op j's qubit within `sorted` — its local
  /// "qubit" inside the gathered block. Ops stay in stream order.
  int local_pos[StateVector::kMaxGangQubits] = {};
  M2 m[StateVector::kMaxGangQubits];  ///< op j's matrix, stream order
};

/// Builds the gang execution plan. Preconditions (distinct qubits, count
/// within kMaxGangQubits) are the caller's — apply_gang validates them.
GangPlan make_gang_plan(const SingleQubitOp* ops, std::size_t count);

/// Decomposes `m` as a monomial matrix (exactly one nonzero per row):
/// row r's output is coef[r] * input[src[r]]. Returns false when any row has
/// zero or several nonzeros. Both SIMD modes use this one decomposition, so
/// they always agree on which kernel runs.
bool monomial_decompose(const M4& m, int src[4], cplx coef[4]);

// --- 2x2 pair sweep over pair indices [k_begin, k_end), target qubit q ---
void sweep_1q_scalar(cplx* amps, std::size_t k_begin, std::size_t k_end,
                     int q, const M2& m);
void sweep_1q_avx2(cplx* amps, std::size_t k_begin, std::size_t k_end,
                   int q, const M2& m);

// --- diagonal 2x2 over amplitude indices [i_begin, i_end) ---
void sweep_diag_scalar(cplx* amps, std::size_t i_begin, std::size_t i_end,
                       int q, cplx m00, cplx m11);
void sweep_diag_avx2(cplx* amps, std::size_t i_begin, std::size_t i_end,
                     int q, cplx m00, cplx m11);

// --- dense 4x4 over quad indices [idx_begin, idx_end), wire pair (a, b) ---
// Local basis (bit_b << 1) | bit_a, exactly StateVector::apply_two_qubit.
void sweep_2q_scalar(cplx* amps, std::size_t idx_begin, std::size_t idx_end,
                     int a, int b, const M4& m);
void sweep_2q_avx2(cplx* amps, std::size_t idx_begin, std::size_t idx_end,
                   int a, int b, const M4& m);

// --- monomial 4x4 (src/coef from monomial_decompose), same index space ---
void sweep_2q_monomial_scalar(cplx* amps, std::size_t idx_begin,
                              std::size_t idx_end, int a, int b,
                              const int src[4], const cplx coef[4]);
void sweep_2q_monomial_avx2(cplx* amps, std::size_t idx_begin,
                            std::size_t idx_end, int a, int b,
                            const int src[4], const cplx coef[4]);

// --- gang sweep over outer (block) indices [outer_begin, outer_end) ---
// Each block applies the plan's 2x2s in op order with exactly the
// per-amplitude arithmetic of the 1q pair sweep above, so a gang of single
// unmerged gates reproduces the unfused stream amplitude-for-amplitude.
void sweep_gang_scalar(cplx* amps, std::size_t outer_begin,
                       std::size_t outer_end, const GangPlan& g);
void sweep_gang_avx2(cplx* amps, std::size_t outer_begin,
                     std::size_t outer_end, const GangPlan& g);

// --- mode dispatchers ---
inline void sweep_1q(SimdMode mode, cplx* amps, std::size_t k_begin,
                     std::size_t k_end, int q, const M2& m) {
  if (mode == SimdMode::kAvx2) {
    sweep_1q_avx2(amps, k_begin, k_end, q, m);
  } else {
    sweep_1q_scalar(amps, k_begin, k_end, q, m);
  }
}

inline void sweep_diag(SimdMode mode, cplx* amps, std::size_t i_begin,
                       std::size_t i_end, int q, cplx m00, cplx m11) {
  if (mode == SimdMode::kAvx2) {
    sweep_diag_avx2(amps, i_begin, i_end, q, m00, m11);
  } else {
    sweep_diag_scalar(amps, i_begin, i_end, q, m00, m11);
  }
}

inline void sweep_2q(SimdMode mode, cplx* amps, std::size_t idx_begin,
                     std::size_t idx_end, int a, int b, const M4& m) {
  if (mode == SimdMode::kAvx2) {
    sweep_2q_avx2(amps, idx_begin, idx_end, a, b, m);
  } else {
    sweep_2q_scalar(amps, idx_begin, idx_end, a, b, m);
  }
}

inline void sweep_2q_monomial(SimdMode mode, cplx* amps, std::size_t idx_begin,
                              std::size_t idx_end, int a, int b,
                              const int src[4], const cplx coef[4]) {
  if (mode == SimdMode::kAvx2) {
    sweep_2q_monomial_avx2(amps, idx_begin, idx_end, a, b, src, coef);
  } else {
    sweep_2q_monomial_scalar(amps, idx_begin, idx_end, a, b, src, coef);
  }
}

inline void sweep_gang(SimdMode mode, cplx* amps, std::size_t outer_begin,
                       std::size_t outer_end, const GangPlan& g) {
  if (mode == SimdMode::kAvx2) {
    sweep_gang_avx2(amps, outer_begin, outer_end, g);
  } else {
    sweep_gang_scalar(amps, outer_begin, outer_end, g);
  }
}

// --- permutation and controlled kernels (one flavour for both modes) ---

/// Where a permutation or controlled kernel acts. Subspace index j visits
/// the amplitude base(j) | set, where base(j) is j with a zero bit spliced
/// in at every wire of `spliced` (the gate's controls and targets). `set`
/// carries the control bits, so only amplitudes whose controls are all set
/// are ever read: a gate with s spliced wires visits 2^(n-s) indices. The
/// pair kernels pair index i0 = base(j) | set with i1 = i0 ^ flip.
///
///   X / CX / CCX / MCX  spliced = controls|t   set = controls    flip = t
///   SWAP / CSWAP        spliced = controls|a|b set = controls|a  flip = a|b
///
/// Consecutive j map to consecutive amplitudes in runs as long as the
/// lowest spliced wire's stride, which is what the kernels stream over.
struct Subspace {
  std::size_t spliced = 0;  ///< wire bits spliced out of the index; nonzero
  std::size_t set = 0;      ///< bits OR-ed into every visited index
  std::size_t flip = 0;     ///< pair kernels: partner index = i0 ^ flip
};

/// Number of subspace indices of a 2^n register (dim >> popcount(spliced)).
std::size_t subspace_size(std::size_t dim, const Subspace& s);

/// Swaps amps[i0] and amps[i1] for every subspace index in [begin, end):
/// the X family and SWAP/CSWAP, with no arithmetic at all.
void sweep_swap(cplx* amps, std::size_t begin, std::size_t end,
                const Subspace& s);

/// The Pauli Y on a pair: amps[i0] = -i * a1, amps[i1] = i * a0 — a swap
/// whose two products are exact.
void sweep_swap_y(cplx* amps, std::size_t begin, std::size_t end,
                  const Subspace& s);

/// amps[i0] *= c for every subspace index (`flip` is unused): the CZ / CP
/// / CRZ diagonals and the Pauli Z, one coefficient per pass.
void sweep_scale(cplx* amps, std::size_t begin, std::size_t end,
                 const Subspace& s, cplx c);

/// [m00 m01; m10 m11] on each (i0, i1) pair with the historical
/// `m00 * a0 + m01 * a1` arithmetic: CY and CH on their control subspace.
void sweep_controlled_1q(cplx* amps, std::size_t begin, std::size_t end,
                         const Subspace& s, const M2& m);

/// The Pauli 'X', 'Y' or 'Z' on qubit q over pair indices [begin, end) of
/// the 2^(n-1) pairs that differ in bit q: X swaps, Y is sweep_swap_y, Z
/// negates the |1> half. Any other character is a no-op ('I'). The one
/// Pauli path of both StateVector::apply_pauli and the fused tiles.
void sweep_pauli(char pauli, cplx* amps, std::size_t begin, std::size_t end,
                 int q);

}  // namespace tetris::sim::kernels
