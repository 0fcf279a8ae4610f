#pragma once

#include <cstddef>

#include "sim/kernels/simd.h"
#include "sim/statevector.h"

namespace tetris::sim::kernels {

/// The amplitude-sweep kernels behind StateVector's gate application.
///
/// Every kernel sweeps a whole register: StateVector passes the amplitude
/// array and the number of pair, amplitude or subspace indices to visit,
/// one call per gate. Each index's result depends on nothing but that
/// index.
///
/// One determinism rule covers every kernel: the SIMD mode never changes a
/// byte. The 1q and diagonal sweeps come in one scalar and one AVX2
/// flavour. The scalar kernels are verbatim copies of the historical
/// StateVector loops. The AVX2 kernels compute each amplitude with the same
/// products, roundings and summation order, two amplitudes per register and
/// no FMA, so they write the scalar kernels' bits. The permutation and
/// controlled kernels at the end of this header have no AVX2 flavour: each
/// amplitude they write equals the historical per-pair loop's value (up to
/// the sign of a zero).

/// One 2x2 complex matrix, flattened for by-value capture into kernels.
struct M2 {
  cplx m00, m01, m10, m11;
};

// --- 2x2 over the 2^(n-1) pair indices [0, pairs), target qubit q ---
void sweep_1q_scalar(cplx* amps, std::size_t pairs, int q, const M2& m);
void sweep_1q_avx2(cplx* amps, std::size_t pairs, int q, const M2& m);

// --- diagonal 2x2 over the amplitude indices [0, dim) ---
void sweep_diag_scalar(cplx* amps, std::size_t dim, int q, cplx m00,
                       cplx m11);
void sweep_diag_avx2(cplx* amps, std::size_t dim, int q, cplx m00, cplx m11);

// --- mode dispatchers ---
inline void sweep_1q(SimdMode mode, cplx* amps, std::size_t pairs, int q,
                     const M2& m) {
  if (mode == SimdMode::kAvx2) {
    sweep_1q_avx2(amps, pairs, q, m);
  } else {
    sweep_1q_scalar(amps, pairs, q, m);
  }
}

inline void sweep_diag(SimdMode mode, cplx* amps, std::size_t dim, int q,
                       cplx m00, cplx m11) {
  if (mode == SimdMode::kAvx2) {
    sweep_diag_avx2(amps, dim, q, m00, m11);
  } else {
    sweep_diag_scalar(amps, dim, q, m00, m11);
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

/// Swaps amps[i0] and amps[i1] for every subspace index in [0, count):
/// the X family and SWAP/CSWAP, with no arithmetic at all.
void sweep_swap(cplx* amps, std::size_t count, const Subspace& s);

/// The Pauli Y on a pair: amps[i0] = -i * a1, amps[i1] = i * a0 — a swap
/// whose two products are exact.
void sweep_swap_y(cplx* amps, std::size_t count, const Subspace& s);

/// amps[i0] *= c for every subspace index (`flip` is unused): the CZ / CP
/// / CRZ diagonals and the Pauli Z, one coefficient per pass.
void sweep_scale(cplx* amps, std::size_t count, const Subspace& s, cplx c);

/// [m00 m01; m10 m11] on each (i0, i1) pair with the historical
/// `m00 * a0 + m01 * a1` arithmetic: CY and CH on their control subspace.
void sweep_controlled_1q(cplx* amps, std::size_t count, const Subspace& s,
                         const M2& m);

/// The Pauli 'X', 'Y' or 'Z' on qubit q over the 2^(n-1) pair indices
/// [0, pairs) that differ in bit q: X swaps, Y is sweep_swap_y, Z negates
/// the |1> half. Any other character is a no-op ('I'). The dense path of
/// StateVector::apply_pauli.
void sweep_pauli(char pauli, cplx* amps, std::size_t pairs, int q);

}  // namespace tetris::sim::kernels
