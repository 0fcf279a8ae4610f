#include "sim/kernels/kernels.h"

#ifdef TETRIS_HAVE_AVX2

#include <immintrin.h>

namespace tetris::sim::kernels {

namespace {

// Register layout: one __m256d holds TWO packed complex doubles,
// [re0, im0, re1, im1]. All arithmetic below is lane-local per complex
// number — a complex element's result never depends on which register
// slot (or register width) it occupied — so odd tails take the 128-bit
// path without changing a bit.

/// Broadcasts one complex into both 128-bit lanes.
inline __m256d bcast(cplx c) {
  return _mm256_setr_pd(c.real(), c.imag(), c.real(), c.imag());
}

/// Elementwise complex product x*y (two complex per register):
///   re = x.re*y.re - x.im*y.im   [addsub even lanes subtract]
///   im = x.im*y.re + x.re*y.im   [odd lanes add]
/// Both products round before the add, as in the scalar std::complex
/// multiply, and this file is compiled without FMA, so nothing fuses them.
/// With every sweep below summing in the scalar kernel's order, each AVX2
/// kernel writes exactly the scalar kernel's bits.
inline __m256d cmul(__m256d x, __m256d y) {
  const __m256d yr = _mm256_movedup_pd(y);       // [y.re, y.re, ...]
  const __m256d yi = _mm256_permute_pd(y, 0xF);  // [y.im, y.im, ...]
  const __m256d xs = _mm256_permute_pd(x, 0x5);  // [x.im, x.re, ...]
  return _mm256_addsub_pd(_mm256_mul_pd(x, yr), _mm256_mul_pd(xs, yi));
}

/// 128-bit cmul with per-lane arithmetic identical to the 256-bit one —
/// the odd-element tail path.
inline __m128d cmul1(__m128d x, __m128d y) {
  const __m128d yr = _mm_movedup_pd(y);
  const __m128d yi = _mm_permute_pd(y, 0x3);
  const __m128d xs = _mm_permute_pd(x, 0x1);
  return _mm_addsub_pd(_mm_mul_pd(x, yr), _mm_mul_pd(xs, yi));
}

inline __m128d bcast1(cplx c) { return _mm_setr_pd(c.real(), c.imag()); }

/// A 2x2 matrix pre-broadcast for both register widths.
struct M2v {
  __m256d m00, m01, m10, m11;
  __m128d s00, s01, s10, s11;
};

inline M2v load_m2(const M2& m) {
  return M2v{bcast(m.m00), bcast(m.m01), bcast(m.m10), bcast(m.m11),
             bcast1(m.m00), bcast1(m.m01), bcast1(m.m10), bcast1(m.m11)};
}

/// Applies [m00 m01; m10 m11] to n pairs (p0[i], p1[i]) of contiguous
/// amplitudes — the stride >= 2 body of the 1q sweep.
inline void rotate_run(cplx* p0, cplx* p1, std::size_t n, const M2v& v) {
  double* d0 = reinterpret_cast<double*>(p0);
  double* d1 = reinterpret_cast<double*>(p1);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d a0 = _mm256_loadu_pd(d0 + 2 * i);
    const __m256d a1 = _mm256_loadu_pd(d1 + 2 * i);
    _mm256_storeu_pd(d0 + 2 * i,
                     _mm256_add_pd(cmul(a0, v.m00), cmul(a1, v.m01)));
    _mm256_storeu_pd(d1 + 2 * i,
                     _mm256_add_pd(cmul(a0, v.m10), cmul(a1, v.m11)));
  }
  for (; i < n; ++i) {
    const __m128d a0 = _mm_loadu_pd(d0 + 2 * i);
    const __m128d a1 = _mm_loadu_pd(d1 + 2 * i);
    _mm_storeu_pd(d0 + 2 * i,
                  _mm_add_pd(cmul1(a0, v.s00), cmul1(a1, v.s01)));
    _mm_storeu_pd(d1 + 2 * i,
                  _mm_add_pd(cmul1(a0, v.s10), cmul1(a1, v.s11)));
  }
}

/// The q == 0 body: pairs are adjacent amplitudes, so two pairs are
/// deinterleaved across two registers with 128-bit lane shuffles.
inline void rotate_interleaved(cplx* amps, std::size_t pairs, const M2v& v) {
  double* d = reinterpret_cast<double*>(amps);
  std::size_t k = 0;
  for (; k + 2 <= pairs; k += 2) {
    const __m256d u = _mm256_loadu_pd(d + 4 * k);      // pair k
    const __m256d w = _mm256_loadu_pd(d + 4 * k + 4);  // pair k+1
    const __m256d a0 = _mm256_permute2f128_pd(u, w, 0x20);  // [u.a0, w.a0]
    const __m256d a1 = _mm256_permute2f128_pd(u, w, 0x31);  // [u.a1, w.a1]
    const __m256d r0 = _mm256_add_pd(cmul(a0, v.m00), cmul(a1, v.m01));
    const __m256d r1 = _mm256_add_pd(cmul(a0, v.m10), cmul(a1, v.m11));
    _mm256_storeu_pd(d + 4 * k, _mm256_permute2f128_pd(r0, r1, 0x20));
    _mm256_storeu_pd(d + 4 * k + 4, _mm256_permute2f128_pd(r0, r1, 0x31));
  }
  for (; k < pairs; ++k) {
    const __m128d a0 = _mm_loadu_pd(d + 4 * k);
    const __m128d a1 = _mm_loadu_pd(d + 4 * k + 2);
    _mm_storeu_pd(d + 4 * k,
                  _mm_add_pd(cmul1(a0, v.s00), cmul1(a1, v.s01)));
    _mm_storeu_pd(d + 4 * k + 2,
                  _mm_add_pd(cmul1(a0, v.s10), cmul1(a1, v.s11)));
  }
}

/// Multiplies n contiguous amplitudes by one coefficient.
inline void scale_run(cplx* p, std::size_t n, __m256d mv, __m128d ms) {
  double* d = reinterpret_cast<double*>(p);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm256_storeu_pd(d + 2 * i, cmul(_mm256_loadu_pd(d + 2 * i), mv));
  }
  for (; i < n; ++i) {
    _mm_storeu_pd(d + 2 * i, cmul1(_mm_loadu_pd(d + 2 * i), ms));
  }
}

}  // namespace

void sweep_1q_avx2(cplx* amps, std::size_t pairs, int q, const M2& m) {
  const M2v v = load_m2(m);
  if (q == 0) {
    rotate_interleaved(amps, pairs, v);
    return;
  }
  // Pair indices run contiguously in blocks of `stride` before the spliced
  // zero bit forces a jump over the partners.
  const std::size_t stride = std::size_t{1} << q;
  for (std::size_t i0 = 0; i0 < 2 * pairs; i0 += 2 * stride) {
    rotate_run(amps + i0, amps + i0 + stride, stride, v);
  }
}

void sweep_diag_avx2(cplx* amps, std::size_t dim, int q, cplx m00,
                     cplx m11) {
  if (q == 0) {
    // The coefficient alternates per amplitude: pack [m00, m11] into one
    // register, so lane parity tracks index parity (a register starts at
    // an even index; dim is even, as the register has a qubit 0).
    const __m256d mv = _mm256_setr_pd(m00.real(), m00.imag(),
                                      m11.real(), m11.imag());
    double* d = reinterpret_cast<double*>(amps);
    for (std::size_t i = 0; i < dim; i += 2) {
      _mm256_storeu_pd(d + 2 * i, cmul(_mm256_loadu_pd(d + 2 * i), mv));
    }
    return;
  }
  // Blocks of `stride` amplitudes alternate between bit q clear and set.
  const std::size_t stride = std::size_t{1} << q;
  const __m256d v00 = bcast(m00), v11 = bcast(m11);
  const __m128d s00 = bcast1(m00), s11 = bcast1(m11);
  for (std::size_t i = 0; i < dim; i += 2 * stride) {
    scale_run(amps + i, stride, v00, s00);
    scale_run(amps + i + stride, stride, v11, s11);
  }
}

}  // namespace tetris::sim::kernels

#else  // !TETRIS_HAVE_AVX2

namespace tetris::sim::kernels {

// Builds without the AVX2 toolchain flag still link every kernel symbol;
// simd_mode() can never resolve to kAvx2 here (avx2_available() is false),
// so these forwards are unreachable belt-and-braces.

void sweep_1q_avx2(cplx* amps, std::size_t pairs, int q, const M2& m) {
  sweep_1q_scalar(amps, pairs, q, m);
}

void sweep_diag_avx2(cplx* amps, std::size_t dim, int q, cplx m00,
                     cplx m11) {
  sweep_diag_scalar(amps, dim, q, m00, m11);
}

}  // namespace tetris::sim::kernels

#endif  // TETRIS_HAVE_AVX2
