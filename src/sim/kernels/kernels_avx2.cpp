#include <algorithm>

#include "sim/kernels/kernels.h"

#ifdef TETRIS_HAVE_AVX2

#include <immintrin.h>

namespace tetris::sim::kernels {

namespace {

// Register layout: one __m256d holds TWO packed complex doubles,
// [re0, im0, re1, im1]. All arithmetic below is lane-local per complex
// number — a complex element's result never depends on which register
// slot (or register width) it occupied — so chunk boundaries and odd tails
// cannot change bits, which is what keeps parallel AVX2 sweeps
// bit-identical to serial ones.

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
/// amplitudes — the stride >= 2 body of the 1q sweep and of every gang 2x2.
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
inline void rotate_interleaved(cplx* amps, std::size_t k_begin,
                               std::size_t k_end, const M2v& v) {
  double* d = reinterpret_cast<double*>(amps);
  std::size_t k = k_begin;
  for (; k + 2 <= k_end; k += 2) {
    const __m256d u = _mm256_loadu_pd(d + 4 * k);      // pair k
    const __m256d w = _mm256_loadu_pd(d + 4 * k + 4);  // pair k+1
    const __m256d a0 = _mm256_permute2f128_pd(u, w, 0x20);  // [u.a0, w.a0]
    const __m256d a1 = _mm256_permute2f128_pd(u, w, 0x31);  // [u.a1, w.a1]
    const __m256d r0 = _mm256_add_pd(cmul(a0, v.m00), cmul(a1, v.m01));
    const __m256d r1 = _mm256_add_pd(cmul(a0, v.m10), cmul(a1, v.m11));
    _mm256_storeu_pd(d + 4 * k, _mm256_permute2f128_pd(r0, r1, 0x20));
    _mm256_storeu_pd(d + 4 * k + 4, _mm256_permute2f128_pd(r0, r1, 0x31));
  }
  for (; k < k_end; ++k) {
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

void sweep_1q_avx2(cplx* amps, std::size_t k_begin, std::size_t k_end,
                   int q, const M2& m) {
  const M2v v = load_m2(m);
  if (q == 0) {
    rotate_interleaved(amps, k_begin, k_end, v);
    return;
  }
  const std::size_t stride = std::size_t{1} << q;
  std::size_t k = k_begin;
  while (k < k_end) {
    // i0 runs contiguously for `run` pair indices before the spliced zero
    // bit forces a jump.
    const std::size_t i0 = ((k >> q) << (q + 1)) | (k & (stride - 1));
    const std::size_t run =
        std::min(stride - (k & (stride - 1)), k_end - k);
    rotate_run(amps + i0, amps + i0 + stride, run, v);
    k += run;
  }
}

void sweep_diag_avx2(cplx* amps, std::size_t i_begin, std::size_t i_end,
                     int q, cplx m00, cplx m11) {
  if (q == 0) {
    // The coefficient alternates per amplitude: pack [m00, m11] into one
    // register and peel to an even boundary so lane parity tracks index
    // parity (per-lane results are position-independent either way).
    const __m256d mv = _mm256_setr_pd(m00.real(), m00.imag(),
                                      m11.real(), m11.imag());
    const __m128d s00 = bcast1(m00);
    const __m128d s11 = bcast1(m11);
    double* d = reinterpret_cast<double*>(amps);
    std::size_t i = i_begin;
    if (i < i_end && (i & 1) != 0) {
      _mm_storeu_pd(d + 2 * i, cmul1(_mm_loadu_pd(d + 2 * i), s11));
      ++i;
    }
    for (; i + 2 <= i_end; i += 2) {
      _mm256_storeu_pd(d + 2 * i, cmul(_mm256_loadu_pd(d + 2 * i), mv));
    }
    for (; i < i_end; ++i) {
      _mm_storeu_pd(d + 2 * i, cmul1(_mm_loadu_pd(d + 2 * i), s00));
    }
    return;
  }
  const std::size_t stride = std::size_t{1} << q;
  const __m256d v00 = bcast(m00), v11 = bcast(m11);
  const __m128d s00 = bcast1(m00), s11 = bcast1(m11);
  std::size_t i = i_begin;
  while (i < i_end) {
    const std::size_t run = std::min(stride - (i & (stride - 1)), i_end - i);
    if ((i >> q) & 1) {
      scale_run(amps + i, run, v11, s11);
    } else {
      scale_run(amps + i, run, v00, s00);
    }
    i += run;
  }
}

void sweep_2q_avx2(cplx* amps, std::size_t idx_begin, std::size_t idx_end,
                   int a, int b, const M4& m) {
  const std::size_t bit_a = std::size_t{1} << a;
  const std::size_t bit_b = std::size_t{1} << b;
  const int lo = std::min(a, b);
  const int hi = std::max(a, b);
  // Column vectors: c01[c] = [m[0][c], m[1][c]], c23[c] = [m[2][c], m[3][c]];
  // accumulating cmul(v_c, col_c) left to right mirrors the scalar kernel's
  // v0..v3 sum order.
  __m256d c01[4], c23[4];
  for (int c = 0; c < 4; ++c) {
    c01[c] = _mm256_setr_pd(m.v[0 * 4 + c].real(), m.v[0 * 4 + c].imag(),
                            m.v[1 * 4 + c].real(), m.v[1 * 4 + c].imag());
    c23[c] = _mm256_setr_pd(m.v[2 * 4 + c].real(), m.v[2 * 4 + c].imag(),
                            m.v[3 * 4 + c].real(), m.v[3 * 4 + c].imag());
  }
  const double* base_d = reinterpret_cast<const double*>(amps);
  for (std::size_t idx = idx_begin; idx < idx_end; ++idx) {
    std::size_t base = ((idx >> lo) << (lo + 1)) |
                       (idx & ((std::size_t{1} << lo) - 1));
    base = ((base >> hi) << (hi + 1)) |
           (base & ((std::size_t{1} << hi) - 1));
    const std::size_t i0 = base;
    const std::size_t i1 = base | bit_a;
    const std::size_t i2 = base | bit_b;
    const std::size_t i3 = base | bit_a | bit_b;
    const __m256d v0 = _mm256_broadcast_pd(
        reinterpret_cast<const __m128d*>(base_d + 2 * i0));
    const __m256d v1 = _mm256_broadcast_pd(
        reinterpret_cast<const __m128d*>(base_d + 2 * i1));
    const __m256d v2 = _mm256_broadcast_pd(
        reinterpret_cast<const __m128d*>(base_d + 2 * i2));
    const __m256d v3 = _mm256_broadcast_pd(
        reinterpret_cast<const __m128d*>(base_d + 2 * i3));
    __m256d r01 = cmul(v0, c01[0]);
    r01 = _mm256_add_pd(r01, cmul(v1, c01[1]));
    r01 = _mm256_add_pd(r01, cmul(v2, c01[2]));
    r01 = _mm256_add_pd(r01, cmul(v3, c01[3]));
    __m256d r23 = cmul(v0, c23[0]);
    r23 = _mm256_add_pd(r23, cmul(v1, c23[1]));
    r23 = _mm256_add_pd(r23, cmul(v2, c23[2]));
    r23 = _mm256_add_pd(r23, cmul(v3, c23[3]));
    double* d = reinterpret_cast<double*>(amps);
    _mm_storeu_pd(d + 2 * i0, _mm256_castpd256_pd128(r01));
    _mm_storeu_pd(d + 2 * i1, _mm256_extractf128_pd(r01, 1));
    _mm_storeu_pd(d + 2 * i2, _mm256_castpd256_pd128(r23));
    _mm_storeu_pd(d + 2 * i3, _mm256_extractf128_pd(r23, 1));
  }
}

void sweep_2q_monomial_avx2(cplx* amps, std::size_t idx_begin,
                            std::size_t idx_end, int a, int b,
                            const int src[4], const cplx coef[4]) {
  const std::size_t bit_a = std::size_t{1} << a;
  const std::size_t bit_b = std::size_t{1} << b;
  const int lo = std::min(a, b);
  const int hi = std::max(a, b);
  const __m256d c01 = _mm256_setr_pd(coef[0].real(), coef[0].imag(),
                                     coef[1].real(), coef[1].imag());
  const __m256d c23 = _mm256_setr_pd(coef[2].real(), coef[2].imag(),
                                     coef[3].real(), coef[3].imag());
  const int s0 = src[0], s1 = src[1], s2 = src[2], s3 = src[3];
  double* d = reinterpret_cast<double*>(amps);
  for (std::size_t idx = idx_begin; idx < idx_end; ++idx) {
    std::size_t base = ((idx >> lo) << (lo + 1)) |
                       (idx & ((std::size_t{1} << lo) - 1));
    base = ((base >> hi) << (hi + 1)) |
           (base & ((std::size_t{1} << hi) - 1));
    std::size_t at[4];
    at[0] = base;
    at[1] = base | bit_a;
    at[2] = base | bit_b;
    at[3] = base | bit_a | bit_b;
    // Gather before the stores: src is a permutation, so sources alias the
    // destinations.
    const __m128d v0 = _mm_loadu_pd(d + 2 * at[s0]);
    const __m128d v1 = _mm_loadu_pd(d + 2 * at[s1]);
    const __m128d v2 = _mm_loadu_pd(d + 2 * at[s2]);
    const __m128d v3 = _mm_loadu_pd(d + 2 * at[s3]);
    const __m256d x01 =
        _mm256_insertf128_pd(_mm256_castpd128_pd256(v0), v1, 1);
    const __m256d x23 =
        _mm256_insertf128_pd(_mm256_castpd128_pd256(v2), v3, 1);
    const __m256d r01 = cmul(x01, c01);
    const __m256d r23 = cmul(x23, c23);
    _mm_storeu_pd(d + 2 * at[0], _mm256_castpd256_pd128(r01));
    _mm_storeu_pd(d + 2 * at[1], _mm256_extractf128_pd(r01, 1));
    _mm_storeu_pd(d + 2 * at[2], _mm256_castpd256_pd128(r23));
    _mm_storeu_pd(d + 2 * at[3], _mm256_extractf128_pd(r23, 1));
  }
}

void sweep_gang_avx2(cplx* amps, std::size_t outer_begin,
                     std::size_t outer_end, const GangPlan& g) {
  const int k = g.count;
  const std::size_t block = g.block;
  M2v mv[StateVector::kMaxGangQubits];
  for (int j = 0; j < k; ++j) mv[j] = load_m2(g.m[j]);
  cplx local[std::size_t{1} << StateVector::kMaxGangQubits];
  for (std::size_t outer = outer_begin; outer < outer_end; ++outer) {
    std::size_t base = outer;
    for (int p = 0; p < k; ++p) {
      const int q = g.sorted[p];
      base = ((base >> q) << (q + 1)) |
             (base & ((std::size_t{1} << q) - 1));
    }
    for (std::size_t l = 0; l < block; ++l) {
      local[l] = amps[base + g.offsets[l]];
    }
    // Per op: the same rotate bodies as sweep_1q_avx2 on the local block,
    // so a gang of single unmerged gates matches the unfused AVX2 stream
    // amplitude for amplitude.
    for (int j = 0; j < k; ++j) {
      const int p = g.local_pos[j];
      if (p == 0) {
        rotate_interleaved(local, 0, block >> 1, mv[j]);
      } else {
        const std::size_t s = std::size_t{1} << p;
        for (std::size_t top = 0; top < block; top += 2 * s) {
          rotate_run(local + top, local + top + s, s, mv[j]);
        }
      }
    }
    for (std::size_t l = 0; l < block; ++l) {
      amps[base + g.offsets[l]] = local[l];
    }
  }
}

}  // namespace tetris::sim::kernels

#else  // !TETRIS_HAVE_AVX2

namespace tetris::sim::kernels {

// Builds without the AVX2 toolchain flag still link every kernel symbol;
// simd_mode() can never resolve to kAvx2 here (avx2_available() is false),
// so these forwards are unreachable belt-and-braces.

void sweep_1q_avx2(cplx* amps, std::size_t k_begin, std::size_t k_end,
                   int q, const M2& m) {
  sweep_1q_scalar(amps, k_begin, k_end, q, m);
}

void sweep_diag_avx2(cplx* amps, std::size_t i_begin, std::size_t i_end,
                     int q, cplx m00, cplx m11) {
  sweep_diag_scalar(amps, i_begin, i_end, q, m00, m11);
}

void sweep_2q_avx2(cplx* amps, std::size_t idx_begin, std::size_t idx_end,
                   int a, int b, const M4& m) {
  sweep_2q_scalar(amps, idx_begin, idx_end, a, b, m);
}

void sweep_2q_monomial_avx2(cplx* amps, std::size_t idx_begin,
                            std::size_t idx_end, int a, int b,
                            const int src[4], const cplx coef[4]) {
  sweep_2q_monomial_scalar(amps, idx_begin, idx_end, a, b, src, coef);
}

void sweep_gang_avx2(cplx* amps, std::size_t outer_begin,
                     std::size_t outer_end, const GangPlan& g) {
  sweep_gang_scalar(amps, outer_begin, outer_end, g);
}

}  // namespace tetris::sim::kernels

#endif  // TETRIS_HAVE_AVX2
