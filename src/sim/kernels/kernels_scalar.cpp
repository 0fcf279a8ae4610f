#include <algorithm>

#include "sim/kernels/kernels.h"

namespace tetris::sim::kernels {

// The scalar kernels below are the byte-identity reference: their loop
// bodies are verbatim the historical StateVector gate loops, so a scalar
// build reproduces pre-kernel-layer amplitudes bit for bit.

GangPlan make_gang_plan(const SingleQubitOp* ops, std::size_t count) {
  GangPlan g;
  g.count = static_cast<int>(count);
  const int k = g.count;
  // Ascending qubit list for the zero-splice index arithmetic; the ops keep
  // their own (stream) order, which is the order the matrices are applied in.
  for (int j = 0; j < k; ++j) g.sorted[j] = ops[static_cast<std::size_t>(j)].qubit;
  std::sort(g.sorted, g.sorted + k);
  g.block = std::size_t{1} << k;
  // offsets[l]: global offset of local index l relative to a block's base
  // (local bit p maps to wire sorted[p]).
  for (std::size_t l = 0; l < g.block; ++l) {
    std::size_t off = 0;
    for (int p = 0; p < k; ++p) {
      if ((l >> p) & 1) off |= std::size_t{1} << g.sorted[p];
    }
    g.offsets[l] = off;
  }
  for (int j = 0; j < k; ++j) {
    const SingleQubitOp& op = ops[static_cast<std::size_t>(j)];
    g.local_pos[j] = static_cast<int>(
        std::lower_bound(g.sorted, g.sorted + k, op.qubit) - g.sorted);
    g.m[j] = M2{op.m[0][0], op.m[0][1], op.m[1][0], op.m[1][1]};
  }
  return g;
}

bool monomial_decompose(const M4& m, int src[4], cplx coef[4]) {
  for (int r = 0; r < 4; ++r) {
    int nonzeros = 0;
    for (int c = 0; c < 4; ++c) {
      if (m.v[r * 4 + c] != cplx(0.0, 0.0)) {
        src[r] = c;
        ++nonzeros;
      }
    }
    if (nonzeros != 1) return false;
  }
  for (int r = 0; r < 4; ++r) coef[r] = m.v[r * 4 + src[r]];
  return true;
}

void sweep_1q_scalar(cplx* amps, std::size_t k_begin, std::size_t k_end,
                     int q, const M2& m) {
  const std::size_t stride = std::size_t{1} << q;
  const cplx m00 = m.m00, m01 = m.m01, m10 = m.m10, m11 = m.m11;
  for (std::size_t k = k_begin; k < k_end; ++k) {
    const std::size_t i0 = ((k >> q) << (q + 1)) | (k & (stride - 1));
    const std::size_t i1 = i0 + stride;
    const cplx a0 = amps[i0];
    const cplx a1 = amps[i1];
    amps[i0] = m00 * a0 + m01 * a1;
    amps[i1] = m10 * a0 + m11 * a1;
  }
}

void sweep_diag_scalar(cplx* amps, std::size_t i_begin, std::size_t i_end,
                       int q, cplx m00, cplx m11) {
  for (std::size_t i = i_begin; i < i_end; ++i) {
    amps[i] *= ((i >> q) & 1) ? m11 : m00;
  }
}

void sweep_2q_scalar(cplx* amps, std::size_t idx_begin, std::size_t idx_end,
                     int a, int b, const M4& m) {
  const std::size_t bit_a = std::size_t{1} << a;
  const std::size_t bit_b = std::size_t{1} << b;
  const int lo = std::min(a, b);
  const int hi = std::max(a, b);
  const cplx* mm = m.v;
  for (std::size_t idx = idx_begin; idx < idx_end; ++idx) {
    // Splice zero bits at the two wires (lowest first).
    std::size_t base = ((idx >> lo) << (lo + 1)) |
                       (idx & ((std::size_t{1} << lo) - 1));
    base = ((base >> hi) << (hi + 1)) |
           (base & ((std::size_t{1} << hi) - 1));
    // Local basis l = (bit_b << 1) | bit_a.
    const std::size_t i0 = base;
    const std::size_t i1 = base | bit_a;
    const std::size_t i2 = base | bit_b;
    const std::size_t i3 = base | bit_a | bit_b;
    const cplx v0 = amps[i0], v1 = amps[i1], v2 = amps[i2], v3 = amps[i3];
    amps[i0] = mm[0] * v0 + mm[1] * v1 + mm[2] * v2 + mm[3] * v3;
    amps[i1] = mm[4] * v0 + mm[5] * v1 + mm[6] * v2 + mm[7] * v3;
    amps[i2] = mm[8] * v0 + mm[9] * v1 + mm[10] * v2 + mm[11] * v3;
    amps[i3] = mm[12] * v0 + mm[13] * v1 + mm[14] * v2 + mm[15] * v3;
  }
}

void sweep_2q_monomial_scalar(cplx* amps, std::size_t idx_begin,
                              std::size_t idx_end, int a, int b,
                              const int src[4], const cplx coef[4]) {
  const std::size_t bit_a = std::size_t{1} << a;
  const std::size_t bit_b = std::size_t{1} << b;
  const int lo = std::min(a, b);
  const int hi = std::max(a, b);
  const cplx c0 = coef[0], c1 = coef[1], c2 = coef[2], c3 = coef[3];
  const int s0 = src[0], s1 = src[1], s2 = src[2], s3 = src[3];
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
    const cplx v0 = amps[at[s0]], v1 = amps[at[s1]],
               v2 = amps[at[s2]], v3 = amps[at[s3]];
    amps[at[0]] = c0 * v0;
    amps[at[1]] = c1 * v1;
    amps[at[2]] = c2 * v2;
    amps[at[3]] = c3 * v3;
  }
}

// The subspace kernels below replaced the historical per-pair loops of the
// controlled and permutation gates (kept as the oracle in
// tests/test_kernels.cpp). They visit only the control subspace and write
// the loops' values up to the sign of a zero, in every SIMD mode.

namespace {

/// base(j): j with a zero bit spliced in at every wire of `spliced`
/// (ascending, so each splice sees the final position of the lower ones).
std::size_t splice_index(std::size_t j, std::size_t spliced) {
  for (std::size_t m = spliced; m != 0; m &= m - 1) {
    const std::size_t below = (m & (~m + 1)) - 1;
    j = ((j & ~below) << 1) | (j & below);
  }
  return j;
}

/// Calls run_fn(i0, len) for each stretch of subspace indices in
/// [begin, end) whose i0 = base(j) | set are consecutive amplitudes. Runs
/// break where j crosses a multiple of the lowest spliced wire's stride; the
/// next base is the next integer with every spliced bit clear.
template <typename RunFn>
void for_each_run(std::size_t begin, std::size_t end, const Subspace& s,
                  RunFn run_fn) {
  const std::size_t stride = s.spliced & (~s.spliced + 1);
  std::size_t base = splice_index(begin, s.spliced);
  if (stride == 1) {
    // Wire 0 is spliced: every run is one amplitude, so pass the length as
    // a constant the inlined body can fold.
    for (std::size_t j = begin; j < end; ++j) {
      run_fn(base | s.set, std::size_t{1});
      base = ((base | s.spliced) + 1) & ~s.spliced;
    }
    return;
  }
  for (std::size_t j = begin; j < end;) {
    const std::size_t len = std::min(stride - (j & (stride - 1)), end - j);
    run_fn(base | s.set, len);
    j += len;
    base = (((base + len - 1) | s.spliced) + 1) & ~s.spliced;
  }
}

}  // namespace

std::size_t subspace_size(std::size_t dim, const Subspace& s) {
  return dim >> __builtin_popcountll(s.spliced);
}

void sweep_swap(cplx* amps, std::size_t begin, std::size_t end,
                const Subspace& s) {
  for_each_run(begin, end, s, [&](std::size_t i0, std::size_t len) {
    std::swap_ranges(amps + i0, amps + i0 + len, amps + (i0 ^ s.flip));
  });
}

void sweep_swap_y(cplx* amps, std::size_t begin, std::size_t end,
                  const Subspace& s) {
  const cplx minus_i(0.0, -1.0);
  const cplx plus_i(0.0, 1.0);
  for_each_run(begin, end, s, [&](std::size_t i0, std::size_t len) {
    cplx* p0 = amps + i0;
    cplx* p1 = amps + (i0 ^ s.flip);
    for (std::size_t r = 0; r < len; ++r) {
      const cplx a0 = p0[r];
      p0[r] = minus_i * p1[r];
      p1[r] = plus_i * a0;
    }
  });
}

void sweep_scale(cplx* amps, std::size_t begin, std::size_t end,
                 const Subspace& s, cplx c) {
  for_each_run(begin, end, s, [&](std::size_t i0, std::size_t len) {
    cplx* p = amps + i0;
    for (std::size_t r = 0; r < len; ++r) p[r] *= c;
  });
}

void sweep_controlled_1q(cplx* amps, std::size_t begin, std::size_t end,
                         const Subspace& s, const M2& m) {
  const cplx m00 = m.m00, m01 = m.m01, m10 = m.m10, m11 = m.m11;
  for_each_run(begin, end, s, [&](std::size_t i0, std::size_t len) {
    cplx* p0 = amps + i0;
    cplx* p1 = amps + (i0 ^ s.flip);
    for (std::size_t r = 0; r < len; ++r) {
      const cplx a0 = p0[r];
      const cplx a1 = p1[r];
      p0[r] = m00 * a0 + m01 * a1;
      p1[r] = m10 * a0 + m11 * a1;
    }
  });
}

void sweep_pauli(char pauli, cplx* amps, std::size_t begin, std::size_t end,
                 int q) {
  const std::size_t bit = std::size_t{1} << q;
  switch (pauli) {
    case 'X': sweep_swap(amps, begin, end, {bit, 0, bit}); return;
    case 'Y': sweep_swap_y(amps, begin, end, {bit, 0, bit}); return;
    case 'Z':
      sweep_scale(amps, begin, end, {bit, bit, 0}, cplx(-1.0, 0.0));
      return;
    default: return;
  }
}

void sweep_gang_scalar(cplx* amps, std::size_t outer_begin,
                       std::size_t outer_end, const GangPlan& g) {
  const int k = g.count;
  const std::size_t block = g.block;
  cplx local[std::size_t{1} << StateVector::kMaxGangQubits];
  for (std::size_t outer = outer_begin; outer < outer_end; ++outer) {
    // Splice a zero bit at each gang wire (ascending order keeps later
    // positions valid in the progressively widened index).
    std::size_t base = outer;
    for (int p = 0; p < k; ++p) {
      const int q = g.sorted[p];
      base = ((base >> q) << (q + 1)) |
             (base & ((std::size_t{1} << q) - 1));
    }
    for (std::size_t l = 0; l < block; ++l) {
      local[l] = amps[base + g.offsets[l]];
    }
    // Each 2x2 transforms its pairs with exactly the arithmetic of the
    // full-sweep kernel, in op order — per amplitude the operation sequence
    // matches the unfused gate stream.
    for (int j = 0; j < k; ++j) {
      sweep_1q_scalar(local, 0, block >> 1, g.local_pos[j], g.m[j]);
    }
    for (std::size_t l = 0; l < block; ++l) {
      amps[base + g.offsets[l]] = local[l];
    }
  }
}

}  // namespace tetris::sim::kernels
