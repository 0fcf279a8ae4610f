#include <algorithm>

#include "sim/kernels/kernels.h"

namespace tetris::sim::kernels {

// The scalar kernels below are the byte-identity reference: their loop
// bodies are verbatim the historical StateVector gate loops, so a scalar
// build reproduces pre-kernel-layer amplitudes bit for bit.

void sweep_1q_scalar(cplx* amps, std::size_t pairs, int q, const M2& m) {
  const std::size_t stride = std::size_t{1} << q;
  const cplx m00 = m.m00, m01 = m.m01, m10 = m.m10, m11 = m.m11;
  for (std::size_t k = 0; k < pairs; ++k) {
    const std::size_t i0 = ((k >> q) << (q + 1)) | (k & (stride - 1));
    const std::size_t i1 = i0 + stride;
    const cplx a0 = amps[i0];
    const cplx a1 = amps[i1];
    amps[i0] = m00 * a0 + m01 * a1;
    amps[i1] = m10 * a0 + m11 * a1;
  }
}

void sweep_diag_scalar(cplx* amps, std::size_t dim, int q, cplx m00,
                       cplx m11) {
  for (std::size_t i = 0; i < dim; ++i) {
    amps[i] *= ((i >> q) & 1) ? m11 : m00;
  }
}

// The subspace kernels below replaced the historical per-pair loops of the
// controlled and permutation gates (kept as the oracle in
// tests/test_kernels.cpp). They visit only the control subspace and write
// the loops' values up to the sign of a zero, in every SIMD mode.

namespace {

/// Calls run_fn(i0, len) for each stretch of subspace indices in
/// [0, count) whose i0 = base(j) | set are consecutive amplitudes: runs of
/// the lowest spliced wire's stride (count is a multiple of it, as no wire
/// below that one is spliced). The next base is the next integer with
/// every spliced bit clear.
template <typename RunFn>
void for_each_run(std::size_t count, const Subspace& s, RunFn run_fn) {
  const std::size_t stride = s.spliced & (~s.spliced + 1);
  std::size_t base = 0;
  if (stride == 1) {
    // Wire 0 is spliced: every run is one amplitude, so pass the length as
    // a constant the inlined body can fold.
    for (std::size_t j = 0; j < count; ++j) {
      run_fn(base | s.set, std::size_t{1});
      base = ((base | s.spliced) + 1) & ~s.spliced;
    }
    return;
  }
  for (std::size_t j = 0; j < count; j += stride) {
    run_fn(base | s.set, stride);
    base = (((base + stride - 1) | s.spliced) + 1) & ~s.spliced;
  }
}

}  // namespace

std::size_t subspace_size(std::size_t dim, const Subspace& s) {
  return dim >> __builtin_popcountll(s.spliced);
}

void sweep_swap(cplx* amps, std::size_t count, const Subspace& s) {
  for_each_run(count, s, [&](std::size_t i0, std::size_t len) {
    std::swap_ranges(amps + i0, amps + i0 + len, amps + (i0 ^ s.flip));
  });
}

void sweep_swap_y(cplx* amps, std::size_t count, const Subspace& s) {
  const cplx minus_i(0.0, -1.0);
  const cplx plus_i(0.0, 1.0);
  for_each_run(count, s, [&](std::size_t i0, std::size_t len) {
    cplx* p0 = amps + i0;
    cplx* p1 = amps + (i0 ^ s.flip);
    for (std::size_t r = 0; r < len; ++r) {
      const cplx a0 = p0[r];
      p0[r] = minus_i * p1[r];
      p1[r] = plus_i * a0;
    }
  });
}

void sweep_scale(cplx* amps, std::size_t count, const Subspace& s, cplx c) {
  for_each_run(count, s, [&](std::size_t i0, std::size_t len) {
    cplx* p = amps + i0;
    for (std::size_t r = 0; r < len; ++r) p[r] *= c;
  });
}

void sweep_controlled_1q(cplx* amps, std::size_t count, const Subspace& s,
                         const M2& m) {
  const cplx m00 = m.m00, m01 = m.m01, m10 = m.m10, m11 = m.m11;
  for_each_run(count, s, [&](std::size_t i0, std::size_t len) {
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

void sweep_pauli(char pauli, cplx* amps, std::size_t pairs, int q) {
  const std::size_t bit = std::size_t{1} << q;
  switch (pauli) {
    case 'X': sweep_swap(amps, pairs, {bit, 0, bit}); return;
    case 'Y': sweep_swap_y(amps, pairs, {bit, 0, bit}); return;
    case 'Z': sweep_scale(amps, pairs, {bit, bit, 0}, cplx(-1.0, 0.0)); return;
    default: return;
  }
}

}  // namespace tetris::sim::kernels
