#include "sim/kernels/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "qir/circuit.h"
#include "sim/fusion.h"
#include "sim/kernels/simd.h"
#include "sim/statevector.h"

namespace tetris::sim {
namespace {

using kernels::SimdMode;

/// Restores the process-wide SIMD mode on scope exit, so a test that forces
/// a mode cannot leak it into its siblings.
class ModeGuard {
 public:
  ModeGuard() : saved_(kernels::simd_mode()) {}
  ~ModeGuard() { kernels::set_simd_mode(saved_); }

 private:
  SimdMode saved_;
};

/// A dense circuit touching every qubit of an n-wide register: same-qubit
/// runs (a fused 2x2 each), rows of one gate per qubit (passthroughs), a CX
/// chain, diagonals, and a CCX — every kernel family fires.
qir::Circuit dense_circuit(int n, std::uint64_t seed) {
  qir::Circuit c(n);
  Rng rng(seed);
  for (int q = 0; q < n; ++q) {
    c.h(q);
    c.rz(rng.uniform() * 3.0, q);
  }
  for (int q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  for (int q = 0; q < n; ++q) c.ry(rng.uniform() - 0.5, q);
  if (n >= 3) c.ccx(0, 1, n - 1);
  for (int q = 0; q < n; ++q) c.t(q);
  c.cz(0, n - 1);
  return c;
}

/// Runs `circuit` under a forced SIMD mode, fused or gate by gate.
StateVector run_in_mode(const qir::Circuit& circuit, SimdMode mode,
                        bool fused) {
  ModeGuard guard;
  kernels::set_simd_mode(mode);
  StateVector sv(circuit.num_qubits());
  if (fused) {
    sv.apply_fused(FusionPlan::build(circuit));
  } else {
    sv.apply_circuit(circuit);
  }
  return sv;
}

/// Index of the first amplitude whose bytes differ between `a` and `b`
/// (zero signs included), or -1.
long first_byte_mismatch(const StateVector& a, const StateVector& b) {
  for (std::size_t i = 0; i < a.dim(); ++i) {
    if (std::memcmp(&a.amplitudes()[i], &b.amplitudes()[i], sizeof(cplx)) !=
        0) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

// ------------------------------------------------------------ mode plumbing

TEST(Simd, ModeQueryAndOverride) {
  ModeGuard guard;
  kernels::set_simd_mode(SimdMode::kScalar);
  EXPECT_EQ(kernels::simd_mode(), SimdMode::kScalar);
  EXPECT_STREQ(kernels::simd_mode_name(SimdMode::kScalar), "scalar");
  EXPECT_STREQ(kernels::simd_mode_name(SimdMode::kAvx2), "avx2");
  if (kernels::avx2_available()) {
    kernels::set_simd_mode(SimdMode::kAvx2);
    EXPECT_EQ(kernels::simd_mode(), SimdMode::kAvx2);
  } else {
    EXPECT_THROW(kernels::set_simd_mode(SimdMode::kAvx2), InvalidArgument);
  }
}

// ------------------------------------------- scalar-vs-AVX2 differential

// The AVX2 kernels compute the scalar kernels' bits, so the two modes agree
// byte for byte on every amplitude: at odd widths and at 14 qubits, fused
// (merged 2x2 sweeps) and gate by gate (1q and diagonal sweeps).
TEST(SimdDifferential, ScalarVsAvx2AtOddWidths) {
  if (!kernels::avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  for (int n : {5, 7, 9, 11, 13, 14}) {
    auto c = dense_circuit(n, 101 + static_cast<std::uint64_t>(n));
    for (bool fused : {false, true}) {
      const StateVector scalar = run_in_mode(c, SimdMode::kScalar, fused);
      const StateVector avx2 = run_in_mode(c, SimdMode::kAvx2, fused);
      EXPECT_EQ(first_byte_mismatch(scalar, avx2), -1)
          << "n=" << n << " fused=" << fused;
    }
  }
}

// Target qubit below the vector lane width (q=0: pairs interleave within one
// 256-bit lane, the deinterleave path) vs at/above it (contiguous runs), on
// a 7- and a 14-qubit register. The rx/rz layer leaves every amplitude
// complex, so each complex multiply rounds both of its products: the same
// bytes in both modes.
TEST(SimdDifferential, TargetQubitInsideAndOutsideLaneWidth) {
  if (!kernels::avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  for (int n : {7, 14}) {
    for (int q : {0, 1, 2, n - 1}) {
      qir::Circuit c(n);
      for (int p = 0; p < n; ++p) c.rx(0.5 + 0.1 * p, p).rz(0.3 * p, p);
      c.h(q).rz(0.7, q).sx(q).ry(-1.3, q);
      for (bool fused : {false, true}) {
        const StateVector scalar = run_in_mode(c, SimdMode::kScalar, fused);
        const StateVector avx2 = run_in_mode(c, SimdMode::kAvx2, fused);
        EXPECT_EQ(first_byte_mismatch(scalar, avx2), -1)
            << "n=" << n << " q=" << q << " fused=" << fused;
      }
    }
  }
}

// ------------------------------------- permutation and controlled kernels

// The per-pair loops StateVector ran every controlled and permutation gate
// through before the subspace kernels replaced them, kept verbatim as the
// reference: they visit all 2^(n-1) pairs (or 2^n indices) and test the
// control mask on each one.

void oracle_controlled_single(cplx* amps, std::size_t dim, const cplx m[2][2],
                              std::size_t control_mask, int q) {
  const std::size_t stride = std::size_t{1} << q;
  const cplx m00 = m[0][0], m01 = m[0][1], m10 = m[1][0], m11 = m[1][1];
  for (std::size_t k = 0; k < dim / 2; ++k) {
    const std::size_t i0 = ((k >> q) << (q + 1)) | (k & (stride - 1));
    if ((i0 & control_mask) != control_mask) continue;
    const std::size_t i1 = i0 + stride;
    const cplx a0 = amps[i0];
    const cplx a1 = amps[i1];
    amps[i0] = m00 * a0 + m01 * a1;
    amps[i1] = m10 * a0 + m11 * a1;
  }
}

void oracle_swap(cplx* amps, std::size_t dim, int a, int b) {
  const std::size_t bit_a = std::size_t{1} << a;
  const std::size_t bit_b = std::size_t{1} << b;
  for (std::size_t i = 0; i < dim; ++i) {
    if ((i & bit_a) != 0 && (i & bit_b) == 0) {
      const std::size_t j = (i & ~bit_a) | bit_b;
      std::swap(amps[i], amps[j]);
    }
  }
}

void oracle_controlled_swap(cplx* amps, std::size_t dim,
                            std::size_t control_mask, int a, int b) {
  const std::size_t bit_a = std::size_t{1} << a;
  const std::size_t bit_b = std::size_t{1} << b;
  for (std::size_t i = 0; i < dim; ++i) {
    if ((i & control_mask) != control_mask) continue;
    if ((i & bit_a) != 0 && (i & bit_b) == 0) {
      const std::size_t j = (i & ~bit_a) | bit_b;
      std::swap(amps[i], amps[j]);
    }
  }
}

/// The historical StateVector::apply_gate dispatch on a raw amplitude
/// vector: controlled kinds through the per-pair loop with their base 2x2,
/// the swaps through theirs, and single-qubit kinds (X, Y and Z included)
/// through the mode's 1q or diagonal sweep.
void oracle_apply(std::vector<cplx>& amps, const qir::Gate& gate,
                  SimdMode mode) {
  using qir::GateKind;
  const auto& qs = gate.qubits;
  cplx m[2][2];
  std::size_t mask = 0;
  for (std::size_t i = 0; i + 1 < qs.size(); ++i) mask |= std::size_t{1} << qs[i];
  switch (gate.kind) {
    case GateKind::SWAP:
      oracle_swap(amps.data(), amps.size(), qs[0], qs[1]);
      return;
    case GateKind::CSWAP:
      oracle_controlled_swap(amps.data(), amps.size(), std::size_t{1} << qs[0],
                             qs[1], qs[2]);
      return;
    case GateKind::CX:
    case GateKind::CCX:
    case GateKind::MCX:
      single_qubit_matrix(GateKind::X, gate.params, m);
      break;
    case GateKind::CY: single_qubit_matrix(GateKind::Y, gate.params, m); break;
    case GateKind::CZ: single_qubit_matrix(GateKind::Z, gate.params, m); break;
    case GateKind::CH: single_qubit_matrix(GateKind::H, gate.params, m); break;
    case GateKind::CP: single_qubit_matrix(GateKind::P, gate.params, m); break;
    case GateKind::CRZ: single_qubit_matrix(GateKind::RZ, gate.params, m); break;
    default: {
      single_qubit_matrix(gate.kind, gate.params, m);
      if (m[0][1] == cplx(0.0, 0.0) && m[1][0] == cplx(0.0, 0.0)) {
        kernels::sweep_diag(mode, amps.data(), amps.size(), qs[0], m[0][0],
                            m[1][1]);
      } else {
        kernels::sweep_1q(mode, amps.data(), amps.size() / 2, qs[0],
                          kernels::M2{m[0][0], m[0][1], m[1][0], m[1][1]});
      }
      return;
    }
  }
  oracle_controlled_single(amps.data(), amps.size(), m, mask, qs.back());
}

/// Every gate shape the subspace kernels must get right on an n-wide
/// register: wires at qubit 0, qubit 1 (inside the AVX2 lane pair), the
/// middle and the top; controls above and below the target; every
/// controlled kind; CCX, MCX with 3 and 4 controls; SWAP in both orders and
/// CSWAP; and the Paulis as gates.
std::vector<qir::Gate> subspace_gates(int n) {
  const int mid = n / 2;
  const std::vector<int> spots = {0, 1, mid, n - 1};
  std::vector<qir::Gate> gates;
  for (int q : spots) {
    gates.push_back(qir::make_x(q));
    gates.push_back(qir::make_y(q));
    gates.push_back(qir::make_z(q));
  }
  for (int a : spots) {
    for (int b : spots) {
      if (a == b) continue;
      gates.push_back(qir::make_cx(a, b));
      gates.push_back(qir::make_cz(a, b));
      gates.push_back(qir::make_cp(0.37, a, b));
      gates.push_back(qir::make_crz(-1.21, a, b));
      gates.push_back(qir::make_cy(a, b));
      gates.push_back(qir::make_ch(a, b));
      gates.push_back(qir::make_swap(a, b));
      for (int c : spots) {
        if (c == a || c == b) continue;
        gates.push_back(qir::make_ccx(a, b, c));
        gates.push_back(qir::make_cswap(a, b, c));
      }
    }
  }
  for (int t : spots) {  // 3 controls: the other three spots
    std::vector<int> controls;
    for (int c : spots) {
      if (c != t) controls.push_back(c);
    }
    gates.push_back(qir::make_mcx(controls, t));
  }
  const std::vector<int> five = {0, 1, mid, mid + 1, n - 1};
  for (int t : five) {  // 4 controls
    std::vector<int> controls;
    for (int c : five) {
      if (c != t) controls.push_back(c);
    }
    gates.push_back(qir::make_mcx(controls, t));
  }
  return gates;
}

/// A dense n-qubit state with no zero amplitudes, prepared in the active
/// SIMD mode.
StateVector prepared_state(int n) {
  StateVector sv(n);
  Rng rng(500 + static_cast<std::uint64_t>(n));
  for (int q = 0; q < n; ++q) {
    sv.apply_gate(qir::make_ry(rng.uniform() * 3.0, q));
    sv.apply_gate(qir::make_rz(rng.uniform() * 3.0, q));
  }
  for (int q = 0; q + 1 < n; ++q) {
    sv.apply_gate(qir::make_rx(rng.uniform() * 3.0, q + 1));
    sv.apply_gate(qir::make_cx(q, q + 1));
  }
  return sv;
}

/// Index of the first amplitude where `got` != `want` under ==, or -1.
long first_mismatch(const std::vector<cplx>& got, const std::vector<cplx>& want) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!(got[i] == want[i])) return static_cast<long>(i);
  }
  return -1;
}

// Each gate, applied in sequence to one state, must leave every amplitude
// == the per-pair oracle's (== treats the two zero signs as equal, the one
// freedom the kernels have), in both SIMD modes.
TEST(SubspaceKernels, MatchOraclePerAmplitude) {
  std::vector<SimdMode> modes = {SimdMode::kScalar};
  if (kernels::avx2_available()) modes.push_back(SimdMode::kAvx2);
  for (SimdMode mode : modes) {
    ModeGuard guard;
    kernels::set_simd_mode(mode);
    for (int n : {5, 7, 13}) {
      StateVector sv = prepared_state(n);
      std::vector<cplx> want = sv.amplitudes();
      for (const qir::Gate& g : subspace_gates(n)) {
        sv.apply_gate(g);
        oracle_apply(want, g, mode);
        const long bad = first_mismatch(sv.amplitudes(), want);
        ASSERT_EQ(bad, -1) << kernels::simd_mode_name(mode) << " n=" << n
                           << " gate=" << g.name() << " first bad amplitude "
                           << bad;
      }
    }
  }
}

}  // namespace
}  // namespace tetris::sim
