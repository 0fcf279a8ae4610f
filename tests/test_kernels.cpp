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
/// runs (1q fusion), distinct-qubit rows (gangs), 2q pair windows, and a CCX
/// passthrough — every kernel family fires.
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

/// Pseudorandom (but deterministic, mode-independent) amplitude fill.
std::vector<cplx> random_amps(std::size_t n, std::uint64_t seed) {
  std::vector<cplx> amps(n);
  Rng rng(seed);
  for (auto& a : amps) a = cplx(rng.uniform() - 0.5, rng.uniform() - 0.5);
  return amps;
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
// (gang and 4x4 sweeps) and gate by gate (1q and diagonal sweeps).
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

// The AVX2 kernels use a fixed per-element instruction sequence, so where a
// range boundary falls must not change a single bit — the region contract
// that lets a cache tile reuse the whole-vector kernels. Split every kernel's
// index range at an odd point (vector body on one side, 128-bit tail on the
// other) and compare against the unsplit sweep.
TEST(SimdKernels, ChunkSplitIsBitIdentical) {
  if (!kernels::avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  // 6 qubits: 64 amplitudes, 32 pairs, 16 quads.
  const kernels::M2 m{cplx(0.6, 0.1), cplx(-0.3, 0.7), cplx(0.7, 0.3),
                      cplx(0.1, -0.6)};
  for (int q : {0, 1, 4}) {
    auto whole = random_amps(64, 7);
    auto split = whole;
    kernels::sweep_1q_avx2(whole.data(), 0, 32, q, m);
    kernels::sweep_1q_avx2(split.data(), 0, 13, q, m);
    kernels::sweep_1q_avx2(split.data(), 13, 32, q, m);
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(whole[i], split[i]) << "1q q=" << q << " i=" << i;
    }
  }
  kernels::M4 m4{};
  Rng rng(11);
  for (auto& v : m4.v) v = cplx(rng.uniform() - 0.5, rng.uniform() - 0.5);
  auto whole = random_amps(64, 9);
  auto split = whole;
  kernels::sweep_2q_avx2(whole.data(), 0, 16, 1, 3, m4);
  kernels::sweep_2q_avx2(split.data(), 0, 5, 1, 3, m4);
  kernels::sweep_2q_avx2(split.data(), 5, 16, 1, 3, m4);
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(whole[i], split[i]) << "2q i=" << i;
  }
}

// A gang of k unmerged 2x2s must reproduce k consecutive 1q sweeps
// amplitude-for-amplitude IN BOTH MODES — the property the sampler's
// fused-vs-unfused bit-identity pin (SamplerFused) leans on.
TEST(SimdKernels, GangMatchesSequential1qSweepsBitwise) {
  std::vector<SingleQubitOp> ops;
  Rng rng(13);
  for (int q : {0, 2, 3}) {
    SingleQubitOp op;
    op.qubit = q;
    for (auto& row : op.m) {
      for (auto& v : row) v = cplx(rng.uniform() - 0.5, rng.uniform() - 0.5);
    }
    ops.push_back(op);
  }
  const auto plan = kernels::make_gang_plan(ops.data(), ops.size());
  const std::size_t dim = 32;  // 5 qubits
  std::vector<SimdMode> modes = {SimdMode::kScalar};
  if (kernels::avx2_available()) modes.push_back(SimdMode::kAvx2);
  for (SimdMode mode : modes) {
    auto ganged = random_amps(dim, 17);
    auto stepwise = ganged;
    kernels::sweep_gang(mode, ganged.data(), 0, dim >> ops.size(), plan);
    for (const auto& op : ops) {
      const kernels::M2 m{op.m[0][0], op.m[0][1], op.m[1][0], op.m[1][1]};
      kernels::sweep_1q(mode, stepwise.data(), 0, dim >> 1, op.qubit, m);
    }
    for (std::size_t i = 0; i < dim; ++i) {
      EXPECT_EQ(ganged[i], stepwise[i])
          << kernels::simd_mode_name(mode) << " i=" << i;
    }
  }
}

TEST(Kernels, MonomialDecompose) {
  kernels::M4 cxm{};  // CX with a=control: |b a> -> basis (b<<1)|a
  cxm.v[0 * 4 + 0] = 1.0;
  cxm.v[1 * 4 + 3] = 1.0;  // a=1,b=0 -> a=1,b=1
  cxm.v[2 * 4 + 2] = 1.0;
  cxm.v[3 * 4 + 1] = 1.0;
  int src[4];
  cplx coef[4];
  ASSERT_TRUE(kernels::monomial_decompose(cxm, src, coef));
  EXPECT_EQ(src[0], 0);
  EXPECT_EQ(src[1], 3);
  EXPECT_EQ(src[2], 2);
  EXPECT_EQ(src[3], 1);

  kernels::M4 dense{};  // a Hadamard row: two nonzeros -> not monomial
  dense.v[0] = dense.v[1] = cplx(0.5, 0.0);
  EXPECT_FALSE(kernels::monomial_decompose(dense, src, coef));
  kernels::M4 zero{};  // zero row -> not monomial
  EXPECT_FALSE(kernels::monomial_decompose(zero, src, coef));
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
        kernels::sweep_diag(mode, amps.data(), 0, amps.size(), qs[0], m[0][0],
                            m[1][1]);
      } else {
        kernels::sweep_1q(mode, amps.data(), 0, amps.size() / 2, qs[0],
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

// A chunk boundary anywhere in the subspace index range — mid-run or on a
// run edge — must not change a bit: split the range at each point and
// compare with the unsplit sweeps.
TEST(SubspaceKernels, ChunkSplitIsBitIdentical) {
  const std::size_t dim = 64;  // 6 qubits
  const kernels::M2 h{cplx(0.6, 0.1), cplx(-0.3, 0.7), cplx(0.7, 0.3),
                      cplx(0.1, -0.6)};
  const std::vector<kernels::Subspace> shapes = {
      {0b000011, 0b000001, 0b000010},   // CX control 0, target 1
      {0b100100, 0b100000, 0b000100},   // CX control 5, target 2
      {0b010110, 0b000110, 0b010010},   // CSWAP control 2, (1, 4)
      {0b000001, 0b000000, 0b000001},   // X on qubit 0
  };
  // Subspace indices touch disjoint amplitudes, so the four kernels over
  // [0, cut) then over [cut, count) equal them over the whole range.
  const auto sweep_all = [&](std::vector<cplx>& amps, std::size_t begin,
                             std::size_t end, const kernels::Subspace& s) {
    kernels::sweep_swap(amps.data(), begin, end, s);
    kernels::sweep_scale(amps.data(), begin, end, s, cplx(0.3, -0.8));
    kernels::sweep_controlled_1q(amps.data(), begin, end, s, h);
    kernels::sweep_swap_y(amps.data(), begin, end, s);
  };
  for (const kernels::Subspace& s : shapes) {
    const std::size_t count = kernels::subspace_size(dim, s);
    auto whole = random_amps(dim, 31);
    sweep_all(whole, 0, count, s);
    for (std::size_t cut = 0; cut <= count; ++cut) {
      auto split = random_amps(dim, 31);
      sweep_all(split, 0, cut, s);
      sweep_all(split, cut, count, s);
      ASSERT_EQ(first_mismatch(split, whole), -1)
          << "spliced=" << s.spliced << " cut=" << cut;
    }
  }
}

// ------------------------------------------------------------ cache tiling

// Tiling only reorders traversal, so tiled output is bit-identical to
// untiled within a mode — at widths below, at, and above the tile width.
TEST(Tiling, TiledMatchesUntiledBitwise) {
  std::vector<SimdMode> modes = {SimdMode::kScalar};
  if (kernels::avx2_available()) modes.push_back(SimdMode::kAvx2);
  for (SimdMode mode : modes) {
    ModeGuard guard;
    kernels::set_simd_mode(mode);
    for (int n : {2, 3, 5, 8}) {  // tile=3: below, at, above, far above
      auto c = dense_circuit(n, 1000 + static_cast<std::uint64_t>(n));
      const auto plan = FusionPlan::build(c);
      StateVector untiled(n);
      untiled.set_tile_qubits(n);  // at-or-above width disables tiling
      untiled.apply_fused(plan);
      StateVector tiled(n);
      tiled.set_tile_qubits(3);
      tiled.apply_fused(plan);
      EXPECT_EQ(tiled.max_abs_diff(untiled), 0.0)
          << kernels::simd_mode_name(mode) << " n=" << n;
    }
  }
}

// High-qubit gates fence tile-local runs; the greedy splitter must still
// produce the same bits when tile-local runs are length 0, 1, and >= 2.
TEST(Tiling, MixedLocalAndGlobalOps) {
  ModeGuard guard;
  kernels::set_simd_mode(SimdMode::kScalar);
  qir::Circuit c(6);
  c.h(5);                      // never tile-local at tile=2
  c.h(0).rz(0.4, 1);           // local run of one gang
  c.cx(4, 5);                  // global fence
  c.h(1).t(0).sx(1).ry(0.2, 0);  // local pair-window run
  c.cx(0, 1);
  const auto plan = FusionPlan::build(c);
  StateVector untiled(6);
  untiled.set_tile_qubits(6);
  untiled.apply_fused(plan);
  StateVector tiled(6);
  tiled.set_tile_qubits(2);
  tiled.apply_fused(plan);
  EXPECT_EQ(tiled.max_abs_diff(untiled), 0.0);
}

// Lone X/Y/Z passthroughs run the Pauli kernel inside a tile exactly as on
// the whole array, so tiled output matches untiled to the bit — zero signs
// included, which max_abs_diff cannot see. Half the register stays |0>, so
// the state is full of exact zeros.
TEST(Tiling, LonePaulisMatchUntiledToTheBit) {
  std::vector<SimdMode> modes = {SimdMode::kScalar};
  if (kernels::avx2_available()) modes.push_back(SimdMode::kAvx2);
  qir::Circuit c(6);
  c.h(0).h(1).rz(0.3, 2);
  c.cx(0, 1).cz(0, 1).x(2).cx(1, 2).cz(1, 2).y(0);
  c.cx(0, 2).cp(0.3, 0, 2).z(1).cx(2, 1).cz(2, 1).x(0);
  c.cx(0, 1).cz(0, 1);
  const auto plan = FusionPlan::build(c);
  std::size_t lone_paulis = 0;
  for (const FusedOp& op : plan.ops()) {
    if (op.kind == FusedOp::Kind::kGate && op.gate.qubits.size() == 1) {
      ++lone_paulis;
    }
  }
  ASSERT_EQ(lone_paulis, 4u);  // x(2), y(0), z(1), x(0) pass through alone
  for (SimdMode mode : modes) {
    ModeGuard guard;
    kernels::set_simd_mode(mode);
    StateVector untiled(6);
    untiled.set_tile_qubits(6);
    untiled.apply_fused(plan);
    StateVector tiled(6);
    tiled.set_tile_qubits(3);
    tiled.apply_fused(plan);
    EXPECT_EQ(std::memcmp(tiled.amplitudes().data(), untiled.amplitudes().data(),
                          tiled.dim() * sizeof(cplx)),
              0)
        << kernels::simd_mode_name(mode);
  }
}

}  // namespace
}  // namespace tetris::sim
