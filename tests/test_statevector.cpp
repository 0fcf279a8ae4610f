#include "sim/statevector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "common/error.h"
#include "common/rng.h"
#include "sim/fusion.h"

namespace tetris::sim {
namespace {

constexpr double kTol = 1e-12;

TEST(StateVector, InitialState) {
  StateVector sv(3);
  EXPECT_EQ(sv.dim(), 8u);
  EXPECT_NEAR(std::abs(sv.amplitudes()[0] - cplx(1, 0)), 0.0, kTol);
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_NEAR(std::abs(sv.amplitudes()[i]), 0.0, kTol);
  }
}

TEST(StateVector, WidthLimits) {
  EXPECT_NO_THROW(StateVector(0));
  EXPECT_THROW(StateVector(-1), InvalidArgument);
  EXPECT_THROW(StateVector(29), InvalidArgument);
}

TEST(StateVector, XFlipsBit) {
  StateVector sv(2);
  sv.apply_gate(qir::make_x(1));
  // little-endian: qubit 1 set -> index 2
  EXPECT_NEAR(std::abs(sv.amplitudes()[2] - cplx(1, 0)), 0.0, kTol);
}

TEST(StateVector, HadamardCreatesSuperposition) {
  StateVector sv(1);
  sv.apply_gate(qir::make_h(0));
  const double s = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(sv.amplitudes()[0] - cplx(s, 0)), 0.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitudes()[1] - cplx(s, 0)), 0.0, kTol);
}

TEST(StateVector, BellState) {
  StateVector sv(2);
  qir::Circuit c(2);
  c.h(0).cx(0, 1);
  sv.apply_circuit(c);
  const double s = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(sv.amplitudes()[0] - cplx(s, 0)), 0.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitudes()[3] - cplx(s, 0)), 0.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitudes()[1]), 0.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitudes()[2]), 0.0, kTol);
}

TEST(StateVector, CxControlOff) {
  StateVector sv(2);
  sv.apply_gate(qir::make_cx(0, 1));
  EXPECT_NEAR(std::abs(sv.amplitudes()[0] - cplx(1, 0)), 0.0, kTol);
}

TEST(StateVector, CxControlOn) {
  StateVector sv(2);
  sv.apply_gate(qir::make_x(0));
  sv.apply_gate(qir::make_cx(0, 1));
  EXPECT_NEAR(std::abs(sv.amplitudes()[3] - cplx(1, 0)), 0.0, kTol);
}

TEST(StateVector, ToffoliTruthTable) {
  for (unsigned input = 0; input < 8; ++input) {
    StateVector sv(3);
    sv.set_basis_state(input);
    sv.apply_gate(qir::make_ccx(0, 1, 2));
    unsigned expected = input;
    if ((input & 1u) && (input & 2u)) expected ^= 4u;
    EXPECT_NEAR(std::abs(sv.amplitudes()[expected] - cplx(1, 0)), 0.0, kTol)
        << "input=" << input;
  }
}

TEST(StateVector, McxTruthTable) {
  for (unsigned input = 0; input < 16; ++input) {
    StateVector sv(4);
    sv.set_basis_state(input);
    sv.apply_gate(qir::make_mcx({0, 1, 2}, 3));
    unsigned expected = input;
    if ((input & 7u) == 7u) expected ^= 8u;
    EXPECT_NEAR(std::abs(sv.amplitudes()[expected] - cplx(1, 0)), 0.0, kTol)
        << "input=" << input;
  }
}

TEST(StateVector, SwapExchangesQubits) {
  StateVector sv(2);
  sv.apply_gate(qir::make_x(0));    // |01> little-endian index 1
  sv.apply_gate(qir::make_swap(0, 1));
  EXPECT_NEAR(std::abs(sv.amplitudes()[2] - cplx(1, 0)), 0.0, kTol);
}

TEST(StateVector, CswapTruthTable) {
  for (unsigned input = 0; input < 8; ++input) {
    StateVector sv(3);
    sv.set_basis_state(input);
    sv.apply_gate(qir::make_cswap(0, 1, 2));
    unsigned expected = input;
    if (input & 1u) {
      bool b1 = input & 2u, b2 = input & 4u;
      expected = (input & 1u) | (b2 ? 2u : 0u) | (b1 ? 4u : 0u);
    }
    EXPECT_NEAR(std::abs(sv.amplitudes()[expected] - cplx(1, 0)), 0.0, kTol)
        << "input=" << input;
  }
}

TEST(StateVector, ZPhasesOne) {
  StateVector sv(1);
  sv.apply_gate(qir::make_x(0));
  sv.apply_gate(qir::make_z(0));
  EXPECT_NEAR(std::abs(sv.amplitudes()[1] - cplx(-1, 0)), 0.0, kTol);
}

TEST(StateVector, SGateGivesI) {
  StateVector sv(1);
  sv.apply_gate(qir::make_x(0));
  sv.apply_gate(qir::make_s(0));
  EXPECT_NEAR(std::abs(sv.amplitudes()[1] - cplx(0, 1)), 0.0, kTol);
}

TEST(StateVector, TSquaredIsS) {
  StateVector a(1), b(1);
  a.apply_gate(qir::make_h(0));
  a.apply_gate(qir::make_t(0));
  a.apply_gate(qir::make_t(0));
  b.apply_gate(qir::make_h(0));
  b.apply_gate(qir::make_s(0));
  EXPECT_NEAR(a.max_abs_diff(b), 0.0, kTol);
}

TEST(StateVector, SxSquaredIsX) {
  StateVector a(1), b(1);
  a.apply_gate(qir::make_sx(0));
  a.apply_gate(qir::make_sx(0));
  b.apply_gate(qir::make_x(0));
  // Global phase may differ; compare probabilities + fidelity.
  EXPECT_NEAR(a.fidelity(b), 1.0, 1e-10);
}

TEST(StateVector, RzIsDiagonalPhase) {
  StateVector sv(1);
  sv.apply_gate(qir::make_h(0));
  sv.apply_gate(qir::make_rz(M_PI / 2, 0));
  // RZ(pi/2) = diag(e^{-i pi/4}, e^{i pi/4}).
  const double s = 1.0 / std::sqrt(2.0);
  cplx expected0 = s * std::exp(cplx(0, -M_PI / 4));
  cplx expected1 = s * std::exp(cplx(0, M_PI / 4));
  EXPECT_NEAR(std::abs(sv.amplitudes()[0] - expected0), 0.0, kTol);
  EXPECT_NEAR(std::abs(sv.amplitudes()[1] - expected1), 0.0, kTol);
}

TEST(StateVector, GateAdjointRoundTripsState) {
  // Apply G then G^dagger and recover the input for every 1q kind.
  using qir::GateKind;
  std::vector<qir::Gate> gates = {
      qir::make_x(0),  qir::make_y(0),    qir::make_z(0),  qir::make_h(0),
      qir::make_s(0),  qir::make_sdg(0),  qir::make_t(0),  qir::make_tdg(0),
      qir::make_sx(0), qir::make_sxdg(0), qir::make_rx(0.3, 0),
      qir::make_ry(-0.9, 0), qir::make_rz(1.7, 0), qir::make_p(0.4, 0)};
  for (const auto& g : gates) {
    StateVector sv(1);
    sv.apply_gate(qir::make_h(0));  // non-trivial input
    StateVector ref = sv;
    sv.apply_gate(g);
    sv.apply_gate(g.adjoint());
    EXPECT_NEAR(sv.max_abs_diff(ref), 0.0, 1e-10) << g.name();
  }
}

TEST(StateVector, PauliInjection) {
  StateVector sv(2);
  sv.apply_pauli('X', 1);
  EXPECT_NEAR(std::abs(sv.amplitudes()[2] - cplx(1, 0)), 0.0, kTol);
  sv.apply_pauli('I', 0);
  EXPECT_NEAR(std::abs(sv.amplitudes()[2] - cplx(1, 0)), 0.0, kTol);
  EXPECT_THROW(sv.apply_pauli('Q', 0), InvalidArgument);
}

TEST(StateVector, ProbabilitiesSumToOne) {
  StateVector sv(3);
  qir::Circuit c(3);
  c.h(0).cx(0, 1).t(1).h(2).cx(2, 0);
  sv.apply_circuit(c);
  auto p = sv.probabilities();
  double sum = 0;
  for (double x : p) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-10);
}

TEST(StateVector, SampleMatchesDistribution) {
  StateVector sv(1);
  sv.apply_gate(qir::make_h(0));
  Rng rng(17);
  int ones = 0;
  const int shots = 20000;
  for (int i = 0; i < shots; ++i) {
    ones += static_cast<int>(sv.sample(rng));
  }
  EXPECT_NEAR(static_cast<double>(ones) / shots, 0.5, 0.02);
}

TEST(StateVector, InnerAndFidelity) {
  StateVector a(1), b(1);
  a.apply_gate(qir::make_h(0));
  EXPECT_NEAR(std::abs(a.inner(b) - cplx(1.0 / std::sqrt(2.0), 0)), 0.0, kTol);
  EXPECT_NEAR(a.fidelity(b), 0.5, 1e-10);
  EXPECT_THROW(a.inner(StateVector(2)), InvalidArgument);
}

TEST(StateVector, NormalizeRestoresUnitNorm) {
  StateVector sv(1);
  sv.apply_gate(qir::make_h(0));
  // Simulate drift by re-normalizing (should be no-op for exact states).
  sv.normalize();
  auto p = sv.probabilities();
  EXPECT_NEAR(p[0] + p[1], 1.0, kTol);
}

TEST(StateVector, ApplyCircuitWidthGuard) {
  StateVector sv(1);
  qir::Circuit wide(3);
  wide.x(2);
  EXPECT_THROW(sv.apply_circuit(wide), InvalidArgument);
}

// The kernels splice one index bit out per wire, so a repeated wire must be
// refused up front: a CX with control == target would otherwise index past
// the register, and a CSWAP on {0, 1, 1} would apply an unrelated
// permutation.
TEST(StateVector, ApplyGateRejectsRepeatedQubits) {
  StateVector sv(4);
  sv.apply_gate(qir::make_h(2));
  const auto before = sv.amplitudes();
  EXPECT_THROW(sv.apply_gate(qir::Gate(qir::GateKind::CX, {2, 2})),
               InvalidArgument);
  EXPECT_THROW(sv.apply_gate(qir::Gate(qir::GateKind::CSWAP, {0, 1, 1})),
               InvalidArgument);
  EXPECT_THROW(sv.apply_gate(qir::Gate(qir::GateKind::CCX, {3, 1, 3})),
               InvalidArgument);
  EXPECT_EQ(sv.amplitudes(), before);  // refused before touching the state
  EXPECT_THROW(sv.apply_pauli('X', 4), InvalidArgument);
}

// ------------------------------------------------------- apply_two_qubit

/// Prepares a non-trivial product+entangled state on `n` qubits.
StateVector scrambled_state(int n, std::uint64_t seed) {
  StateVector sv(n);
  Rng rng(seed);
  for (int q = 0; q < n; ++q) {
    sv.apply_gate(qir::make_h(q));
    sv.apply_gate(qir::make_rz(rng.uniform() * 3.0, q));
  }
  for (int q = 0; q + 1 < n; ++q) sv.apply_gate(qir::make_cx(q, q + 1));
  return sv;
}

/// out = lhs * rhs for the 4x4 local matrices of apply_two_qubit.
void matmul4(const cplx lhs[4][4], const cplx rhs[4][4], cplx out[4][4]) {
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      cplx acc(0.0, 0.0);
      for (int k = 0; k < 4; ++k) acc += lhs[r][k] * rhs[k][c];
      out[r][c] = acc;
    }
  }
}

TEST(ApplyTwoQubit, MatchesGateKernelsOnAdjacentAndNonAdjacentPairs) {
  // Every 2q kind, on an adjacent pair, a non-adjacent pair, and with the
  // (a, b) roles swapped — the matrix convention must track the argument
  // order, not the wire order.
  const std::vector<qir::Gate> gates = {
      qir::make_cx(0, 1),       qir::make_cx(1, 0),
      qir::make_cz(0, 2),       qir::make_cy(2, 0),
      qir::make_ch(1, 3),       qir::make_cp(0.8, 3, 1),
      qir::make_crz(1.1, 0, 3), qir::make_swap(1, 2)};
  for (const auto& g : gates) {
    const int a = g.qubits[0];
    const int b = g.qubits[1];
    cplx m[4][4];
    two_qubit_matrix(g, a, b, m);

    StateVector via_matrix = scrambled_state(4, 5);
    StateVector via_gate = scrambled_state(4, 5);
    via_matrix.apply_two_qubit(m, a, b);
    via_gate.apply_gate(g);
    EXPECT_LT(via_matrix.max_abs_diff(via_gate), 1e-12) << g.to_string();

    // Same matrix addressed with swapped (a, b) arguments must equal the
    // gate embedded with swapped roles.
    cplx swapped[4][4];
    two_qubit_matrix(g, b, a, swapped);
    StateVector via_swapped = scrambled_state(4, 5);
    via_swapped.apply_two_qubit(swapped, b, a);
    EXPECT_LT(via_swapped.max_abs_diff(via_gate), 1e-12) << g.to_string();
  }
}

TEST(ApplyTwoQubit, HighAndLowBitOrderings) {
  // a above b and b above a, including the top wire, on a 5-qubit register.
  for (auto [a, b] : std::vector<std::pair<int, int>>{{4, 0}, {0, 4}, {3, 1}}) {
    auto g = qir::make_cx(a, b);
    cplx m[4][4];
    two_qubit_matrix(g, a, b, m);
    StateVector via_matrix = scrambled_state(5, 9);
    StateVector via_gate = scrambled_state(5, 9);
    via_matrix.apply_two_qubit(m, a, b);
    via_gate.apply_gate(g);
    EXPECT_LT(via_matrix.max_abs_diff(via_gate), 1e-12)
        << "a=" << a << " b=" << b;
  }
}

TEST(ApplyTwoQubit, ProductMatrixEqualsTwoGateDecomposition) {
  // m = U_h(b) * U_cz: one fused 4x4 application == cz then h(b), the
  // textbook two-gate decomposition check.
  const int a = 2, b = 0;
  cplx m_cz[4][4], m_h[4][4], m[4][4];
  two_qubit_matrix(qir::make_cz(a, b), a, b, m_cz);
  two_qubit_matrix(qir::make_h(b), a, b, m_h);
  matmul4(m_h, m_cz, m);

  StateVector fused = scrambled_state(3, 21);
  StateVector stepwise = scrambled_state(3, 21);
  fused.apply_two_qubit(m, a, b);
  stepwise.apply_gate(qir::make_cz(a, b));
  stepwise.apply_gate(qir::make_h(b));
  EXPECT_LT(fused.max_abs_diff(stepwise), 1e-12);
}

TEST(ApplyTwoQubit, ValidatesItsArguments) {
  StateVector sv(3);
  cplx m[4][4] = {};
  for (int i = 0; i < 4; ++i) m[i][i] = 1.0;
  EXPECT_THROW(sv.apply_two_qubit(m, 1, 1), InvalidArgument);
  EXPECT_THROW(sv.apply_two_qubit(m, 0, 3), InvalidArgument);
  EXPECT_THROW(sv.apply_two_qubit(m, -1, 2), InvalidArgument);
  EXPECT_NO_THROW(sv.apply_two_qubit(m, 2, 0));
}

// ------------------------------------------------------ support tracking

/// One step of a sparse-vs-dense run: a gate, or a Pauli injection when
/// `pauli` is set.
struct Step {
  qir::Gate gate;
  char pauli = 0;
  int qubit = 0;
};

/// Every GateKind the width allows (MCX needs 4 wires) on distinct random
/// qubits, with random and quarter-turn angles, plus X/Y/Z injections.
/// `support_preserving` keeps to the permutations and diagonals, under
/// which a basis state's support stays one entry — a RevLib view's shape
/// (its few Hadamards are added by the caller).
std::vector<Step> random_steps(int n, std::size_t count, Rng& rng,
                               bool support_preserving = false) {
  std::vector<Step> steps;
  for (std::size_t i = 0; i < count; ++i) {
    Step step;
    if (rng.index(6) == 0) {
      step.pauli = "XYZ"[rng.index(3)];
      step.qubit = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
      steps.push_back(step);
      continue;
    }
    qir::GateKind kind;
    int arity;
    do {
      kind = static_cast<qir::GateKind>(
          rng.index(static_cast<std::size_t>(qir::GateKind::Barrier) + 1));
      arity = kind == qir::GateKind::MCX       ? 4 + static_cast<int>(rng.index(3))
              : kind == qir::GateKind::Barrier ? n
                                               : qir::gate_arity(kind);
    } while (arity > n ||
             (support_preserving && !qir::Gate(kind, {}).is_classical() &&
              !qir::Gate(kind, {}).is_diagonal()));
    std::vector<int> wires(static_cast<std::size_t>(n));
    std::iota(wires.begin(), wires.end(), 0);
    rng.shuffle(wires);
    wires.resize(static_cast<std::size_t>(arity));
    std::vector<double> params;
    if (qir::gate_param_count(kind) == 1) {
      params.push_back(rng.index(2) == 0 ? M_PI / 2 * static_cast<double>(rng.index(4))
                                         : rng.uniform() * 6.0);
    }
    step.gate = qir::Gate(kind, std::move(wires), std::move(params));
    steps.push_back(step);
  }
  return steps;
}

/// The dense reference: a one-gate plan densifies the register, then runs
/// apply_gate's dense kernels; an empty plan densifies before an injection.
void apply_dense(StateVector& sv, const Step& step) {
  qir::Circuit one(sv.num_qubits());
  if (step.pauli == 0) one.add(step.gate);
  sv.apply_fused(FusionPlan::build(one));
  if (step.pauli != 0) sv.apply_pauli(step.pauli, step.qubit);
}

void apply_tracked(StateVector& sv, const Step& step) {
  if (step.pauli == 0) {
    sv.apply_gate(step.gate);
  } else {
    sv.apply_pauli(step.pauli, step.qubit);
  }
}

std::uint64_t bits_of(double x, bool fold_zero_sign) {
  if (fold_zero_sign && x == 0.0) x = 0.0;
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// Bitwise amplitude equality; -0 equals +0 when `fold_zero_sign`.
void expect_same_bits(const StateVector& a, const StateVector& b,
                      bool fold_zero_sign, const std::string& where) {
  ASSERT_EQ(a.dim(), b.dim());
  for (std::size_t i = 0; i < a.dim(); ++i) {
    const cplx x = a.amplitudes()[i], y = b.amplitudes()[i];
    ASSERT_EQ(bits_of(x.real(), fold_zero_sign), bits_of(y.real(), fold_zero_sign))
        << where << ", amplitude " << i;
    ASSERT_EQ(bits_of(x.imag(), fold_zero_sign), bits_of(y.imag(), fold_zero_sign))
        << where << ", amplitude " << i;
  }
}

void expect_same_draws(const StateVector& a, const StateVector& b,
                       std::uint64_t seed, const std::string& where) {
  Rng ra(seed), rb(seed);
  for (int d = 0; d < 10000; ++d) {
    ASSERT_EQ(a.sample(ra), b.sample(rb)) << where << ", draw " << d;
  }
}

/// A few Hadamards on a basis state, then permutations and diagonals: the
/// support stays at most 2^3 entries, in the order the gates moved them.
std::vector<Step> small_support_steps(int n, std::size_t count, Rng& rng) {
  std::vector<Step> steps;
  for (int q = 0; q < std::min(n, 3); ++q) steps.push_back({qir::make_h(q)});
  for (const Step& step : random_steps(n, count, rng, true)) steps.push_back(step);
  return steps;
}

// Random streams over every kind from random basis states at 1-14 qubits:
// amplitudes equal the dense kernels' up to the sign of a zero after every
// step, whether the register stays sparse (trial 2), crosses the limit
// mid-stream (trial 1: the Hadamard layer holds 2^n entries) or is reset
// after densifying.
TEST(SparseSupport, MatchesDenseKernelsAtEveryStep) {
  Rng rng(24);
  for (int n = 1; n <= 14; ++n) {
    for (int trial = 0; trial < 3; ++trial) {
      const std::string where =
          std::to_string(n) + " qubits, trial " + std::to_string(trial);
      std::vector<Step> steps = trial == 2 ? small_support_steps(n, 150, rng)
                                           : random_steps(n, n >= 12 ? 60 : 150, rng);
      if (trial == 1) {
        // Fill the register half way through.
        std::vector<Step> layer(static_cast<std::size_t>(n));
        for (int q = 0; q < n; ++q) layer[static_cast<std::size_t>(q)].gate = qir::make_h(q);
        steps.insert(steps.begin() + static_cast<std::ptrdiff_t>(steps.size() / 2),
                     layer.begin(), layer.end());
      }
      const std::size_t basis = rng.index(std::size_t{1} << n);
      StateVector tracked(n), dense(n);
      tracked.set_basis_state(basis);
      dense.set_basis_state(basis);
      for (std::size_t i = 0; i < steps.size(); ++i) {
        apply_tracked(tracked, steps[i]);
        apply_dense(dense, steps[i]);
        expect_same_bits(tracked, dense, true, where + ", step " + std::to_string(i));
        if (HasFatalFailure()) return;
      }
      if (trial != 1) continue;
      // Back to a basis state after densifying: tracking resumes.
      tracked.reset();
      dense.reset();
      for (const Step& step : random_steps(n, 40, rng)) {
        apply_tracked(tracked, step);
        apply_dense(dense, step);
      }
      expect_same_bits(tracked, dense, true, where + ", after reset");
      if (HasFatalFailure()) return;
    }
  }
}

// The support's norms, summed in index order, stop where the dense scan
// stops: 10^4 draws land on the same indices, whether the register is
// still sparse or has densified.
TEST(SparseSupport, SampleDrawsTheDenseIndex) {
  Rng rng(7);
  for (int n : {5, 6, 9, 12, 13}) {
    for (bool small : {true, false}) {
      StateVector tracked(n), dense(n);
      const std::size_t basis = rng.index(std::size_t{1} << n);
      tracked.set_basis_state(basis);
      dense.set_basis_state(basis);
      for (const Step& step : small ? small_support_steps(n, 80, rng)
                                    : random_steps(n, 120, rng)) {
        apply_tracked(tracked, step);
        apply_dense(dense, step);
      }
      expect_same_draws(tracked, dense, 99,
                        std::to_string(n) + (small ? " qubits, small" : " qubits"));
    }
  }
}

// Copies carry the support: a copy-constructed register continues bit for
// bit, and a copy assigned over another sparse register (how a trajectory
// restores a checkpoint) continues equal up to zero signs.
TEST(SparseSupport, CopiesContinueIdentically) {
  Rng rng(11);
  for (int n : {6, 11}) {
    StateVector original(n);
    for (const Step& step : small_support_steps(n, 30, rng)) {
      apply_tracked(original, step);
    }
    StateVector constructed(original);
    StateVector assigned(n);
    for (const Step& step : small_support_steps(n, 10, rng)) {
      apply_tracked(assigned, step);
    }
    assigned = original;
    for (const Step& step : small_support_steps(n, 60, rng)) {
      apply_tracked(original, step);
      apply_tracked(constructed, step);
      apply_tracked(assigned, step);
    }
    expect_same_bits(constructed, original, false, "copy-constructed");
    expect_same_bits(assigned, original, true, "copy-assigned");
    expect_same_draws(assigned, original, 5, "copy-assigned");
  }
}

TEST(ApplyMatrix, MatchesNamedKind) {
  cplx m[2][2];
  single_qubit_matrix(qir::GateKind::H, {}, m);
  StateVector via_matrix(2), via_gate(2);
  via_matrix.apply_matrix(m, 1);
  via_gate.apply_gate(qir::make_h(1));
  EXPECT_EQ(via_matrix.max_abs_diff(via_gate), 0.0);
  EXPECT_THROW(via_matrix.apply_matrix(m, 2), InvalidArgument);
}

}  // namespace
}  // namespace tetris::sim
