#include "sim/statevector.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.h"
#include "sim/kernels/kernels.h"

namespace tetris::sim {

namespace {
constexpr double kInvSqrt2 = 0.70710678118654752440;
const cplx kI(0.0, 1.0);
}  // namespace

void single_qubit_matrix(qir::GateKind kind, const std::vector<double>& params,
                         cplx out[2][2]) {
  using qir::GateKind;
  auto set = [&](cplx a, cplx b, cplx c, cplx d) {
    out[0][0] = a; out[0][1] = b; out[1][0] = c; out[1][1] = d;
  };
  switch (kind) {
    case GateKind::I:    set(1, 0, 0, 1); return;
    case GateKind::X:    set(0, 1, 1, 0); return;
    case GateKind::Y:    set(0, -kI, kI, 0); return;
    case GateKind::Z:    set(1, 0, 0, -1); return;
    case GateKind::H:    set(kInvSqrt2, kInvSqrt2, kInvSqrt2, -kInvSqrt2); return;
    case GateKind::S:    set(1, 0, 0, kI); return;
    case GateKind::Sdg:  set(1, 0, 0, -kI); return;
    case GateKind::T:    set(1, 0, 0, std::exp(kI * (M_PI / 4.0))); return;
    case GateKind::Tdg:  set(1, 0, 0, std::exp(-kI * (M_PI / 4.0))); return;
    case GateKind::SX:
      set(0.5 * cplx(1, 1), 0.5 * cplx(1, -1), 0.5 * cplx(1, -1), 0.5 * cplx(1, 1));
      return;
    case GateKind::SXdg:
      set(0.5 * cplx(1, -1), 0.5 * cplx(1, 1), 0.5 * cplx(1, 1), 0.5 * cplx(1, -1));
      return;
    case GateKind::RX: {
      double t = params.at(0) / 2.0;
      set(std::cos(t), -kI * std::sin(t), -kI * std::sin(t), std::cos(t));
      return;
    }
    case GateKind::RY: {
      double t = params.at(0) / 2.0;
      set(std::cos(t), -std::sin(t), std::sin(t), std::cos(t));
      return;
    }
    case GateKind::RZ: {
      double t = params.at(0) / 2.0;
      set(std::exp(-kI * t), 0, 0, std::exp(kI * t));
      return;
    }
    case GateKind::P:
      set(1, 0, 0, std::exp(kI * params.at(0)));
      return;
    default:
      throw InvalidArgument("single_qubit_matrix: kind '" +
                            qir::gate_kind_name(kind) + "' is not single-qubit");
  }
}

StateVector::StateVector(int num_qubits) : num_qubits_(num_qubits) {
  TETRIS_REQUIRE(num_qubits >= 0 && num_qubits <= kMaxQubits,
                 "StateVector supports 0.." + std::to_string(kMaxQubits) +
                     " qubits");
  amps_.assign(std::size_t{1} << num_qubits, cplx(0.0, 0.0));
  amps_[0] = 1.0;
  sparse_ = (amps_.size() >> kSparseShift) >= 1;
  if (sparse_) support_.assign(1, 0);
}

StateVector& StateVector::operator=(const StateVector& other) {
  if (this == &other) return *this;
  if (!sparse_ || !other.sparse_ || amps_.size() != other.amps_.size()) {
    num_qubits_ = other.num_qubits_;
    tile_qubits_ = other.tile_qubits_;
    amps_ = other.amps_;
    support_ = other.support_;
    sparse_ = other.sparse_;
    return *this;
  }
  // Both registers are zero off their supports.
  for (std::size_t i : support_) amps_[i] = cplx(0.0, 0.0);
  for (std::size_t i : other.support_) amps_[i] = other.amps_[i];
  support_ = other.support_;
  tile_qubits_ = other.tile_qubits_;
  return *this;
}

void StateVector::to_basis(std::size_t index) {
  if (sparse_) {
    for (std::size_t i : support_) amps_[i] = cplx(0.0, 0.0);
  } else {
    std::fill(amps_.begin(), amps_.end(), cplx(0.0, 0.0));
    sparse_ = (amps_.size() >> kSparseShift) >= 1;
  }
  amps_[index] = 1.0;
  if (sparse_) support_.assign(1, index);
}

void StateVector::reset() { to_basis(0); }

void StateVector::set_basis_state(std::size_t index) {
  TETRIS_REQUIRE(index < amps_.size(), "set_basis_state: index out of range");
  to_basis(index);
}

template <typename PairOp>
void StateVector::sparse_pairs(const kernels::Subspace& s, PairOp pair) {
  const cplx zero(0.0, 0.0);
  // Split the support into the entries the kernel would not visit, kept
  // in place, and the bases i0 of the pairs it would. An entry that is the
  // partner i1 of a base defers to that base when the base is in the
  // support too (nonzero), so each pair runs once.
  std::size_t kept = 0;
  for (const std::size_t i : support_) {
    if ((i & s.spliced) == s.set) {
      pairs_.push_back(i);
    } else if (((i ^ s.flip) & s.spliced) == s.set) {
      if (amps_[i ^ s.flip] == zero) pairs_.push_back(i ^ s.flip);
    } else {
      support_[kept++] = i;
    }
  }
  support_.resize(kept);
  for (const std::size_t i0 : pairs_) {
    const std::size_t i1 = i0 ^ s.flip;
    pair(amps_[i0], amps_[i1]);
    if (amps_[i0] != zero) support_.push_back(i0);
    if (i1 != i0 && amps_[i1] != zero) support_.push_back(i1);
  }
  pairs_.clear();
  if (support_.size() > (amps_.size() >> kSparseShift)) densify();
}

namespace {

// The per-pair arithmetic of the subspace kernels (kernels_scalar.cpp),
// for the sparse path: the same expressions, so the same bits.
void swap_pair(cplx& a0, cplx& a1) { std::swap(a0, a1); }

void pauli_y_pair(cplx& a0, cplx& a1) {
  const cplx x0 = a0;
  a0 = cplx(0.0, -1.0) * a1;
  a1 = cplx(0.0, 1.0) * x0;
}

auto scale_pair(cplx c) {
  return [c](cplx& a0, cplx&) { a0 *= c; };
}

auto matrix_pair(const kernels::M2& m) {
  return [m](cplx& a0, cplx& a1) {
    const cplx x0 = a0;
    const cplx x1 = a1;
    a0 = m.m00 * x0 + m.m01 * x1;
    a1 = m.m10 * x0 + m.m11 * x1;
  };
}

}  // namespace

void StateVector::apply_single_qubit(const cplx m[2][2], int q) {
  cplx* amps = amps_.data();
  const kernels::SimdMode mode = kernels::simd_mode();
  const cplx m00 = m[0][0], m01 = m[0][1], m10 = m[1][0], m11 = m[1][1];
  const std::size_t bit = std::size_t{1} << q;
  // Diagonal fast path (Z/S/T/RZ/P and fused products of them): one
  // branch-free contiguous pass with a single multiply per amplitude,
  // instead of the paired gather. The skipped terms are exact zeros
  // (m01 * a1 == 0), so this cannot move any |amp| — only the sign of a
  // zero.
  if (m01 == cplx(0.0, 0.0) && m10 == cplx(0.0, 0.0)) {
    if (sparse_) {
      sparse_pairs({bit, 0, bit}, [m00, m11](cplx& a0, cplx& a1) {
        a0 *= m00;
        a1 *= m11;
      });
      return;
    }
    kernels::sweep_diag(mode, amps, 0, amps_.size(), q, m00, m11);
    return;
  }
  if (sparse_) {
    sparse_pairs({bit, 0, bit}, matrix_pair({m00, m01, m10, m11}));
    return;
  }
  // Pair index k interleaves (block, offset): i0 is k with a zero bit spliced
  // in at position q, so every k touches its own {i0, i1} pair.
  kernels::sweep_1q(mode, amps, 0, amps_.size() / 2, q,
                    kernels::M2{m00, m01, m10, m11});
}

template <typename Kernel, typename PairOp>
void StateVector::run_subspace(const kernels::Subspace& s, Kernel kernel,
                               PairOp pair) {
  if (sparse_) {
    sparse_pairs(s, pair);
    return;
  }
  kernel(amps_.data(), 0, kernels::subspace_size(amps_.size(), s), s);
}

void StateVector::apply_matrix(const cplx m[2][2], int q) {
  TETRIS_REQUIRE(q >= 0 && q < num_qubits_, "apply_matrix: qubit out of range");
  densify();
  apply_single_qubit(m, q);
}

void StateVector::apply_gang(const std::vector<SingleQubitOp>& ops) {
  densify();
  if (ops.empty()) return;
  const int k = static_cast<int>(ops.size());
  TETRIS_REQUIRE(k <= kMaxGangQubits, "apply_gang: too many gang qubits");
  for (const SingleQubitOp& op : ops) {
    TETRIS_REQUIRE(op.qubit >= 0 && op.qubit < num_qubits_,
                   "apply_gang: qubit out of range");
  }
  // Duplicate check here; the execution plan (sorted qubits, block offsets,
  // per-op local positions) is built by the kernel layer.
  std::vector<int> sorted(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) sorted[static_cast<std::size_t>(j)] = ops[static_cast<std::size_t>(j)].qubit;
  std::sort(sorted.begin(), sorted.end());
  for (int j = 0; j + 1 < k; ++j) {
    TETRIS_REQUIRE(sorted[static_cast<std::size_t>(j)] !=
                       sorted[static_cast<std::size_t>(j) + 1],
                   "apply_gang: duplicate qubit");
  }
  const kernels::GangPlan plan = kernels::make_gang_plan(ops.data(), ops.size());
  kernels::sweep_gang(kernels::simd_mode(), amps_.data(), 0, amps_.size() >> k,
                      plan);
}

void StateVector::apply_two_qubit(const cplx m[4][4], int a, int b) {
  TETRIS_REQUIRE(a >= 0 && a < num_qubits_ && b >= 0 && b < num_qubits_,
                 "apply_two_qubit: qubit out of range");
  TETRIS_REQUIRE(a != b, "apply_two_qubit: qubits must be distinct");
  densify();
  kernels::M4 m4;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) m4.v[r * 4 + c] = m[r][c];
  }
  cplx* amps = amps_.data();
  const kernels::SimdMode mode = kernels::simd_mode();
  // Monomial fast path: exactly one nonzero per row (and per column — the
  // matrix is unitary up to the caller), which covers every product of
  // permutation and phase gates: CX/CZ/CP/CRZ/SWAP runs, X/Z/S/T/RZ on the
  // pair, and their mixtures. One multiply per amplitude instead of the
  // dense 16-multiply row sums; the dropped terms are exact zeros, so only
  // zero signs can differ from the dense path.
  int src[4] = {0, 0, 0, 0};
  cplx coef[4];
  if (kernels::monomial_decompose(m4, src, coef)) {
    kernels::sweep_2q_monomial(mode, amps, 0, amps_.size() / 4, a, b, src,
                               coef);
    return;
  }
  kernels::sweep_2q(mode, amps, 0, amps_.size() / 4, a, b, m4);
}

void StateVector::apply_gate(const qir::Gate& gate) {
  using qir::GateKind;
  // The subspace kernels splice one index bit out per wire, so the wires
  // must be distinct as well as in range.
  std::size_t wires = 0;
  for (int q : gate.qubits) {
    TETRIS_REQUIRE(q >= 0 && q < num_qubits_, "apply_gate: qubit out of range");
    const std::size_t bit = std::size_t{1} << q;
    TETRIS_REQUIRE((wires & bit) == 0, "apply_gate: repeated qubit");
    wires |= bit;
  }
  if (gate.kind == GateKind::Barrier) return;
  // Controls are all qubits but the target (the last one; the last two for
  // the swaps).
  const std::size_t last = std::size_t{1} << gate.qubits.back();
  const std::size_t controls = wires & ~last;
  cplx m[2][2];
  switch (gate.kind) {
    case GateKind::CX:
    case GateKind::CCX:
    case GateKind::MCX:
      run_subspace({wires, controls, last}, kernels::sweep_swap, swap_pair);
      return;
    case GateKind::SWAP:
    case GateKind::CSWAP: {
      // set = controls | a, so i0 has a set and b clear; flip moves it to
      // the partner with b set and a clear.
      const std::size_t a =
          std::size_t{1} << gate.qubits[gate.qubits.size() - 2];
      run_subspace({wires, controls, a | last}, kernels::sweep_swap,
                   swap_pair);
      return;
    }
    case GateKind::X: apply_pauli('X', gate.qubits[0]); return;
    case GateKind::Y: apply_pauli('Y', gate.qubits[0]); return;
    case GateKind::Z: apply_pauli('Z', gate.qubits[0]); return;
    case GateKind::CZ:
    case GateKind::CP:
    case GateKind::CRZ: {
      // Diagonal on the control subspace: target-|1> amplitudes times m11,
      // target-|0> ones times m00 unless it is exactly 1 (a no-op product).
      single_qubit_matrix(gate.kind == GateKind::CZ   ? GateKind::Z
                          : gate.kind == GateKind::CP ? GateKind::P
                                                      : GateKind::RZ,
                          gate.params, m);
      const auto scale = [this](const kernels::Subspace& s, cplx c) {
        run_subspace(s,
                     [c](cplx* amps, std::size_t begin, std::size_t end,
                         const kernels::Subspace& sub) {
                       kernels::sweep_scale(amps, begin, end, sub, c);
                     },
                     scale_pair(c));
      };
      if (m[0][0] != cplx(1.0, 0.0)) scale({wires, controls, 0}, m[0][0]);
      scale({wires, wires, 0}, m[1][1]);
      return;
    }
    case GateKind::CY:
    case GateKind::CH: {
      single_qubit_matrix(gate.kind == GateKind::CY ? GateKind::Y : GateKind::H,
                          gate.params, m);
      const kernels::M2 m2{m[0][0], m[0][1], m[1][0], m[1][1]};
      run_subspace({wires, controls, last},
                   [&m2](cplx* amps, std::size_t begin, std::size_t end,
                         const kernels::Subspace& s) {
                     kernels::sweep_controlled_1q(amps, begin, end, s, m2);
                   },
                   matrix_pair(m2));
      return;
    }
    default:
      single_qubit_matrix(gate.kind, gate.params, m);
      apply_single_qubit(m, gate.qubits[0]);
      return;
  }
}

void StateVector::apply_circuit(const qir::Circuit& circuit) {
  TETRIS_REQUIRE(circuit.num_qubits() <= num_qubits_,
                 "apply_circuit: circuit wider than register");
  for (const auto& g : circuit.gates()) apply_gate(g);
}

void StateVector::apply_pauli(char pauli, int q) {
  TETRIS_REQUIRE(q >= 0 && q < num_qubits_, "apply_pauli: qubit out of range");
  if (pauli == 'I') return;
  if (pauli != 'X' && pauli != 'Y' && pauli != 'Z') {
    throw InvalidArgument(std::string("apply_pauli: bad Pauli '") + pauli + "'");
  }
  const std::size_t bit = std::size_t{1} << q;
  if (sparse_) {
    if (pauli == 'X') sparse_pairs({bit, 0, bit}, swap_pair);
    if (pauli == 'Y') sparse_pairs({bit, 0, bit}, pauli_y_pair);
    if (pauli == 'Z') sparse_pairs({bit, bit, 0}, scale_pair(cplx(-1.0, 0.0)));
    return;
  }
  kernels::sweep_pauli(pauli, amps_.data(), 0, amps_.size() / 2, q);
}

std::vector<double> StateVector::probabilities() const {
  std::vector<double> p(amps_.size());
  for (std::size_t i = 0; i < amps_.size(); ++i) p[i] = std::norm(amps_[i]);
  return p;
}

std::size_t StateVector::sample(Rng& rng) const {
  double r = rng.uniform();
  double acc = 0.0;
  if (sparse_) {
    // The dense scan's sum in its order: the zeros it adds change nothing.
    // Sorted in a copy, since shard workers may share this register.
    std::vector<std::size_t> order(support_);
    std::sort(order.begin(), order.end());
    for (std::size_t i : order) {
      acc += std::norm(amps_[i]);
      if (r < acc) return i;
    }
    return amps_.size() - 1;
  }
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    acc += std::norm(amps_[i]);
    if (r < acc) return i;
  }
  return amps_.size() - 1;  // numerical tail
}

cplx StateVector::inner(const StateVector& other) const {
  TETRIS_REQUIRE(num_qubits_ == other.num_qubits_, "inner: width mismatch");
  cplx acc(0.0, 0.0);
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    acc += std::conj(amps_[i]) * other.amps_[i];
  }
  return acc;
}

double StateVector::fidelity(const StateVector& other) const {
  return std::norm(inner(other));
}

double StateVector::max_abs_diff(const StateVector& other) const {
  TETRIS_REQUIRE(num_qubits_ == other.num_qubits_, "max_abs_diff: width mismatch");
  double mx = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    mx = std::max(mx, std::abs(amps_[i] - other.amps_[i]));
  }
  return mx;
}

void StateVector::normalize() {
  densify();
  double norm2 = 0.0;
  for (const cplx& a : amps_) norm2 += std::norm(a);
  TETRIS_REQUIRE(norm2 > 0.0, "normalize: zero state");
  double inv = 1.0 / std::sqrt(norm2);
  for (cplx& a : amps_) a *= inv;
}

}  // namespace tetris::sim
