#include "sim/statevector.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.h"
#include "runtime/thread_pool.h"
#include "sim/kernels/kernels.h"

namespace tetris::sim {

namespace {
constexpr double kInvSqrt2 = 0.70710678118654752440;
const cplx kI(0.0, 1.0);

/// Runs `kernel(begin, end)` over [0, count): chunked across the global pool
/// when `parallel` is set, as one serial call otherwise. Both paths execute
/// the same per-index arithmetic, so results are bit-identical. `align`
/// keeps chunk boundaries on vector-group multiples (AVX2 processes two
/// complex amplitudes per register) — a partitioning nicety, never a
/// correctness requirement.
template <typename Kernel>
void run_kernel(bool parallel, std::size_t grain, std::size_t align,
                std::size_t count, const Kernel& kernel) {
  if (parallel) {
    runtime::parallel_for(0, count, kernel, {grain, nullptr, align});
  } else {
    kernel(std::size_t{0}, count);
  }
}

/// Chunk alignment for the active mode: AVX2 packs 2 complex per register.
std::size_t mode_align(kernels::SimdMode mode) {
  return mode == kernels::SimdMode::kAvx2 ? 2 : 1;
}
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
}

void StateVector::reset() {
  std::fill(amps_.begin(), amps_.end(), cplx(0.0, 0.0));
  amps_[0] = 1.0;
}

void StateVector::set_basis_state(std::size_t index) {
  TETRIS_REQUIRE(index < amps_.size(), "set_basis_state: index out of range");
  std::fill(amps_.begin(), amps_.end(), cplx(0.0, 0.0));
  amps_[index] = 1.0;
}

void StateVector::apply_single_qubit(const cplx m[2][2], int q) {
  cplx* amps = amps_.data();
  const kernels::SimdMode mode = kernels::simd_mode();
  const cplx m00 = m[0][0], m01 = m[0][1], m10 = m[1][0], m11 = m[1][1];
  // Diagonal fast path (Z/S/T/RZ/P and fused products of them): one
  // branch-free contiguous pass with a single multiply per amplitude,
  // instead of the paired gather. The skipped terms are exact zeros
  // (m01 * a1 == 0), so this cannot move any |amp| — only the sign of a
  // zero — and parallel chunks stay bit-identical to serial.
  if (m01 == cplx(0.0, 0.0) && m10 == cplx(0.0, 0.0)) {
    run_kernel(use_parallel(), parallel_grain_, mode_align(mode),
               amps_.size(), [=](std::size_t begin, std::size_t end) {
                 kernels::sweep_diag(mode, amps, begin, end, q, m00, m11);
               });
    return;
  }
  // Pair index k interleaves (block, offset): i0 is k with a zero bit spliced
  // in at position q. Every k touches a disjoint {i0, i1} pair, so chunks of
  // k are race-free and order-independent.
  const kernels::M2 m2{m00, m01, m10, m11};
  run_kernel(use_parallel(), parallel_grain_, mode_align(mode),
             amps_.size() / 2, [=](std::size_t k_begin, std::size_t k_end) {
               kernels::sweep_1q(mode, amps, k_begin, k_end, q, m2);
             });
}

template <typename Kernel>
void StateVector::run_subspace(const kernels::Subspace& s, Kernel kernel) {
  cplx* amps = amps_.data();
  // Every subspace index touches its own one or two amplitudes, so chunks
  // never collide and parallel output is bit-identical to serial.
  run_kernel(use_parallel(), parallel_grain_, 1,
             kernels::subspace_size(amps_.size(), s),
             [=](std::size_t begin, std::size_t end) {
               kernel(amps, begin, end, s);
             });
}

void StateVector::apply_matrix(const cplx m[2][2], int q) {
  TETRIS_REQUIRE(q >= 0 && q < num_qubits_, "apply_matrix: qubit out of range");
  apply_single_qubit(m, q);
}

void StateVector::apply_gang(const std::vector<SingleQubitOp>& ops) {
  if (ops.empty()) return;
  const int k = static_cast<int>(ops.size());
  TETRIS_REQUIRE(k <= kMaxGangQubits, "apply_gang: too many gang qubits");
  for (const SingleQubitOp& op : ops) {
    TETRIS_REQUIRE(op.qubit >= 0 && op.qubit < num_qubits_,
                   "apply_gang: qubit out of range");
  }
  // Duplicate check here; the execution plan (sorted qubits, block offsets,
  // per-op local positions) is built by the kernel layer and shared
  // read-only by every chunk.
  std::vector<int> sorted(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) sorted[static_cast<std::size_t>(j)] = ops[static_cast<std::size_t>(j)].qubit;
  std::sort(sorted.begin(), sorted.end());
  for (int j = 0; j + 1 < k; ++j) {
    TETRIS_REQUIRE(sorted[static_cast<std::size_t>(j)] !=
                       sorted[static_cast<std::size_t>(j) + 1],
                   "apply_gang: duplicate qubit");
  }
  const kernels::GangPlan plan = kernels::make_gang_plan(ops.data(), ops.size());
  const kernels::GangPlan* pplan = &plan;  // outlives the joined parallel_for
  const kernels::SimdMode mode = kernels::simd_mode();
  cplx* amps = amps_.data();
  const std::size_t outer_count = amps_.size() >> k;
  // Keep the per-chunk byte footprint comparable to the 1q kernel's: each
  // outer index covers 2^k amplitudes.
  const std::size_t grain = std::max<std::size_t>(1, parallel_grain_ >> k);
  run_kernel(use_parallel(), grain, 1, outer_count,
             [=](std::size_t begin, std::size_t end) {
               kernels::sweep_gang(mode, amps, begin, end, *pplan);
             });
}

void StateVector::apply_two_qubit(const cplx m[4][4], int a, int b) {
  TETRIS_REQUIRE(a >= 0 && a < num_qubits_ && b >= 0 && b < num_qubits_,
                 "apply_two_qubit: qubit out of range");
  TETRIS_REQUIRE(a != b, "apply_two_qubit: qubits must be distinct");
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
    run_kernel(use_parallel(), std::max<std::size_t>(1, parallel_grain_ / 4),
               1, amps_.size() / 4, [=](std::size_t begin, std::size_t end) {
                 kernels::sweep_2q_monomial(mode, amps, begin, end, a, b, src,
                                            coef);
               });
    return;
  }
  run_kernel(use_parallel(), std::max<std::size_t>(1, parallel_grain_ / 4),
             1, amps_.size() / 4, [=](std::size_t begin, std::size_t end) {
               kernels::sweep_2q(mode, amps, begin, end, a, b, m4);
             });
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
      run_subspace({wires, controls, last}, kernels::sweep_swap);
      return;
    case GateKind::SWAP:
    case GateKind::CSWAP: {
      // set = controls | a, so i0 has a set and b clear; flip moves it to
      // the partner with b set and a clear.
      const std::size_t a =
          std::size_t{1} << gate.qubits[gate.qubits.size() - 2];
      run_subspace({wires, controls, a | last}, kernels::sweep_swap);
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
        run_subspace(s, [c](cplx* amps, std::size_t begin, std::size_t end,
                            const kernels::Subspace& sub) {
          kernels::sweep_scale(amps, begin, end, sub, c);
        });
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
                   });
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
  run_subspace({bit, 0, bit}, [pauli, q](cplx* amps, std::size_t begin,
                                         std::size_t end,
                                         const kernels::Subspace&) {
    kernels::sweep_pauli(pauli, amps, begin, end, q);
  });
}

std::vector<double> StateVector::probabilities() const {
  std::vector<double> p(amps_.size());
  double* out = p.data();
  const cplx* amps = amps_.data();
  run_kernel(use_parallel(), parallel_grain_, 1, amps_.size(),
             [=](std::size_t begin, std::size_t end) {
               for (std::size_t i = begin; i < end; ++i) {
                 out[i] = std::norm(amps[i]);
               }
             });
  return p;
}

std::size_t StateVector::sample(Rng& rng) const {
  double r = rng.uniform();
  double acc = 0.0;
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
  double norm2 = 0.0;
  for (const cplx& a : amps_) norm2 += std::norm(a);
  TETRIS_REQUIRE(norm2 > 0.0, "normalize: zero state");
  double inv = 1.0 / std::sqrt(norm2);
  for (cplx& a : amps_) a *= inv;
}

}  // namespace tetris::sim
