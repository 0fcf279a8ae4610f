#include "sim/fusion.h"

#include <cstring>

#include "common/error.h"

namespace tetris::sim {

namespace {

/// True for the kinds the 1q-window scanner accepts.
bool is_single_qubit_gate(const qir::Gate& g) {
  return g.kind != qir::GateKind::Barrier && g.qubits.size() == 1;
}

/// out = lhs * rhs (2x2).
void multiply2(const cplx lhs[2][2], const cplx rhs[2][2], cplx out[2][2]) {
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      out[r][c] = lhs[r][0] * rhs[0][c] + lhs[r][1] * rhs[1][c];
    }
  }
}

/// A qubit with no op in the current window.
constexpr std::size_t kNoOp = ~std::size_t{0};

}  // namespace

double FusionStats::sweep_reduction() const {
  if (gates_in == 0) return 0.0;
  return 1.0 - static_cast<double>(ops_out) / static_cast<double>(gates_in);
}

FusionPlan FusionPlan::build(const qir::Circuit& circuit) {
  FusionPlan plan;
  plan.num_qubits_ = circuit.num_qubits();
  const auto& gates = circuit.gates();
  const auto emit_passthrough = [&](std::size_t index) {
    FusedOp op;
    op.first_gate = index;
    op.gate = gates[index];
    plan.ops_.push_back(std::move(op));
  };
  // The current window of consecutive 1q gates: the qubits it touched, and
  // per qubit the op its gates fold into.
  std::vector<std::size_t> op_of(static_cast<std::size_t>(plan.num_qubits_),
                                 kNoOp);
  std::vector<std::size_t> window;

  for (std::size_t i = 0; i < gates.size(); ++i) {
    const qir::Gate& g = gates[i];
    if (!is_single_qubit_gate(g)) {
      // Barriers (fences with no unitary action) and multi-qubit gates end
      // the window.
      for (std::size_t q : window) op_of[q] = kNoOp;
      window.clear();
      if (g.kind == qir::GateKind::Barrier) {
        ++plan.stats_.barriers;
      } else {
        // Multi-qubit gates run apply_gate's subspace kernels.
        ++plan.stats_.gates_in;
        emit_passthrough(i);
      }
      continue;
    }
    ++plan.stats_.gates_in;
    const auto q = static_cast<std::size_t>(g.qubits[0]);
    if (op_of[q] == kNoOp) {
      op_of[q] = plan.ops_.size();
      window.push_back(q);
      emit_passthrough(i);
      continue;
    }
    // The qubit's second gate in the window turns its passthrough into a
    // 2x2; each later gate is left-multiplied onto it (temporal order).
    FusedOp& op = plan.ops_[op_of[q]];
    if (op.kind == FusedOp::Kind::kGate) {
      op.kind = FusedOp::Kind::kSingle;
      op.single.qubit = g.qubits[0];
      single_qubit_matrix(op.gate.kind, op.gate.params, op.single.m);
      op.gate = qir::Gate();
      ++plan.stats_.gates_fused;
    }
    cplx m[2][2];
    single_qubit_matrix(g.kind, g.params, m);
    cplx product[2][2];
    multiply2(m, op.single.m, product);
    std::memcpy(op.single.m, product, sizeof(product));
    ++op.gate_count;
    ++plan.stats_.gates_fused;
  }
  plan.stats_.ops_out = plan.ops_.size();
  return plan;
}

void StateVector::apply_fused(const FusionPlan& plan) {
  TETRIS_REQUIRE(plan.num_qubits() <= num_qubits_,
                 "apply_fused: plan wider than register");
  for (const FusedOp& op : plan.ops()) {
    if (op.kind == FusedOp::Kind::kSingle) {
      apply_matrix(op.single.m, op.single.qubit);
    } else {
      apply_gate(op.gate);
    }
  }
}

}  // namespace tetris::sim
