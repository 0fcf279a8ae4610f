#include "sim/fusion.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "sim/kernels/kernels.h"

namespace tetris::sim {

namespace {

/// True for the kinds the 1q-window scanner accepts.
bool is_single_qubit_gate(const qir::Gate& g) {
  return g.kind != qir::GateKind::Barrier && g.qubits.size() == 1;
}

/// True for the kinds the pair-window scanner can absorb into a 4x4: any
/// gate whose qubits are a subset of {a, b}.
bool acts_within_pair(const qir::Gate& g, int a, int b) {
  if (g.kind == qir::GateKind::Barrier) return false;
  if (g.qubits.empty() || g.qubits.size() > 2) return false;
  for (int q : g.qubits) {
    if (q != a && q != b) return false;
  }
  return true;
}

/// out = lhs * rhs (2x2).
void multiply2(const cplx lhs[2][2], const cplx rhs[2][2], cplx out[2][2]) {
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      out[r][c] = lhs[r][0] * rhs[0][c] + lhs[r][1] * rhs[1][c];
    }
  }
}

/// out = lhs * rhs (4x4).
void multiply4(const cplx lhs[4][4], const cplx rhs[4][4], cplx out[4][4]) {
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      cplx acc(0.0, 0.0);
      for (int k = 0; k < 4; ++k) acc += lhs[r][k] * rhs[k][c];
      out[r][c] = acc;
    }
  }
}

}  // namespace

double FusionStats::sweep_reduction() const {
  if (gates_in == 0) return 0.0;
  return 1.0 - static_cast<double>(ops_out) / static_cast<double>(gates_in);
}

void two_qubit_matrix(const qir::Gate& gate, int a, int b, cplx out[4][4]) {
  TETRIS_REQUIRE(a != b, "two_qubit_matrix: qubits must be distinct");
  TETRIS_REQUIRE(acts_within_pair(gate, a, b),
                 "two_qubit_matrix: gate '" + gate.name() +
                     "' does not act within the qubit pair");
  // Execute the gate on a 2-wire register with a -> wire 0 and b -> wire 1;
  // basis index (bit1 << 1) | bit0 is then exactly apply_two_qubit's local
  // convention, and reusing apply_gate guarantees the embedded matrix agrees
  // with the unfused kernels for every kind.
  qir::Gate local = gate;
  for (int& q : local.qubits) q = (q == a) ? 0 : 1;
  StateVector sv(2);
  for (std::size_t col = 0; col < 4; ++col) {
    sv.set_basis_state(col);
    sv.apply_gate(local);
    const auto& amps = sv.amplitudes();
    for (std::size_t row = 0; row < 4; ++row) out[row][col] = amps[row];
  }
}

FusionPlan FusionPlan::build(const qir::Circuit& circuit,
                             const FusionOptions& options) {
  TETRIS_REQUIRE(options.max_gang_qubits >= 1 &&
                     options.max_gang_qubits <= StateVector::kMaxGangQubits,
                 "FusionPlan: max_gang_qubits out of range");

  FusionPlan plan;
  plan.num_qubits_ = circuit.num_qubits();
  const auto& gates = circuit.gates();
  const auto emit_passthrough = [&](std::size_t index) {
    FusedOp op;
    op.kind = FusedOp::Kind::kGate;
    op.first_gate = index;
    op.gate_count = 1;
    op.gate = gates[index];
    plan.ops_.push_back(std::move(op));
  };

  std::size_t i = 0;
  while (i < gates.size()) {
    const qir::Gate& g = gates[i];
    if (g.kind == qir::GateKind::Barrier) {
      // Barriers have no unitary action; they survive only as fences (the
      // window scanners below stop at them).
      ++plan.stats_.barriers;
      ++i;
      continue;
    }

    if (is_single_qubit_gate(g)) {
      // Window of consecutive 1q gates on at most max_gang_qubits distinct
      // qubits, stopped by barriers and multi-qubit gates.
      std::vector<int> order;  // distinct qubits, first-occurrence order
      std::size_t j = i;
      while (j < gates.size()) {
        const qir::Gate& h = gates[j];
        if (!is_single_qubit_gate(h)) break;
        const int q = h.qubits[0];
        const bool known = std::find(order.begin(), order.end(), q) != order.end();
        if (!known) {
          if (static_cast<int>(order.size()) == options.max_gang_qubits) break;
          order.push_back(q);
        }
        ++j;
      }
      const std::size_t count = j - i;
      plan.stats_.gates_in += count;
      if (count == 1) {
        emit_passthrough(i);
      } else {
        // One 2x2 per distinct qubit: the first gate's matrix, then each
        // later same-qubit gate left-multiplied onto it (temporal order).
        std::vector<SingleQubitOp> gang;
        gang.reserve(order.size());
        for (int q : order) {
          SingleQubitOp entry;
          entry.qubit = q;
          gang.push_back(entry);
        }
        std::vector<bool> seeded(order.size(), false);
        for (std::size_t t = i; t < j; ++t) {
          const std::size_t slot = static_cast<std::size_t>(
              std::find(order.begin(), order.end(), gates[t].qubits[0]) -
              order.begin());
          cplx m[2][2];
          single_qubit_matrix(gates[t].kind, gates[t].params, m);
          if (!seeded[slot]) {
            std::memcpy(gang[slot].m, m, sizeof(m));
            seeded[slot] = true;
          } else {
            cplx product[2][2];
            multiply2(m, gang[slot].m, product);
            std::memcpy(gang[slot].m, product, sizeof(product));
          }
        }
        FusedOp op;
        op.first_gate = i;
        op.gate_count = count;
        if (gang.size() == 1) {
          op.kind = FusedOp::Kind::kSingle;
          op.single = gang[0];
        } else {
          op.kind = FusedOp::Kind::kGang;
          op.gang = std::move(gang);
        }
        plan.stats_.gates_fused += count;
        plan.ops_.push_back(std::move(op));
      }
      i = j;
      continue;
    }

    if (g.qubits.size() == 2) {
      // Pair window: absorb everything that stays within {a, b}.
      const int a = g.qubits[0];
      const int b = g.qubits[1];
      std::size_t j = i;
      while (j < gates.size() && acts_within_pair(gates[j], a, b)) ++j;
      const std::size_t count = j - i;
      plan.stats_.gates_in += count;
      if (count == 1) {
        emit_passthrough(i);
      } else {
        FusedOp op;
        op.kind = FusedOp::Kind::kTwoQubit;
        op.first_gate = i;
        op.gate_count = count;
        op.a = a;
        op.b = b;
        two_qubit_matrix(gates[i], a, b, op.two);
        for (std::size_t t = i + 1; t < j; ++t) {
          cplx gm[4][4];
          two_qubit_matrix(gates[t], a, b, gm);
          cplx product[4][4];
          multiply4(gm, op.two, product);
          std::memcpy(op.two, product, sizeof(product));
        }
        plan.stats_.gates_fused += count;
        plan.ops_.push_back(std::move(op));
      }
      i = j;
      continue;
    }

    // 3+-qubit gates (CCX, CSWAP, MCX): apply_gate's subspace kernels.
    plan.stats_.gates_in += 1;
    emit_passthrough(i);
    ++i;
  }
  plan.stats_.ops_out = plan.ops_.size();
  return plan;
}

namespace {

/// Execution form of one tile-local fused op: the kernel choice (diagonal /
/// monomial fast paths included, so tiled dispatch matches the whole-array
/// dispatch of apply_single_qubit / apply_two_qubit exactly) plus its
/// precomputed matrices, lowered once and shared read-only by every tile.
struct TileOp {
  enum class K { kDiag, kSingle, kGang, kTwoDense, kTwoMono, kPauli };
  K k = K::kSingle;
  int q = 0, a = 0, b = 0;
  char pauli = 'I';       ///< kPauli: 'X', 'Y' or 'Z'
  kernels::M2 m2{};
  cplx d00, d11;          ///< kDiag coefficients
  kernels::M4 m4{};
  int src[4] = {};        ///< kTwoMono permutation
  cplx coef[4];           ///< kTwoMono coefficients
  kernels::GangPlan gang;
};

/// True when `op` can run inside one 2^tile_qubits-amplitude tile: every
/// qubit it touches lies below the tile width, so its pair/quad/block index
/// arithmetic never reaches outside the tile.
bool is_tile_local(const FusedOp& op, int tile_qubits) {
  switch (op.kind) {
    case FusedOp::Kind::kSingle:
      return op.single.qubit < tile_qubits;
    case FusedOp::Kind::kGang:
      for (const SingleQubitOp& g : op.gang) {
        if (g.qubit >= tile_qubits) return false;
      }
      return true;
    case FusedOp::Kind::kTwoQubit:
      return op.a < tile_qubits && op.b < tile_qubits;
    case FusedOp::Kind::kGate:
      // Lone 1q passthroughs lower to the same kernel the unfused path runs
      // (a 2x2 or diagonal sweep, or the Pauli kernel for X/Y/Z); the
      // multi-qubit gates keep their whole-array subspace kernels.
      return op.gate.kind != qir::GateKind::Barrier &&
             op.gate.qubits.size() == 1 && op.gate.qubits[0] < tile_qubits;
  }
  return false;
}

TileOp lower_tile_op(const FusedOp& op) {
  TileOp t;
  cplx m[2][2];
  switch (op.kind) {
    case FusedOp::Kind::kSingle:
    case FusedOp::Kind::kGate: {
      if (op.kind == FusedOp::Kind::kSingle) {
        std::memcpy(m, op.single.m, sizeof(m));
        t.q = op.single.qubit;
      } else {
        t.q = op.gate.qubits[0];
        const qir::GateKind kind = op.gate.kind;
        if (kind == qir::GateKind::X || kind == qir::GateKind::Y ||
            kind == qir::GateKind::Z) {
          t.k = TileOp::K::kPauli;
          t.pauli = kind == qir::GateKind::X   ? 'X'
                    : kind == qir::GateKind::Y ? 'Y'
                                               : 'Z';
          return t;
        }
        single_qubit_matrix(kind, op.gate.params, m);
      }
      if (m[0][1] == cplx(0.0, 0.0) && m[1][0] == cplx(0.0, 0.0)) {
        t.k = TileOp::K::kDiag;
        t.d00 = m[0][0];
        t.d11 = m[1][1];
      } else {
        t.k = TileOp::K::kSingle;
        t.m2 = kernels::M2{m[0][0], m[0][1], m[1][0], m[1][1]};
      }
      return t;
    }
    case FusedOp::Kind::kGang:
      t.k = TileOp::K::kGang;
      t.gang = kernels::make_gang_plan(op.gang.data(), op.gang.size());
      return t;
    case FusedOp::Kind::kTwoQubit: {
      t.a = op.a;
      t.b = op.b;
      for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) t.m4.v[r * 4 + c] = op.two[r][c];
      }
      t.k = kernels::monomial_decompose(t.m4, t.src, t.coef)
                ? TileOp::K::kTwoMono
                : TileOp::K::kTwoDense;
      return t;
    }
  }
  return t;
}

/// Runs one lowered op over a tile's full local index range.
void apply_tile_op(cplx* region, std::size_t tile, const TileOp& t,
                   kernels::SimdMode mode) {
  switch (t.k) {
    case TileOp::K::kDiag:
      kernels::sweep_diag(mode, region, 0, tile, t.q, t.d00, t.d11);
      return;
    case TileOp::K::kSingle:
      kernels::sweep_1q(mode, region, 0, tile >> 1, t.q, t.m2);
      return;
    case TileOp::K::kGang:
      kernels::sweep_gang(mode, region, 0, tile >> t.gang.count, t.gang);
      return;
    case TileOp::K::kTwoDense:
      kernels::sweep_2q(mode, region, 0, tile >> 2, t.a, t.b, t.m4);
      return;
    case TileOp::K::kTwoMono:
      kernels::sweep_2q_monomial(mode, region, 0, tile >> 2, t.a, t.b, t.src,
                                 t.coef);
      return;
    case TileOp::K::kPauli:
      kernels::sweep_pauli(t.pauli, region, 0, tile >> 1, t.q);
      return;
  }
}

}  // namespace

void StateVector::apply_tiled_run(const FusedOp* ops, std::size_t count) {
  const int tq = tile_qubits_;
  const std::size_t tile = std::size_t{1} << tq;
  const std::size_t num_tiles = amps_.size() >> tq;
  std::vector<TileOp> lowered(count);
  for (std::size_t i = 0; i < count; ++i) lowered[i] = lower_tile_op(ops[i]);
  const kernels::SimdMode mode = kernels::simd_mode();
  cplx* amps = amps_.data();
  // Each tile applies the run's ops in order before moving on. Ops are
  // tile-local, so tile t's amplitudes see exactly the operation sequence of
  // the whole-array sweeps — tiling reorders traversal, not arithmetic.
  for (std::size_t t = 0; t < num_tiles; ++t) {
    cplx* region = amps + (t << tq);
    for (std::size_t i = 0; i < count; ++i) {
      apply_tile_op(region, tile, lowered[i], mode);
    }
  }
}

void StateVector::apply_fused_op(const FusedOp& op) {
  switch (op.kind) {
    case FusedOp::Kind::kGate:
      apply_gate(op.gate);
      break;
    case FusedOp::Kind::kSingle:
      apply_matrix(op.single.m, op.single.qubit);
      break;
    case FusedOp::Kind::kGang:
      apply_gang(op.gang);
      break;
    case FusedOp::Kind::kTwoQubit:
      apply_two_qubit(op.two, op.a, op.b);
      break;
  }
}

void StateVector::apply_fused(const FusionPlan& plan) {
  TETRIS_REQUIRE(plan.num_qubits() <= num_qubits_,
                 "apply_fused: plan wider than register");
  densify();
  const auto& ops = plan.ops();
  // Cache blocking pays once the register outgrows a tile; a run needs at
  // least two tile-local ops before the reordered traversal saves a pass.
  const bool tiling = num_qubits_ > tile_qubits_ && tile_qubits_ >= 2;
  std::size_t i = 0;
  while (i < ops.size()) {
    if (tiling && is_tile_local(ops[i], tile_qubits_)) {
      std::size_t j = i + 1;
      while (j < ops.size() && is_tile_local(ops[j], tile_qubits_)) ++j;
      if (j - i >= 2) {
        apply_tiled_run(ops.data() + i, j - i);
        i = j;
        continue;
      }
    }
    apply_fused_op(ops[i]);
    ++i;
  }
}

}  // namespace tetris::sim
