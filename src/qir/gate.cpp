#include "qir/gate.h"

#include <cmath>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <unordered_map>

#include "common/error.h"
#include "common/strings.h"

namespace tetris::qir {

namespace {

struct KindInfo {
  const char* name;
  int arity;        // -1 => variadic
  int param_count;
};

const KindInfo& info(GateKind k) {
  // Indexed by the enum value, in declaration order: Circuit::validate looks
  // a kind up twice per gate, so this stays a plain array read.
  static constexpr KindInfo kTable[] = {
      {"id", 1, 0},   {"x", 1, 0},    {"y", 1, 0},     {"z", 1, 0},
      {"h", 1, 0},    {"s", 1, 0},    {"sdg", 1, 0},   {"t", 1, 0},
      {"tdg", 1, 0},  {"sx", 1, 0},   {"sxdg", 1, 0},  {"rx", 1, 1},
      {"ry", 1, 1},   {"rz", 1, 1},   {"p", 1, 1},     {"cx", 2, 0},
      {"cy", 2, 0},   {"cz", 2, 0},   {"ch", 2, 0},    {"cp", 2, 1},
      {"crz", 2, 1},  {"swap", 2, 0}, {"ccx", 3, 0},   {"cswap", 3, 0},
      {"mcx", -1, 0}, {"barrier", -1, 0},
  };
  static_assert(std::size(kTable) ==
                    static_cast<std::size_t>(GateKind::Barrier) + 1,
                "one row per GateKind");
  const auto index = static_cast<std::size_t>(k);
  if (index >= std::size(kTable)) throw std::out_of_range("unknown GateKind");
  return kTable[index];
}

}  // namespace

int gate_arity(GateKind kind) { return info(kind).arity; }
int gate_param_count(GateKind kind) { return info(kind).param_count; }
std::string gate_kind_name(GateKind kind) { return info(kind).name; }

bool is_single_qubit_kind(GateKind kind) { return info(kind).arity == 1; }

GateKind gate_kind_from_name(const std::string& name) {
  static const std::unordered_map<std::string, GateKind> table = [] {
    std::unordered_map<std::string, GateKind> t;
    for (int k = static_cast<int>(GateKind::I);
         k <= static_cast<int>(GateKind::Barrier); ++k) {
      auto kind = static_cast<GateKind>(k);
      t[gate_kind_name(kind)] = kind;
    }
    return t;
  }();
  auto it = table.find(to_lower(name));
  if (it == table.end()) throw ParseError("unknown gate mnemonic: " + name);
  return it->second;
}

Gate Gate::adjoint() const {
  Gate g = *this;
  switch (kind) {
    case GateKind::S:    g.kind = GateKind::Sdg; break;
    case GateKind::Sdg:  g.kind = GateKind::S; break;
    case GateKind::T:    g.kind = GateKind::Tdg; break;
    case GateKind::Tdg:  g.kind = GateKind::T; break;
    case GateKind::SX:   g.kind = GateKind::SXdg; break;
    case GateKind::SXdg: g.kind = GateKind::SX; break;
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::P:
    case GateKind::CP:
    case GateKind::CRZ:
      g.params[0] = -g.params[0];
      break;
    default:
      break;  // self-inverse kinds
  }
  return g;
}

bool Gate::is_self_inverse() const {
  switch (kind) {
    case GateKind::I:
    case GateKind::X:
    case GateKind::Y:
    case GateKind::Z:
    case GateKind::H:
    case GateKind::CX:
    case GateKind::CY:
    case GateKind::CZ:
    case GateKind::CH:
    case GateKind::SWAP:
    case GateKind::CCX:
    case GateKind::CSWAP:
    case GateKind::MCX:
    case GateKind::Barrier:
      return true;
    default:
      return false;
  }
}

bool Gate::is_controlled() const {
  switch (kind) {
    case GateKind::CX:
    case GateKind::CY:
    case GateKind::CZ:
    case GateKind::CH:
    case GateKind::CP:
    case GateKind::CRZ:
    case GateKind::CCX:
    case GateKind::CSWAP:
    case GateKind::MCX:
      return true;
    default:
      return false;
  }
}

bool Gate::is_diagonal() const {
  switch (kind) {
    case GateKind::I:
    case GateKind::Z:
    case GateKind::S:
    case GateKind::Sdg:
    case GateKind::T:
    case GateKind::Tdg:
    case GateKind::RZ:
    case GateKind::P:
    case GateKind::CZ:
    case GateKind::CP:
    case GateKind::CRZ:
    case GateKind::Barrier:
      return true;
    default:
      return false;
  }
}

bool Gate::is_classical() const {
  switch (kind) {
    case GateKind::I:
    case GateKind::X:
    case GateKind::CX:
    case GateKind::CCX:
    case GateKind::MCX:
    case GateKind::SWAP:
    case GateKind::CSWAP:
    case GateKind::Barrier:
      return true;
    default:
      return false;
  }
}

bool quarter_turns(double theta, int* turns, double atol) {
  const double half_pi = 1.5707963267948966;  // pi/2 rounded to double
  const double ratio = theta / half_pi;
  const double nearest = std::nearbyint(ratio);
  if (std::abs(theta - nearest * half_pi) > atol) return false;
  if (turns != nullptr) {
    // C++ % truncates toward zero; fold negatives into [0, 3].
    long long k = static_cast<long long>(nearest) % 4;
    *turns = static_cast<int>(k < 0 ? k + 4 : k);
  }
  return true;
}

bool Gate::is_clifford() const {
  int k = 0;
  switch (kind) {
    case GateKind::I:
    case GateKind::X:
    case GateKind::Y:
    case GateKind::Z:
    case GateKind::H:
    case GateKind::S:
    case GateKind::Sdg:
    case GateKind::SX:
    case GateKind::SXdg:
    case GateKind::CX:
    case GateKind::CY:
    case GateKind::CZ:
    case GateKind::SWAP:
    case GateKind::Barrier:
      return true;
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::P:
      return quarter_turns(params[0]);
    case GateKind::CP:
      // CP(k*pi) is I or CZ; odd pi/2 multiples are the T-class CS gate.
      return quarter_turns(params[0], &k) && k % 2 == 0;
    case GateKind::CRZ:
      // CRZ(2*pi*m) = Z^m on the control (RZ(2*pi) = -I, and the -1 lands
      // only on the control=1 subspace); anything finer is non-Clifford.
      return quarter_turns(params[0], &k) && k == 0;
    default:
      // T/Tdg, CH, and the Toffoli family (CCX/CSWAP/MCX).
      return false;
  }
}

std::string Gate::name() const { return gate_kind_name(kind); }

std::string Gate::to_string() const {
  std::string out = name();
  if (!params.empty()) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "(%.6g)", params[0]);
    out += buf;
  }
  out += " ";
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    if (i) out += ", ";
    out += "q" + std::to_string(qubits[i]);
  }
  return out;
}

bool Gate::approx_equal(const Gate& other, double atol) const {
  if (kind != other.kind || qubits != other.qubits ||
      params.size() != other.params.size()) {
    return false;
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (std::abs(params[i] - other.params[i]) > atol) return false;
  }
  return true;
}

bool Gate::operator==(const Gate& other) const {
  return kind == other.kind && qubits == other.qubits && params == other.params;
}

Gate make_x(int q) { return Gate(GateKind::X, {q}); }
Gate make_y(int q) { return Gate(GateKind::Y, {q}); }
Gate make_z(int q) { return Gate(GateKind::Z, {q}); }
Gate make_h(int q) { return Gate(GateKind::H, {q}); }
Gate make_s(int q) { return Gate(GateKind::S, {q}); }
Gate make_sdg(int q) { return Gate(GateKind::Sdg, {q}); }
Gate make_t(int q) { return Gate(GateKind::T, {q}); }
Gate make_tdg(int q) { return Gate(GateKind::Tdg, {q}); }
Gate make_sx(int q) { return Gate(GateKind::SX, {q}); }
Gate make_sxdg(int q) { return Gate(GateKind::SXdg, {q}); }
Gate make_rx(double theta, int q) { return Gate(GateKind::RX, {q}, {theta}); }
Gate make_ry(double theta, int q) { return Gate(GateKind::RY, {q}, {theta}); }
Gate make_rz(double theta, int q) { return Gate(GateKind::RZ, {q}, {theta}); }
Gate make_p(double theta, int q) { return Gate(GateKind::P, {q}, {theta}); }
Gate make_cx(int control, int target) { return Gate(GateKind::CX, {control, target}); }
Gate make_cy(int control, int target) { return Gate(GateKind::CY, {control, target}); }
Gate make_cz(int control, int target) { return Gate(GateKind::CZ, {control, target}); }
Gate make_ch(int control, int target) { return Gate(GateKind::CH, {control, target}); }
Gate make_cp(double theta, int control, int target) {
  return Gate(GateKind::CP, {control, target}, {theta});
}
Gate make_crz(double theta, int control, int target) {
  return Gate(GateKind::CRZ, {control, target}, {theta});
}
Gate make_swap(int a, int b) { return Gate(GateKind::SWAP, {a, b}); }
Gate make_ccx(int c0, int c1, int target) {
  return Gate(GateKind::CCX, {c0, c1, target});
}
Gate make_cswap(int control, int a, int b) {
  return Gate(GateKind::CSWAP, {control, a, b});
}
Gate make_mcx(std::vector<int> controls, int target) {
  TETRIS_REQUIRE(controls.size() >= 3,
                 "make_mcx expects >= 3 controls; use cx/ccx otherwise");
  controls.push_back(target);
  return Gate(GateKind::MCX, std::move(controls));
}

}  // namespace tetris::qir
