#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "qir/gate.h"

namespace tetris::qir {

/// An ordered list of gates on a fixed-size qubit register.
///
/// Circuit is the central value type of the library: the RevLib loader
/// produces one, the obfuscator rewrites one, the splitter partitions one,
/// the compiler lowers one, and the simulator executes one. Gate order is the
/// temporal order (leftmost gate acts first); the unitary of the circuit is
/// U = U_{k-1} ... U_1 U_0.
class Circuit {
 public:
  Circuit() = default;

  /// Creates an empty circuit on `num_qubits` wires (>= 0). An optional name
  /// travels with the circuit through transformations for reporting.
  explicit Circuit(int num_qubits, std::string name = "");

  int num_qubits() const { return num_qubits_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Number of gates (Barrier included; use gate_count() to exclude it).
  std::size_t size() const { return gates_.size(); }
  bool empty() const { return gates_.empty(); }

  const std::vector<Gate>& gates() const { return gates_; }
  /// Reserves room for `n` gates (a decoder that knows the count up front).
  void reserve(std::size_t n) { gates_.reserve(n); }
  const Gate& gate(std::size_t i) const { return gates_.at(i); }

  /// Validates arity/qubit-range/distinctness and appends the gate.
  /// Throws InvalidArgument on violation.
  Circuit& add(Gate g);

  // Builder shorthands. Each returns *this for chaining.
  Circuit& id(int q) { return add(Gate(GateKind::I, {q})); }
  Circuit& x(int q) { return add(make_x(q)); }
  Circuit& y(int q) { return add(make_y(q)); }
  Circuit& z(int q) { return add(make_z(q)); }
  Circuit& h(int q) { return add(make_h(q)); }
  Circuit& s(int q) { return add(make_s(q)); }
  Circuit& sdg(int q) { return add(make_sdg(q)); }
  Circuit& t(int q) { return add(make_t(q)); }
  Circuit& tdg(int q) { return add(make_tdg(q)); }
  Circuit& sx(int q) { return add(make_sx(q)); }
  Circuit& sxdg(int q) { return add(make_sxdg(q)); }
  Circuit& rx(double theta, int q) { return add(make_rx(theta, q)); }
  Circuit& ry(double theta, int q) { return add(make_ry(theta, q)); }
  Circuit& rz(double theta, int q) { return add(make_rz(theta, q)); }
  Circuit& p(double theta, int q) { return add(make_p(theta, q)); }
  Circuit& cx(int c, int t) { return add(make_cx(c, t)); }
  Circuit& cy(int c, int t) { return add(make_cy(c, t)); }
  Circuit& cz(int c, int t) { return add(make_cz(c, t)); }
  Circuit& ch(int c, int t) { return add(make_ch(c, t)); }
  Circuit& cp(double theta, int c, int t) { return add(make_cp(theta, c, t)); }
  Circuit& crz(double theta, int c, int t) { return add(make_crz(theta, c, t)); }
  Circuit& swap(int a, int b) { return add(make_swap(a, b)); }
  Circuit& ccx(int c0, int c1, int t) { return add(make_ccx(c0, c1, t)); }
  Circuit& cswap(int c, int a, int b) { return add(make_cswap(c, a, b)); }
  Circuit& mcx(std::vector<int> controls, int t) {
    return add(make_mcx(std::move(controls), t));
  }
  Circuit& barrier();

  /// Appends all gates of `other` (same register width required).
  Circuit& append(const Circuit& other);

  /// Appends `other` with its qubit i mapped to `qubit_map[i]`.
  Circuit& append_mapped(const Circuit& other, const std::vector<int>& qubit_map);

  /// The adjoint circuit: gates reversed, each replaced by its adjoint.
  Circuit inverse() const;

  /// Returns a circuit whose qubit i becomes `qubit_map[i]` on a register of
  /// `new_num_qubits` wires. Every mapped index must be in range and the map
  /// injective on used qubits.
  Circuit remapped(const std::vector<int>& qubit_map, int new_num_qubits) const;

  /// Sub-circuit containing the gates at `indices` (in the given order).
  Circuit subcircuit(const std::vector<std::size_t>& indices) const;

  /// Number of non-barrier gates.
  std::size_t gate_count() const;

  /// Histogram of mnemonics -> counts (barriers excluded).
  std::map<std::string, std::size_t> count_ops() const;

  /// Number of two-or-more-qubit gates (barriers excluded).
  std::size_t multi_qubit_gate_count() const;

  /// Circuit depth: length of the longest qubit-dependency chain
  /// (barriers are scheduling fences and do count as layer boundaries
  /// only for the qubits they span; an empty circuit has depth 0).
  int depth() const;

  /// Set of qubits touched by at least one gate.
  std::set<int> used_qubits() const;

  /// True if every gate Gate::is_classical() (RevLib reversible class).
  bool is_classical() const;

  /// True if every gate Gate::is_clifford() — the class a stabilizer
  /// tableau simulator can execute, and the test behind the `auto` backend
  /// selection policy (sim/backend/backend.h).
  bool is_clifford() const;

  /// Removes all barriers (compilers call this first).
  Circuit without_barriers() const;

  /// Canonical 64-bit content hash: FNV-1a over the register width and each
  /// gate's kind, qubits, and exact parameter bit patterns, in temporal
  /// order. The name is excluded (it is reporting metadata), so operator==
  /// equal circuits hash equal — except for parameter bit patterns that
  /// compare == but differ in bits (±0.0), which hash apart. The service
  /// layer's result cache keys on this, which is why exact bits — not a
  /// tolerance — are hashed: a cache hit must guarantee a bit-identical
  /// simulation input, and the ±0.0 asymmetry only costs a spurious miss,
  /// never a wrong hit.
  std::uint64_t content_hash() const;

  /// Structural equality gate-by-gate (name is ignored).
  bool operator==(const Circuit& other) const;

  /// Gate-by-gate comparison with angle tolerance.
  bool approx_equal(const Circuit& other, double atol = 1e-12) const;

  /// Multi-line human-readable listing ("0: cx q0, q1" per line).
  std::string to_string() const;

 private:
  void validate(const Gate& g) const;

  int num_qubits_ = 0;
  std::string name_;
  std::vector<Gate> gates_;
};

}  // namespace tetris::qir
