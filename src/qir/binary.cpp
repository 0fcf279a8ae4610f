#include "qir/binary.h"

#include <vector>

namespace tetris::qir {

namespace {

/// Highest GateKind value — kinds above this in a stored file are from a
/// future (or corrupt) format and must be rejected, not cast blindly.
constexpr std::uint8_t kMaxGateKind = static_cast<std::uint8_t>(GateKind::Barrier);

}  // namespace

void write_circuit(ByteWriter& w, const Circuit& circuit) {
  w.var(static_cast<std::uint64_t>(circuit.num_qubits()));
  w.var_str(circuit.name());
  w.var(circuit.size());
  for (const Gate& g : circuit.gates()) {
    w.u8(static_cast<std::uint8_t>(g.kind));
    if (gate_arity(g.kind) < 0) w.var(g.qubits.size());
    for (int q : g.qubits) w.var(static_cast<std::uint64_t>(q));
    for (double p : g.params) w.f64(p);
  }
}

Circuit read_circuit(ByteReader& r, std::uint32_t format) {
  const bool v1 = format == 1;
  const auto count = [&r, v1](const char* what, std::uint32_t max) {
    return v1 ? r.count(what, max) : r.var_count(what, max);
  };
  const std::uint32_t num_qubits = count("circuit qubit count",
                                         kMaxCircuitQubits);
  std::string name = v1 ? r.str("circuit name", kMaxCircuitNameBytes)
                        : r.var_str("circuit name", kMaxCircuitNameBytes);
  Circuit circuit(static_cast<int>(num_qubits), std::move(name));

  const std::uint32_t gates = count("circuit gate count", kMaxCircuitGates);
  circuit.reserve(gates);
  for (std::uint32_t i = 0; i < gates; ++i) {
    const std::uint8_t kind = r.u8("gate kind");
    if (kind > kMaxGateKind) {
      throw ParseError("circuit codec: unknown gate kind " +
                       std::to_string(kind) + " in gate " + std::to_string(i) +
                       " at offset " + std::to_string(r.offset() - 1));
    }
    const auto k = static_cast<GateKind>(kind);
    // Per-gate qubit count is bounded by the register width (every qubit
    // index must be distinct and in range, so more than num_qubits qubits
    // can never validate anyway).
    const int arity = gate_arity(k);
    const std::uint32_t nq =
        v1 || arity < 0 ? count("gate qubit count", num_qubits)
                        : static_cast<std::uint32_t>(arity);
    std::vector<int> qubits;
    qubits.reserve(nq);
    for (std::uint32_t q = 0; q < nq; ++q) {
      qubits.push_back(static_cast<int>(
          v1 ? r.u32("gate qubit") : r.var_count("gate qubit", num_qubits)));
    }
    const std::size_t np = v1 ? r.u8("gate param count")
                              : static_cast<std::size_t>(gate_param_count(k));
    std::vector<double> params;
    params.reserve(np);
    for (std::size_t p = 0; p < np; ++p) {
      params.push_back(r.f64("gate param"));
    }
    try {
      // Circuit::add re-validates arity/range/distinctness — stored bytes
      // get exactly the same structural checks as programmatic input.
      circuit.add(Gate(k, std::move(qubits), std::move(params)));
    } catch (const InvalidArgument& e) {
      throw ParseError("circuit codec: invalid gate " + std::to_string(i) +
                       ": " + e.what());
    }
  }
  return circuit;
}

}  // namespace tetris::qir
