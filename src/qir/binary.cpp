#include "qir/binary.h"

#include <vector>

namespace tetris::qir {

namespace {

/// Highest GateKind value — kinds above this in a stored file are from a
/// future (or corrupt) format and must be rejected, not cast blindly.
constexpr std::uint8_t kMaxGateKind = static_cast<std::uint8_t>(GateKind::Barrier);

}  // namespace

void write_circuit(ByteWriter& w, const Circuit& circuit) {
  w.u32(static_cast<std::uint32_t>(circuit.num_qubits()));
  w.str(circuit.name());
  w.u32(static_cast<std::uint32_t>(circuit.size()));
  for (const Gate& g : circuit.gates()) {
    w.u8(static_cast<std::uint8_t>(g.kind));
    w.u32(static_cast<std::uint32_t>(g.qubits.size()));
    for (int q : g.qubits) w.u32(static_cast<std::uint32_t>(q));
    w.u8(static_cast<std::uint8_t>(g.params.size()));
    for (double p : g.params) w.f64(p);
  }
}

Circuit read_circuit(ByteReader& r) {
  const std::uint32_t num_qubits = r.count("circuit qubit count",
                                           kMaxCircuitQubits);
  std::string name = r.str("circuit name", kMaxCircuitNameBytes);
  Circuit circuit(static_cast<int>(num_qubits), std::move(name));

  const std::uint32_t gates = r.count("circuit gate count", kMaxCircuitGates);
  circuit.reserve(gates);
  for (std::uint32_t i = 0; i < gates; ++i) {
    const std::uint8_t kind = r.u8("gate kind");
    if (kind > kMaxGateKind) {
      throw ParseError("circuit codec: unknown gate kind " +
                       std::to_string(kind) + " in gate " + std::to_string(i) +
                       " at offset " + std::to_string(r.offset() - 1));
    }
    // Per-gate qubit count is bounded by the register width (every qubit
    // index must be distinct and in range, so more than num_qubits qubits
    // can never validate anyway).
    const std::uint32_t nq = r.count("gate qubit count", num_qubits);
    std::vector<int> qubits;
    qubits.reserve(nq);
    for (std::uint32_t q = 0; q < nq; ++q) {
      qubits.push_back(static_cast<int>(r.u32("gate qubit")));
    }
    const std::uint8_t np = r.u8("gate param count");
    std::vector<double> params;
    params.reserve(np);
    for (std::uint8_t p = 0; p < np; ++p) {
      params.push_back(r.f64("gate param"));
    }
    try {
      // Circuit::add re-validates arity/range/distinctness — stored bytes
      // get exactly the same structural checks as programmatic input.
      circuit.add(Gate(static_cast<GateKind>(kind), std::move(qubits),
                       std::move(params)));
    } catch (const InvalidArgument& e) {
      throw ParseError("circuit codec: invalid gate " + std::to_string(i) +
                       ": " + e.what());
    }
  }
  return circuit;
}

}  // namespace tetris::qir
