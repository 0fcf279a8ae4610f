#include "sim/backend/backend.h"

#include "sim/backend/stabilizer.h"
#include "sim/backend/statevector_backend.h"

namespace tetris::sim {

const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kAuto: return "auto";
    case BackendKind::kStateVector: return "statevector";
    case BackendKind::kStabilizer: return "stabilizer";
  }
  return "unknown";
}

BackendKind parse_backend_kind(const std::string& name) {
  if (name == "auto") return BackendKind::kAuto;
  if (name == "statevector") return BackendKind::kStateVector;
  if (name == "stabilizer") return BackendKind::kStabilizer;
  throw InvalidArgument("unknown backend '" + name +
                        "' (expected one of auto, statevector, stabilizer)");
}

UnsupportedGate::UnsupportedGate(std::string backend, std::string gate,
                                 std::size_t gate_index)
    : InvalidArgument(
          backend + " backend: unsupported gate " + gate +
          (gate_index == npos ? std::string()
                              : " at index " + std::to_string(gate_index))),
      backend_(std::move(backend)),
      gate_(std::move(gate)),
      gate_index_(gate_index) {}

void Backend::apply(const qir::Circuit& circuit) {
  TETRIS_REQUIRE(circuit.num_qubits() <= num_qubits(),
                 "Backend::apply: circuit wider than the register");
  const auto& gates = circuit.gates();
  for (std::size_t i = 0; i < gates.size(); ++i) {
    try {
      apply_gate(gates[i]);
    } catch (const UnsupportedGate& e) {
      throw UnsupportedGate(e.backend(), e.gate(), i);
    }
  }
}

std::string project_index(std::size_t index,
                          const std::vector<int>& measured) {
  std::string out(measured.size(), '0');
  for (std::size_t i = 0; i < measured.size(); ++i) {
    if ((index >> measured[i]) & 1) out[measured.size() - 1 - i] = '1';
  }
  return out;
}

const std::vector<BackendInfo>& registered_backends() {
  static const std::vector<BackendInfo> kRegistry = {
      {BackendKind::kStateVector, "statevector", StateVectorBackend::caps()},
      {BackendKind::kStabilizer, "stabilizer", StabilizerBackend::caps()},
  };
  return kRegistry;
}

BackendKind resolve_backend(BackendKind kind, const qir::Circuit& circuit) {
  if (kind != BackendKind::kAuto) return kind;
  if (circuit.num_qubits() > kAutoStateVectorCeilingQubits &&
      circuit.is_clifford()) {
    return BackendKind::kStabilizer;
  }
  return BackendKind::kStateVector;
}

std::unique_ptr<Backend> make_backend(BackendKind kind, int num_qubits) {
  switch (kind) {
    case BackendKind::kStateVector:
      return std::make_unique<StateVectorBackend>(num_qubits);
    case BackendKind::kStabilizer:
      return std::make_unique<StabilizerBackend>(num_qubits);
    case BackendKind::kAuto:
      break;
  }
  throw InvalidArgument("make_backend: kAuto must be resolved first "
                        "(resolve_backend)");
}

}  // namespace tetris::sim
