#pragma once

#include <set>
#include <string>

#include "compiler/coupling.h"
#include "qir/gate.h"
#include "sim/noise.h"

namespace tetris::compiler {

/// A compilation target: physical qubit count, connectivity, native gate
/// basis, and the noise profile its simulator should use.
///
/// This plays the role of Qiskit's backend object in the paper's setup. The
/// `fake_valencia` preset matches the 5-qubit ibmq-valencia topology and noise
/// band; the generated presets (line/ring/grid) extend the same noise model to
/// the 7–12 qubit RevLib circuits, which is what the paper implicitly does
/// when it runs 12-qubit benchmarks against a 5-qubit device snapshot.
struct Target {
  std::string name;
  CouplingMap coupling = CouplingMap::full(0);
  std::set<qir::GateKind> basis;
  sim::NoiseModel noise;

  int num_qubits() const { return coupling.num_qubits(); }
  bool in_basis(qir::GateKind kind) const { return basis.count(kind) > 0; }
};

/// The IBM-style physical basis {X, SX, RZ, CX}.
std::set<qir::GateKind> ibm_basis();

/// 5-qubit FakeValencia: T topology, valencia noise.
Target fake_valencia();

/// Line-topology device with valencia-band noise, n qubits.
Target line_device(int n);

/// Ring-topology device with valencia-band noise, n qubits.
Target ring_device(int n);

/// Grid-topology device with valencia-band noise.
Target grid_device(int rows, int cols);

/// All-to-all device with no noise (for functional checks).
Target ideal_full_device(int n);

/// What device_for picked, and whether it had to fall back past the preset
/// band.
struct DeviceSelection {
  Target target;
  /// True when no calibrated preset fits `n` and a generated ring topology
  /// stood in. The ring reuses the Valencia noise band but is NOT a device
  /// snapshot — results past the preset band carry this caveat.
  bool fallback = false;
  /// Human-readable warning, empty when !fallback. Callers surface it
  /// (FlowJob::warnings -> service JSON, CLI stderr) instead of silently
  /// degrading.
  std::string note;
};

/// The selection rule the experiments use: the smallest preset that fits `n`
/// logical qubits (fake_valencia for n <= 5). Past the preset band there is
/// no calibrated snapshot, so a ring device of exactly n qubits is generated
/// and flagged as a fallback. Callers that need only the device take
/// `device_for(n).target`; the rest surface the note.
DeviceSelection device_for(int n);

}  // namespace tetris::compiler
