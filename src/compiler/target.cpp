#include "compiler/target.h"

#include <utility>

namespace tetris::compiler {

std::set<qir::GateKind> ibm_basis() {
  using qir::GateKind;
  return {GateKind::X, GateKind::SX, GateKind::RZ, GateKind::CX};
}

Target fake_valencia() {
  return Target{"fake_valencia", CouplingMap::valencia(), ibm_basis(),
                sim::NoiseModel::fake_valencia()};
}

Target line_device(int n) {
  return Target{"line" + std::to_string(n), CouplingMap::line(n), ibm_basis(),
                sim::NoiseModel::fake_valencia()};
}

Target ring_device(int n) {
  return Target{"ring" + std::to_string(n), CouplingMap::ring(n), ibm_basis(),
                sim::NoiseModel::fake_valencia()};
}

Target grid_device(int rows, int cols) {
  return Target{"grid" + std::to_string(rows) + "x" + std::to_string(cols),
                CouplingMap::grid(rows, cols), ibm_basis(),
                sim::NoiseModel::fake_valencia()};
}

Target ideal_full_device(int n) {
  return Target{"full" + std::to_string(n), CouplingMap::full(n), ibm_basis(),
                sim::NoiseModel::ideal()};
}

DeviceSelection device_for(int n) {
  if (n <= 5) return DeviceSelection{fake_valencia(), false, ""};
  // Ring keeps routing distances ~half of a line's, which is closer to the
  // heavy-hex connectivity of the IBM devices the paper targets — but it is
  // a generated topology wearing the Valencia noise band, not a calibrated
  // snapshot, so the selection is flagged.
  Target ring = ring_device(n);
  DeviceSelection sel;
  sel.note = "no calibrated device preset fits " + std::to_string(n) +
             " qubits (largest is fake_valencia, 5); falling back to "
             "generated topology '" +
             ring.name + "' with valencia-band noise";
  sel.fallback = true;
  sel.target = std::move(ring);
  return sel;
}

}  // namespace tetris::compiler
