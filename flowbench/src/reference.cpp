#include "reference.h"

#include <stdexcept>

namespace flowbench {

using tetris::qir::GateKind;

std::string expected_output(const tetris::qir::Circuit& circuit,
                            const std::vector<int>& measured) {
  const int n = circuit.num_qubits();
  std::vector<bool> bit(static_cast<std::size_t>(n), false);
  auto at = [&](int q) -> std::vector<bool>::reference {
    if (q < 0 || q >= n) {
      throw std::invalid_argument("expected_output: qubit out of range");
    }
    return bit[static_cast<std::size_t>(q)];
  };

  for (const auto& g : circuit.gates()) {
    const std::vector<int>& q = g.qubits;
    switch (g.kind) {
      case GateKind::X:
        at(q[0]) = !at(q[0]);
        break;
      case GateKind::CX:
        if (at(q[0])) at(q[1]) = !at(q[1]);
        break;
      case GateKind::CCX:
        if (at(q[0]) && at(q[1])) at(q[2]) = !at(q[2]);
        break;
      case GateKind::SWAP: {
        const bool a = at(q[0]);
        at(q[0]) = at(q[1]);
        at(q[1]) = a;
        break;
      }
      default:
        throw std::invalid_argument("expected_output: gate '" + g.name() +
                                    "' is not X/CX/CCX/SWAP");
    }
  }

  std::vector<int> order = measured;
  if (order.empty()) {
    for (int q = 0; q < n; ++q) order.push_back(q);
  }
  std::string out;
  out.reserve(order.size());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    out.push_back(at(*it) ? '1' : '0');
  }
  return out;
}

}  // namespace flowbench
