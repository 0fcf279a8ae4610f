#pragma once

#include <string>
#include <vector>

#include "qir/circuit.h"

namespace flowbench {

/// The output a classical source circuit must produce on |0...0>, computed
/// by the benchmark's own bit propagation over X / CX / CCX / SWAP. It is
/// deliberately independent of the library's sim::classical_outcome, so the
/// benchmark's output check cannot share a bug with the code it checks.
///
/// The bitstring follows the sampler's convention: `measured.back()` is the
/// leftmost character, `measured.front()` the rightmost. An empty
/// `measured` means every qubit in register order. Throws
/// std::invalid_argument on any other gate kind or an out-of-range qubit.
std::string expected_output(const tetris::qir::Circuit& circuit,
                            const std::vector<int>& measured);

}  // namespace flowbench
