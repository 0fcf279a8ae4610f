#include "sim/backend/statevector_backend.h"

#include <algorithm>

namespace tetris::sim {

void StateVectorBackend::prepare() {
  const auto& amps = sv_.amplitudes();
  block_sums_.assign((amps.size() + kSampleBlock - 1) / kSampleBlock, 0.0);
  double acc = 0.0;
  for (std::size_t i = 0; i < amps.size(); ++i) {
    acc += std::norm(amps[i]);
    block_sums_[i / kSampleBlock] = acc;
  }
}

std::size_t StateVectorBackend::sample_index(Rng& rng) const {
  if (block_sums_.empty()) return sv_.sample(rng);
  const double r = rng.uniform();
  const auto& amps = sv_.amplitudes();
  // The running sum never decreases, so the scan stops in the first block
  // whose closing sum exceeds r; past the last one it returns its tail.
  const auto block = static_cast<std::size_t>(
      std::upper_bound(block_sums_.begin(), block_sums_.end(), r) -
      block_sums_.begin());
  if (block == block_sums_.size()) return amps.size() - 1;
  double acc = block == 0 ? 0.0 : block_sums_[block - 1];
  const std::size_t end = std::min(amps.size(), (block + 1) * kSampleBlock);
  for (std::size_t i = block * kSampleBlock; i < end; ++i) {
    acc += std::norm(amps[i]);
    if (r < acc) return i;
  }
  return end - 1;  // not reached: this block's sum exceeds r
}

double StateVectorBackend::probability(std::size_t index) const {
  TETRIS_REQUIRE(index < sv_.dim(),
                 "StateVectorBackend::probability: index out of range");
  return std::norm(sv_.amplitudes()[index]);
}

std::map<std::string, double> StateVectorBackend::distribution(
    const std::vector<int>& measured) const {
  std::vector<int> m = measured;
  if (m.empty()) {
    for (int q = 0; q < sv_.num_qubits(); ++q) m.push_back(q);
  }
  for (int q : m) {
    TETRIS_REQUIRE(q >= 0 && q < sv_.num_qubits(),
                   "StateVectorBackend::distribution: qubit out of range");
  }
  std::map<std::string, double> out;
  const auto& amps = sv_.amplitudes();
  for (std::size_t i = 0; i < amps.size(); ++i) {
    const double p = std::norm(amps[i]);
    if (p <= 0.0) continue;
    out[project_index(i, m)] += p;
  }
  return out;
}

}  // namespace tetris::sim
