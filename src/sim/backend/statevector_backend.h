#pragma once

#include "sim/backend/backend.h"
#include "sim/statevector.h"

namespace tetris::sim {

/// The dense amplitude engine behind the Backend interface — a thin adapter
/// over sim::StateVector, which stays a concrete class (the fusion engine
/// and the tests drive it directly, and sim::sample reaches it through
/// `state()` for the fused ideal run; errored shots replay gate by gate
/// through the Backend interface). Executes every gate kind of the IR;
/// width-capped at StateVector::kMaxQubits by the underlying register.
class StateVectorBackend final : public Backend {
 public:
  static BackendCaps caps() {
    BackendCaps c;
    c.max_qubits = StateVector::kMaxQubits;
    c.clifford_only = false;
    c.supports_noise = true;
    return c;
  }

  explicit StateVectorBackend(int num_qubits) : sv_(num_qubits) {}

  const char* name() const override { return "statevector"; }
  int num_qubits() const override { return sv_.num_qubits(); }

  void reset() override {
    block_sums_.clear();
    sv_.reset();
  }
  void apply_gate(const qir::Gate& gate) override {
    block_sums_.clear();
    sv_.apply_gate(gate);
  }
  void apply_pauli(char pauli, int q) override {
    block_sums_.clear();
    sv_.apply_pauli(pauli, q);
  }

  /// Stores the running sum of |amp|^2 at the end of every kSampleBlock
  /// amplitudes, accumulated in index order exactly as
  /// StateVector::sample's scan accumulates it.
  void prepare() override;

  double probability(std::size_t index) const override;
  /// StateVector::sample's index for the same draw. Once prepared, a binary
  /// search over the block sums finds the block where the scan stops, and
  /// the same scan, started from the previous block's sum, finishes there;
  /// unprepared, it is the full scan.
  std::size_t sample_index(Rng& rng) const override;
  std::map<std::string, double> distribution(
      const std::vector<int>& measured = {}) const override;

  /// The wrapped register, for callers that need the concrete API (fused
  /// runs, fidelity against a raw StateVector). Mutable access drops the
  /// prepared sums.
  StateVector& state() {
    block_sums_.clear();
    return sv_;
  }
  const StateVector& state() const { return sv_; }

 private:
  /// Amplitudes per prepared sum.
  static constexpr std::size_t kSampleBlock = 64;

  StateVector sv_;
  std::vector<double> block_sums_;  ///< empty until prepare()
};

}  // namespace tetris::sim
