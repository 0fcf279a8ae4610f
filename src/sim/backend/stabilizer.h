#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/backend/backend.h"

namespace tetris::sim {

/// Aaronson-Gottesman tableau simulator for Clifford circuits (the CHP
/// algorithm, arXiv:quant-ph/0406196) — the engine that makes locked
/// circuits checkable far past the statevector's 28-qubit memory wall.
///
/// The state is tracked as n stabilizer generators, each a signed Pauli
/// string stored as X/Z bit masks plus a sign bit (the qubit count is capped
/// at 64 so one std::uint64_t per mask suffices — and so a sampled basis
/// index fits std::size_t). Clifford gates conjugate every generator in
/// O(n) bit operations, O(n^2) per circuit layer; memory is O(n) words
/// instead of 2^n amplitudes. Destabilizer rows are not kept: this engine
/// never measures destructively, it only *samples*, which needs the
/// stabilizer half alone (see below).
///
/// **Gate set.** The fixed Clifford kinds are native or short tableau
/// sequences (SX = H·S·H, CZ/CY via CX conjugated by single-qubit
/// Cliffords); the parametric kinds are accepted exactly on the Clifford
/// angle lattice of `qir::quarter_turns` (RZ(k*pi/2) -> S^k etc. — the
/// lattice the compiler's {X, SX, RZ, CX} output of a Clifford source
/// circuit lives on). Anything else raises a structured UnsupportedGate.
///
/// **Sampling.** The support of a stabilizer state is an affine subspace
/// x0 ^ V of GF(2)^n, over which all outcome probabilities are the uniform
/// 2^-k (k = dim V = rank of the generators' X-matrix), and V is spanned by
/// those X-parts. `prepare()` runs one O(n^3) Gaussian elimination to put V
/// in reduced row-echelon form (basis sorted so enumeration by XOR-ing
/// basis vectors along the bits of an integer m is *monotone* in the basis
/// index) and canonicalizes x0 to zero on the pivot bits. `sample_index`
/// then maps one uniform draw r to the floor(r * 2^k)-th support element —
/// the same index the statevector's cumulative-probability scan selects for
/// the same draw, exactly: Clifford amplitudes stay on the
/// +/-(1/sqrt(2))^d grid where every squared magnitude rounds to the exact
/// power of two 2^-k, so the two engines' counts match shot for shot (the
/// differential harness in test_backend.cpp pins this).
class StabilizerBackend final : public Backend {
 public:
  /// 64 qubits: one word per Pauli mask, and a basis index fits size_t.
  static constexpr int kMaxQubits = 64;

  /// distribution() enumerates the support only up to 2^20 elements.
  static constexpr int kMaxEnumerationQubits = 20;

  static BackendCaps caps() {
    BackendCaps c;
    c.max_qubits = kMaxQubits;
    c.clifford_only = true;
    // Pauli errors are Clifford conjugations (sign flips on the tableau),
    // so the trajectory sampler can inject depolarizing noise.
    c.supports_noise = true;
    return c;
  }

  explicit StabilizerBackend(int num_qubits);

  const char* name() const override { return "stabilizer"; }
  int num_qubits() const override { return num_qubits_; }

  void reset() override;
  void apply_gate(const qir::Gate& gate) override;
  void apply_pauli(char pauli, int q) override;

  /// Extracts and caches the sampling support (one O(n^3) elimination).
  /// Mutating calls invalidate the cache; unprepared const queries rebuild
  /// it locally per call, so they stay correct — just slower — when the
  /// caller skips this.
  void prepare() override;

  double probability(std::size_t index) const override;
  std::size_t sample_index(Rng& rng) const override;
  std::map<std::string, double> distribution(
      const std::vector<int>& measured = {}) const override;

  /// dim V: the number of uniformly-occupied support dimensions (the state
  /// spreads over 2^k basis states). Exposed for tests.
  int support_dim() const;

 private:
  /// The sampling form of the state: support = { x0 ^ XOR of basis subsets }
  /// and the Z-only parity checks x . z == r that membership-test it.
  struct Support {
    int k = 0;
    std::uint64_t x0 = 0;
    std::vector<std::uint64_t> basis;  ///< RREF, ascending (pivot = MSB)
    std::vector<std::pair<std::uint64_t, std::uint8_t>> checks;
  };

  void init_rows();
  void touch() { has_support_ = false; }

  // Primitive conjugations, applied to every generator row.
  void op_h(int q);
  void op_s(int q);
  void op_sdg(int q);
  void op_x(int q);
  void op_y(int q);
  void op_z(int q);
  void op_cx(int c, int t);
  void op_swap(int a, int b);

  Support build_support() const;
  std::size_t sample_from(const Support& s, Rng& rng) const;

  int num_qubits_ = 0;
  std::vector<std::uint64_t> xs_;  ///< X mask of generator row i
  std::vector<std::uint64_t> zs_;  ///< Z mask of generator row i
  std::vector<std::uint8_t> rs_;   ///< sign bit: row represents (-1)^r * P
  bool has_support_ = false;
  Support support_;  ///< valid only when has_support_
};

}  // namespace tetris::sim
