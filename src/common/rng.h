#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"

namespace tetris {

/// Deterministic random number generator used everywhere in the library.
///
/// All stochastic components (random gate insertion, noise trajectories,
/// measurement sampling, attack search order) take an Rng so experiments are
/// reproducible from a single seed. The engine is the 64-bit Mersenne twister
/// MT19937-64 with its standard seeding, implemented here (the twist is
/// branch-free), and the draws are the library's own arithmetic: a stream is
/// a function of its seed alone, whatever standard library the build uses.
/// Every draw reproduces what libstdc++'s `std::mt19937_64` and
/// distributions computed for the same seed before the library owned them,
/// so results recorded with those builds are unchanged (tests/test_rng.cpp
/// pins both).
class Rng {
 public:
  /// Seeds the generator. The same seed always yields the same stream.
  explicit Rng(std::uint64_t seed = 0x7e7215'0c5ULL);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int uniform_int(int lo, int hi);

  /// Uniform std::size_t in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Uniform double in [0, 1): `uniform_from(next_u64())`.
  double uniform() { return uniform_from(next_u64()); }

  /// The uniform double of raw draw `raw`: raw * 2^-64, rounded once to
  /// double, with a result of 1 (raw >= 2^64 - 2^10) clamped to the largest
  /// double below 1 — libstdc++'s `generate_canonical` arithmetic. It never
  /// decreases as `raw` grows.
  static double uniform_from(std::uint64_t raw) {
    const double u = static_cast<double>(raw) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
  }

  /// Bernoulli trial with success probability p: false without a draw for
  /// p <= 0, true without a draw for p >= 1, otherwise `uniform() < p` on
  /// one draw (so a NaN p draws once and never succeeds).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// The Bernoulli rule as an integer threshold T: where `bernoulli(p)`
  /// draws (0 < p < 1, or NaN), it succeeds on raw draw x exactly when
  /// x < T, so a caller that draws many trials of one p compares raw draws
  /// instead of converting each to a double. T is 0 for p <= 0 and NaN, and
  /// 2^64 - 1 for p >= 1, where `bernoulli` succeeds without drawing.
  static std::uint64_t bernoulli_threshold(double p);

  /// Picks one element of a non-empty vector uniformly at random.
  template <typename T>
  const T& choice(const std::vector<T>& v) {
    TETRIS_REQUIRE(!v.empty(), "Rng::choice on empty vector");
    return v[index(v.size())];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      std::swap(v[i], v[index(i + 1)]);
    }
  }

  /// Samples an index from an (unnormalized) non-negative weight vector.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Derives an independent child generator (for per-iteration seeding).
  Rng fork();

  /// Deterministic per-stream generator: the RNG for stream `stream` of
  /// `base_seed`, derived with a SplitMix64 mix. Unlike `fork()` this does
  /// not advance any generator state, so stream i's RNG depends only on
  /// (base_seed, i) — the service and the sampler use it to give concurrent
  /// jobs and shots schedule-independent randomness.
  static Rng for_stream(std::uint64_t base_seed, std::uint64_t stream);

  /// The seed value `for_stream` constructs its generator from, exposed as a
  /// plain number so callers can store, log, or cache-key a job's effective
  /// seed: `Rng(stream_seed(b, i))` is exactly `for_stream(b, i)`.
  static std::uint64_t stream_seed(std::uint64_t base_seed,
                                   std::uint64_t stream);

  /// Raw 64-bit draw: the next tempered MT19937-64 output.
  std::uint64_t next_u64() {
    if (next_ == kWords) twist();
    std::uint64_t z = words_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kWords = 312;  ///< MT19937-64 state size n

  /// Uniform integer in [0, range) by Lemire's multiply-and-reject method
  /// ("Fast Random Integer Generation in an Interval", 2019), as libstdc++
  /// 11 and later compute it for a 64-bit engine. Requires range > 0.
  std::uint64_t below(std::uint64_t range);

  /// Regenerates all 312 state words (the first draw after seeding runs it).
  void twist();

  std::uint64_t words_[kWords];
  std::size_t next_ = kWords;
};

}  // namespace tetris
