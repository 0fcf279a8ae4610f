#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "common/error.h"

namespace tetris {

/// Deterministic random number generator used everywhere in the library.
///
/// All stochastic components (random gate insertion, noise trajectories,
/// measurement sampling, attack search order) take an Rng so experiments are
/// reproducible from a single seed. The engine is a 64-bit Mersenne twister;
/// we wrap it to provide the handful of distributions the library needs and
/// to keep call sites free of <random> boilerplate.
class Rng {
 public:
  /// Seeds the generator. The same seed always yields the same stream.
  explicit Rng(std::uint64_t seed = 0x7e7215'0c5ULL);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int uniform_int(int lo, int hi);

  /// Uniform std::size_t in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Uniform double in [0, 1).
  double uniform();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

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

  /// Raw 64-bit draw, exposed for hashing-style uses.
  std::uint64_t next_u64();

 private:
  std::mt19937_64 engine_;
};

}  // namespace tetris
