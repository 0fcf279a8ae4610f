#include "common/rng.h"

#include <cmath>
#include <numeric>

namespace tetris {

Rng::Rng(std::uint64_t seed) {
  words_[0] = seed;
  for (std::size_t i = 1; i < kWords; ++i) {
    const std::uint64_t prev = words_[i - 1];
    words_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Rng::twist() {
  constexpr std::size_t kShift = 156;  // MT19937-64 middle word m
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t kMatrix = 0xB5026F5AA96619E9ULL;
  // The twist matrix is applied to a selected bit by masking instead of
  // branching on it, so the loops run without mispredictions.
  auto mix = [](std::uint64_t upper, std::uint64_t lower, std::uint64_t far) {
    const std::uint64_t y = (upper & kUpper) | (lower & ~kUpper);
    return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kMatrix);
  };
  std::size_t k = 0;
  for (; k < kWords - kShift; ++k) {
    words_[k] = mix(words_[k], words_[k + 1], words_[k + kShift]);
  }
  for (; k < kWords - 1; ++k) {
    words_[k] = mix(words_[k], words_[k + 1], words_[k + kShift - kWords]);
  }
  words_[kWords - 1] = mix(words_[kWords - 1], words_[0], words_[kShift - 1]);
  next_ = 0;
}

std::uint64_t Rng::below(std::uint64_t range) {
  __extension__ using u128 = unsigned __int128;
  u128 product = u128{next_u64()} * range;
  auto low = static_cast<std::uint64_t>(product);
  if (low < range) {
    const std::uint64_t threshold = (std::uint64_t{0} - range) % range;
    while (low < threshold) {
      product = u128{next_u64()} * range;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<std::uint64_t>(product >> 64);
}

int Rng::uniform_int(int lo, int hi) {
  TETRIS_REQUIRE(lo <= hi, "Rng::uniform_int requires lo <= hi");
  const auto range = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(hi) - static_cast<std::int64_t>(lo) + 1);
  return static_cast<int>(lo + static_cast<std::int64_t>(below(range)));
}

std::size_t Rng::index(std::size_t n) {
  TETRIS_REQUIRE(n > 0, "Rng::index requires n > 0");
  return static_cast<std::size_t>(below(n));
}

std::uint64_t Rng::bernoulli_threshold(double p) {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return ~std::uint64_t{0};
  // uniform_from(x) < p  <=>  double(x) < p * 2^64 (scaling by a power of
  // two is exact, and p < 1 keeps the clamp out of play), and double(x)
  // never decreases, so T is the least x with double(x) >= scaled.
  const double scaled = std::ldexp(p, 64);
  if (scaled <= 0x1p53) {
    // Every x up to 2^53 converts exactly.
    return static_cast<std::uint64_t>(std::ceil(scaled));
  }
  // Above 2^53 `scaled` and its predecessor are integers at least 2 apart,
  // and x between them rounds to the nearer one; the midpoint rounds to the
  // one with the even significand.
  const auto top = static_cast<std::uint64_t>(scaled);
  const auto prev = static_cast<std::uint64_t>(std::nextafter(scaled, 0.0));
  const std::uint64_t mid = prev + (top - prev) / 2;
  return static_cast<double>(mid) >= scaled ? mid : mid + 1;
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  TETRIS_REQUIRE(!weights.empty(), "weighted_index on empty weights");
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  TETRIS_REQUIRE(total > 0.0, "weighted_index requires positive total weight");
  double r = uniform() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;  // numerical edge: r == total
}

Rng Rng::fork() { return Rng(next_u64()); }

Rng Rng::for_stream(std::uint64_t base_seed, std::uint64_t stream) {
  return Rng(stream_seed(base_seed, stream));
}

std::uint64_t Rng::stream_seed(std::uint64_t base_seed, std::uint64_t stream) {
  // SplitMix64 finalizer over the stream-offset seed. The golden-gamma
  // increment keeps adjacent streams statistically independent.
  std::uint64_t z = base_seed + (stream + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace tetris
