#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <set>

#include "compiler/target.h"

namespace tetris {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differ = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.next_u64() != b.next_u64()) ++differ;
  }
  EXPECT_GT(differ, 0);
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.uniform_int(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_int(2, 1), InvalidArgument);
}

TEST(Rng, IndexCoversFullRange) {
  Rng rng(11);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.index(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, IndexRejectsZero) {
  Rng rng(11);
  EXPECT_THROW(rng.index(0), InvalidArgument);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  double rate = static_cast<double>(hits) / n;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Rng, ChoiceReturnsMember) {
  Rng rng(5);
  std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    int c = rng.choice(v);
    EXPECT_TRUE(c == 10 || c == 20 || c == 30);
  }
}

TEST(Rng, ChoiceRejectsEmpty) {
  Rng rng(5);
  std::vector<int> v;
  EXPECT_THROW(rng.choice(v), InvalidArgument);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(13);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = i;
  auto orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(23);
  std::vector<double> w{0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[0], 0);
  double frac1 = static_cast<double>(counts[1]) / n;
  EXPECT_NEAR(frac1, 0.25, 0.02);
}

TEST(Rng, WeightedIndexRejectsDegenerate) {
  Rng rng(23);
  std::vector<double> empty;
  EXPECT_THROW(rng.weighted_index(empty), InvalidArgument);
  std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zeros), InvalidArgument);
}

TEST(Rng, ForkIsIndependentButDeterministic) {
  Rng a(99), b(99);
  Rng fa = a.fork();
  Rng fb = b.fork();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(fa.next_u64(), fb.next_u64());
}

// ------------------------------------------------------------ byte pins

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

const std::uint64_t kSeeds[] = {0, 1, 42, 2025, 0xFFFFFFFFFFFFFFFFULL};

TEST(RngEngine, EqualsStdMt19937_64) {
  // 10^6 draws cross 3205 twists of the 312-word state.
  for (std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 1000000; ++i) {
      const std::uint64_t expected = reference();
      ASSERT_EQ(rng.next_u64(), expected) << "seed " << seed << " draw " << i;
    }
  }
}

/// One fixed interleaving of every draw kind, crossing a twist.
std::vector<std::uint64_t> draw_script(Rng rng) {
  std::vector<std::uint64_t> out;
  const auto as_u64 = [](int v) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
  };
  out.push_back(rng.next_u64());
  out.push_back(rng.next_u64());
  out.push_back(bits_of(rng.uniform()));
  out.push_back(bits_of(rng.uniform()));
  out.push_back(rng.index(7));
  out.push_back(rng.index(1000003));
  out.push_back(rng.index((std::size_t{1} << 63) + 1));  // ~50% rejections
  out.push_back(as_u64(rng.uniform_int(-3, 5)));
  out.push_back(as_u64(rng.uniform_int(INT_MIN, INT_MAX)));
  out.push_back(rng.bernoulli(0.3));
  out.push_back(rng.bernoulli(0.9));
  out.push_back(rng.bernoulli(0.0015));
  for (int i = 0; i < 400; ++i) rng.next_u64();
  out.push_back(rng.next_u64());
  out.push_back(bits_of(rng.uniform()));
  out.push_back(rng.index(12));
  return out;
}

TEST(RngEngine, GoldenDraws) {
  // Recorded from a build whose Rng wrapped libstdc++'s std::mt19937_64,
  // uniform_real_distribution and uniform_int_distribution.
  const std::vector<std::vector<std::uint64_t>> golden = {
      {0x28e837c5cb41dc3eULL, 0xfdfd3a7c3e40f98bULL, 0x3fa442642fe065d1ULL,
       0x3fe31ead2079dc80ULL, 0x0000000000000003ULL, 0x000000000000df47ULL,
       0x6bcf314bb7b021b3ULL, 0x0000000000000005ULL, 0xffffffffec53702cULL,
       0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
       0xee8defa8d0dcf24aULL, 0x3fcdc3f9412c2854ULL, 0x000000000000000bULL},
      {0xc151df7d6ee5e2d6ULL, 0xa3978fb9b92502a8ULL, 0x3fe81192cfe1cbcfULL,
       0x3fc171621fc50d6aULL, 0x0000000000000006ULL, 0x0000000000016f74ULL,
       0x498b850cb2ea1210ULL, 0x0000000000000000ULL, 0xffffffffc61c9cf6ULL,
       0x0000000000000000ULL, 0x0000000000000001ULL, 0x0000000000000000ULL,
       0x3ac0e3929bf6d2b0ULL, 0x3fe2d95015832ddcULL, 0x0000000000000008ULL},
      {0x3d1f001033d278c5ULL, 0x794744f79f781912ULL, 0x3fc0ea1c44b7e408ULL,
       0x3fdc19ffff22660dULL, 0x0000000000000001ULL, 0x00000000000cc2eeULL,
       0x4e923545232bf8ccULL, 0x0000000000000004ULL, 0x000000003a36848fULL,
       0x0000000000000000ULL, 0x0000000000000001ULL, 0x0000000000000000ULL,
       0xca089b0b2b0ad630ULL, 0x3fdc95c9b642a0e3ULL, 0x0000000000000003ULL},
      {0x06a24a7a23fbc864ULL, 0xb7c9110662dd4544ULL, 0x3fa3af6cce326ab3ULL,
       0x3fe072f00c132f8fULL, 0x0000000000000006ULL, 0x0000000000080075ULL,
       0x299b16050d6d222cULL, 0x0000000000000004ULL, 0x000000004057ba05ULL,
       0x0000000000000001ULL, 0x0000000000000001ULL, 0x0000000000000000ULL,
       0x71f400fb626ce8feULL, 0x3fd49a6489af9885ULL, 0x0000000000000004ULL},
      {0x9740424e4d6015d5ULL, 0xa4fae799e7d0253fULL, 0x3fc63aa4cb344742ULL,
       0x3fef36a2c3382db4ULL, 0x0000000000000006ULL, 0x00000000000d0740ULL,
       0x131518ec6c6cfe77ULL, 0x0000000000000003ULL, 0xffffffffecbdeeffULL,
       0x0000000000000000ULL, 0x0000000000000001ULL, 0x0000000000000000ULL,
       0x81872359a2db70faULL, 0x3fa9f4d4809df980ULL, 0x0000000000000009ULL},
  };
  const Rng rngs[] = {Rng(0), Rng(42), Rng(2025), Rng(0xFFFFFFFFFFFFFFFFULL),
                      Rng::for_stream(7, 3)};
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(draw_script(rngs[i]), golden[i]) << "generator " << i;
  }
}

TEST(RngUniform, CanonicalClampAtTheTop) {
  // Raw draws from 2^64 - 2^10 up convert to the double 2^64, and their
  // quotient 1 is clamped to 1 - 2^-53, the largest double below 1.
  const std::uint64_t top = ~std::uint64_t{0};
  for (std::uint64_t raw : {top, top - 1, top - 1023}) {
    EXPECT_EQ(Rng::uniform_from(raw), 1.0 - 0x1p-53) << raw;
  }
  // Below it they round to 2^64 - 2^11, then to 2^64 - 2^12.
  EXPECT_EQ(Rng::uniform_from(top - 1024), 1.0 - 0x1p-53);
  EXPECT_EQ(Rng::uniform_from(top - 3072), 1.0 - 0x1p-52);
  EXPECT_EQ(Rng::uniform_from(0), 0.0);
  EXPECT_EQ(Rng::uniform_from(1), 0x1p-64);
}

/// Checks u(T - 1) < p <= u(T) for T = bernoulli_threshold(p), where u is
/// the uniform of a raw draw: exactly the draws below T succeed.
void expect_exact_threshold(double p) {
  const std::uint64_t t = Rng::bernoulli_threshold(p);
  ASSERT_GT(t, 0u) << p;
  EXPECT_LT(Rng::uniform_from(t - 1), p) << p;
  ASSERT_LT(t, ~std::uint64_t{0}) << p;
  EXPECT_GE(Rng::uniform_from(t), p) << p;
}

TEST(RngBernoulli, ThresholdIsExactAtItsBoundary) {
  std::vector<double> ps = {0x1p-60, 0.5, 1.0 - 0x1p-53, 0x1p-11,
                            std::nextafter(0x1p-11, 1.0),
                            std::nextafter(0x1p-11, 0.0), 0x1p-64,
                            0x1.8p-64, 1e-300, 0.1, 0.3, 0.9};
  const compiler::Target presets[] = {
      compiler::fake_valencia(), compiler::line_device(8),
      compiler::ring_device(12), compiler::grid_device(3, 3)};
  for (const compiler::Target& t : presets) {
    ps.push_back(t.noise.p1);
    ps.push_back(t.noise.p2);
    ps.push_back(t.noise.readout);
  }
  const sim::NoiseModel stress = sim::NoiseModel::noisy_stress();
  ps.insert(ps.end(), {stress.p1, stress.p2, stress.readout});
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over (2^-70, 1): every binade of the threshold formula.
    const double p = std::exp2(-70.0 * rng.uniform());
    if (p < 1.0) ps.push_back(p);
  }
  for (double p : ps) expect_exact_threshold(p);
  EXPECT_EQ(Rng::bernoulli_threshold(0x1p-60), 16u);
  // Raw draws from 2^63 - 2^9 up round to 2^63, whose uniform is 0.5.
  EXPECT_EQ(Rng::bernoulli_threshold(0.5), (std::uint64_t{1} << 63) - 512);
}

TEST(RngBernoulli, ThresholdOutsideTheDrawingRange) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Rng::bernoulli_threshold(nan), 0u);  // no raw draw is below it
  EXPECT_EQ(Rng::bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(Rng::bernoulli_threshold(-1.0), 0u);
  EXPECT_EQ(Rng::bernoulli_threshold(1.0), ~std::uint64_t{0});
  // bernoulli draws once for NaN and never succeeds; it draws nothing at
  // p <= 0 and p >= 1.
  Rng a(9), b(9);
  EXPECT_FALSE(a.bernoulli(nan));
  b.next_u64();
  EXPECT_TRUE(a.bernoulli(1.0));
  EXPECT_FALSE(a.bernoulli(0.0));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngBernoulli, ThresholdMatchesBernoulliDrawForDraw) {
  for (double p : {0.001, 0.0123, 0.25, 0.999999}) {
    Rng a(77), b(77);
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(a.bernoulli(p), b.next_u64() < t) << p << " draw " << i;
    }
  }
}

#ifdef __GLIBCXX__
TEST(RngEngine, DrawsEqualLibstdcxxDistributions) {
  // The draws the library computed through libstdc++ before it owned them.
  std::mt19937_64 engine(2025);
  Rng rng(2025);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::size_t sizes[] = {1, 2, 3, 7, 64, 1000003,
                               (std::size_t{1} << 63) + 1,
                               ~std::size_t{0} - 1};
  for (int i = 0; i < 1000000; ++i) {
    switch (i % 4) {
      case 0:
        ASSERT_EQ(bits_of(rng.uniform()), bits_of(unit(engine))) << i;
        break;
      case 1: {
        const std::size_t n = sizes[(i / 4) % 8];
        std::uniform_int_distribution<std::size_t> d(0, n - 1);
        ASSERT_EQ(rng.index(n), d(engine)) << i;
        break;
      }
      case 2: {
        const int lo = (i % 3 == 0) ? INT_MIN : -3 - (i / 4) % 100;
        const int hi = (i % 5 == 0) ? INT_MAX : 5 + (i / 4) % 1000;
        std::uniform_int_distribution<int> d(lo, hi);
        ASSERT_EQ(rng.uniform_int(lo, hi), d(engine)) << i;
        break;
      }
      default:
        ASSERT_EQ(rng.next_u64(), engine()) << i;
    }
  }
}
#endif

}  // namespace
}  // namespace tetris
