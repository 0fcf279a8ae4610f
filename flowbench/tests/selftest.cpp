// Tests of the benchmark's own helpers: the percentile / failure-accounting
// helper and the independent bit-propagation reference.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "bench_stats.h"
#include "qir/library.h"
#include "reference.h"
#include "revlib/benchmarks.h"
#include "sim/sampler.h"

namespace fb = flowbench;
using namespace tetris;

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(fb::median({}), 0.0);
  EXPECT_EQ(fb::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(fb::median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(WindowedMedian, IgnoresASlowMinorityOfWindows) {
  // Five 1-second windows of ten samples: seven fast ones and three slow
  // ones; in the last two windows the fast ones take twice as long.
  std::vector<double> times, values;
  for (int w = 0; w < 5; ++w) {
    for (int k = 0; k < 10; ++k) {
      times.push_back(w + 0.1 * k);
      values.push_back(k < 7 ? (w >= 3 ? 2.0 : 1.0) : 100.0);
    }
  }
  EXPECT_EQ(fb::median(values), 2.0);
  EXPECT_EQ(fb::windowed_median(times, values, 1.0, 5), 1.0);
}

TEST(WindowedMedian, LateSamplesJoinTheLastWindowAndEmptyOnesAreSkipped) {
  // Window 1 is empty; the sample at 7 s lands in window 2, not beyond.
  EXPECT_EQ(fb::windowed_median({0.5, 2.1, 2.2, 7.0}, {1.0, 5.0, 6.0, 7.0}, 1.0, 3), 3.5);
  EXPECT_EQ(fb::windowed_median({0.5, 9.0}, {4.0, 8.0}, 5.0, 0), 6.0);  // one window
  EXPECT_EQ(fb::windowed_median({}, {}, 1.0, 4), 0.0);
}

TEST(Tail, LeavesExactlyTenSamplesBeyond) {
  const fb::Tail t = fb::tail(one_to(1000));
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_EQ(t.value, 990.0);  // 991..1000 lie beyond it
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);

  const fb::Tail h = fb::tail(one_to(100));
  EXPECT_EQ(h.value, 90.0);
  EXPECT_DOUBLE_EQ(h.percentile, 90.0);

  const fb::Tail e = fb::tail(one_to(11));
  EXPECT_EQ(e.value, 1.0);
  EXPECT_NEAR(e.percentile, 100.0 / 11.0, 1e-12);
}

TEST(Tail, FewSamplesFallBackToTheMaximum) {
  const fb::Tail t = fb::tail(one_to(10));
  EXPECT_EQ(t.value, 10.0);
  EXPECT_EQ(t.percentile, 100.0);
  EXPECT_EQ(t.samples, 10u);
  EXPECT_EQ(fb::tail({}).samples, 0u);
  EXPECT_EQ(fb::tail({}).value, 0.0);
}

TEST(Tally, RefusalsAndTimeoutsAreFailures) {
  fb::Tally t;
  EXPECT_EQ(t.failed_ratio(), 0.0);
  t.attempt(10);
  t.fail(fb::FailKind::kRefused, "POST answered 503");
  t.fail(fb::FailKind::kTimeout, "no result");
  t.fail(fb::FailKind::kCheck, "wrong output");
  EXPECT_EQ(t.attempted(), 10u);
  EXPECT_EQ(t.failed(), 3u);
  EXPECT_EQ(t.failed(fb::FailKind::kRefused), 1u);
  EXPECT_EQ(t.failed(fb::FailKind::kTimeout), 1u);
  EXPECT_EQ(t.failed(fb::FailKind::kError), 0u);
  EXPECT_DOUBLE_EQ(t.failed_ratio(), 0.3);
  ASSERT_EQ(t.messages().size(), 3u);
  EXPECT_EQ(t.messages()[0], "refused: POST answered 503");
}

TEST(Reference, MatchesClassicalOutcomeOnTableOne) {
  for (const auto& b : revlib::table1_benchmarks()) {
    EXPECT_EQ(fb::expected_output(b.circuit, b.measured),
              sim::classical_outcome(b.circuit, b.measured))
        << b.name;
  }
}

TEST(Reference, MatchesClassicalOutcomeOnCliff50) {
  const auto& b = revlib::get_benchmark("cliff50");
  EXPECT_EQ(fb::expected_output(b.circuit, b.measured),
            sim::classical_outcome(b.circuit, b.measured));
  EXPECT_EQ(fb::expected_output(b.circuit, {}),
            sim::classical_outcome(b.circuit, {}));
}

TEST(Reference, MatchesClassicalOutcomeOnTheAdder) {
  for (int bits = 1; bits <= 6; ++bits) {
    const qir::Circuit c = qir::library::ripple_carry_adder(bits);
    EXPECT_EQ(fb::expected_output(c, {}), sim::classical_outcome(c, {})) << bits;
  }
}

TEST(Reference, BitOrderFollowsTheSampler) {
  qir::Circuit c(3, "order");
  c.x(0);
  EXPECT_EQ(fb::expected_output(c, {}), "001");
  EXPECT_EQ(fb::expected_output(c, {0, 2}), "01");
  EXPECT_EQ(fb::expected_output(c, {2, 0}), "10");
  c.swap(0, 2).cx(2, 1).ccx(1, 2, 0);
  EXPECT_EQ(fb::expected_output(c, {}), sim::classical_outcome(c, {}));
}

TEST(Reference, RejectsNonClassicalGates) {
  qir::Circuit c(1, "h");
  c.h(0);
  EXPECT_THROW(fb::expected_output(c, {}), std::invalid_argument);
}

}  // namespace
