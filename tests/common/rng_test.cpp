#include "common/rng.hpp"

#include <gtest/gtest.h>

namespace strata {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1'000'000), b.UniformInt(0, 1'000'000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1'000'000) == b.UniformInt(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInRange) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  double sum = 0;
  double sum_sq = 0;
  constexpr int kN = 20'000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.Normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10'000.0, 0.3, 0.03);
}

TEST(Rng, PoissonMean) {
  Rng rng(7);
  std::int64_t total = 0;
  for (int i = 0; i < 10'000; ++i) total += rng.Poisson(4.0);
  EXPECT_NEAR(static_cast<double>(total) / 10'000.0, 4.0, 0.15);
}

// A zero rate (clean job, clean recoater) draws nothing instead of handing
// std::poisson_distribution a mean outside its domain.
TEST(Rng, PoissonOfNonPositiveMeanIsZeroAndDrawsNothing) {
  Rng rng(5);
  Rng twin(5);
  EXPECT_EQ(rng.Poisson(0.0), 0);
  EXPECT_EQ(rng.Poisson(-1.0), 0);
  EXPECT_EQ(rng.UniformInt(0, 1'000'000), twin.UniformInt(0, 1'000'000));
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(8);
  Rng child = parent.Fork();
  // The child stream must differ from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.UniformInt(0, 1 << 30) == child.UniformInt(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ExponentialGapPositiveWithMean) {
  Rng rng(9);
  double total = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double gap = rng.ExponentialGap(2.0);  // rate 2 -> mean 0.5
    EXPECT_GE(gap, 0.0);
    total += gap;
  }
  EXPECT_NEAR(total / 10'000.0, 0.5, 0.05);
}

}  // namespace
}  // namespace strata
