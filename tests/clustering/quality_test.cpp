#include "clustering/quality.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace strata::cluster {
namespace {

TEST(AdjustedRandIndex, IdenticalPartitionsScoreOne) {
  const std::vector<int> labels{0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(AdjustedRandIndex(labels, labels), 1.0);
}

TEST(AdjustedRandIndex, RenamedLabelsScoreOne) {
  const std::vector<int> a{0, 0, 1, 1, 2, 2};
  const std::vector<int> b{7, 7, 3, 3, 9, 9};
  EXPECT_DOUBLE_EQ(AdjustedRandIndex(a, b), 1.0);
}

TEST(AdjustedRandIndex, RandomLabelsScoreNearZero) {
  Rng rng(1);
  std::vector<int> a;
  std::vector<int> b;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(static_cast<int>(rng.UniformInt(0, 4)));
    b.push_back(static_cast<int>(rng.UniformInt(0, 4)));
  }
  EXPECT_NEAR(AdjustedRandIndex(a, b), 0.0, 0.05);
}

TEST(AdjustedRandIndex, PartialAgreementBetweenZeroAndOne) {
  const std::vector<int> a{0, 0, 0, 1, 1, 1};
  const std::vector<int> b{0, 0, 1, 1, 1, 1};
  const double ari = AdjustedRandIndex(a, b);
  EXPECT_GT(ari, 0.0);
  EXPECT_LT(ari, 1.0);
}

TEST(AdjustedRandIndex, SizeMismatchThrows) {
  EXPECT_THROW((void)AdjustedRandIndex({0, 1}, {0}), std::invalid_argument);
}

TEST(AdjustedRandIndex, TrivialInputs) {
  EXPECT_DOUBLE_EQ(AdjustedRandIndex({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(AdjustedRandIndex({0}, {5}), 1.0);
  // Both all-in-one-cluster.
  EXPECT_DOUBLE_EQ(AdjustedRandIndex({1, 1, 1}, {2, 2, 2}), 1.0);
}

TEST(Purity, PerfectClusteringScoresOne) {
  const std::vector<int> truth{0, 0, 1, 1};
  const std::vector<int> predicted{5, 5, 9, 9};
  EXPECT_DOUBLE_EQ(Purity(truth, predicted), 1.0);
}

TEST(Purity, SingleClusterScoresMajorityFraction) {
  const std::vector<int> truth{0, 0, 0, 1};
  const std::vector<int> predicted{0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(Purity(truth, predicted), 0.75);
}

TEST(Purity, OverSegmentationStillPure) {
  // Splitting a true cluster does not hurt purity (known metric property).
  const std::vector<int> truth{0, 0, 0, 0};
  const std::vector<int> predicted{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(Purity(truth, predicted), 1.0);
}

TEST(Purity, SizeMismatchThrows) {
  EXPECT_THROW((void)Purity({0}, {0, 1}), std::invalid_argument);
}

TEST(Purity, EmptyScoresOne) { EXPECT_DOUBLE_EQ(Purity({}, {}), 1.0); }

}  // namespace
}  // namespace strata::cluster
