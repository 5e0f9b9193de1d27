#include "knapsack.h"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

namespace eta2::alloc {
namespace {

TEST(KnapsackTest, EmptyInput) {
  const KnapsackSolution s = knapsack_exact({}, {}, 10.0);
  EXPECT_DOUBLE_EQ(s.value, 0.0);
  EXPECT_TRUE(s.chosen.empty());
}

TEST(KnapsackTest, ZeroCapacity) {
  const std::vector<double> v{1.0};
  const std::vector<double> w{1.0};
  const KnapsackSolution s = knapsack_exact(v, w, 0.0);
  EXPECT_DOUBLE_EQ(s.value, 0.0);
}

TEST(KnapsackTest, ClassicInstance) {
  // Items: (v=60,w=1), (v=100,w=2), (v=120,w=3); capacity 5 -> 220.
  const std::vector<double> v{60.0, 100.0, 120.0};
  const std::vector<double> w{1.0, 2.0, 3.0};
  const KnapsackSolution s = knapsack_exact(v, w, 5.0);
  EXPECT_DOUBLE_EQ(s.value, 220.0);
  EXPECT_EQ(s.chosen, (std::vector<std::size_t>{1, 2}));
}

TEST(KnapsackTest, TakesAllWhenTheyFit) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  const std::vector<double> w{1.0, 1.0, 1.0};
  const KnapsackSolution s = knapsack_exact(v, w, 10.0);
  EXPECT_DOUBLE_EQ(s.value, 6.0);
  EXPECT_EQ(s.chosen.size(), 3u);
}

TEST(KnapsackTest, SingleHeavyItemExcluded) {
  const std::vector<double> v{100.0, 1.0};
  const std::vector<double> w{10.0, 1.0};
  const KnapsackSolution s = knapsack_exact(v, w, 5.0);
  EXPECT_DOUBLE_EQ(s.value, 1.0);
  EXPECT_EQ(s.chosen, (std::vector<std::size_t>{1}));
}

TEST(KnapsackTest, ChosenSetIsFeasibleAndMatchesValue) {
  const std::vector<double> v{3.0, 8.0, 5.0, 2.0, 7.0};
  const std::vector<double> w{1.5, 3.0, 2.0, 0.7, 2.5};
  const KnapsackSolution s = knapsack_exact(v, w, 6.0);
  double total_w = 0.0;
  double total_v = 0.0;
  for (const std::size_t i : s.chosen) {
    total_w += w[i];
    total_v += v[i];
  }
  EXPECT_LE(total_w, 6.0 + 1e-9);
  EXPECT_DOUBLE_EQ(total_v, s.value);
}

TEST(KnapsackTest, RejectsBadInputs) {
  const std::vector<double> v{1.0};
  const std::vector<double> w{1.0, 2.0};
  EXPECT_THROW(knapsack_exact(v, w, 1.0), std::invalid_argument);
  const std::vector<double> w1{0.0};
  EXPECT_THROW(knapsack_exact(v, w1, 1.0), std::invalid_argument);
  const std::vector<double> neg{-1.0};
  const std::vector<double> w2{1.0};
  EXPECT_THROW(knapsack_exact(neg, w2, 1.0), std::invalid_argument);
  EXPECT_THROW(knapsack_exact(v, w2, 1.0, 0), std::invalid_argument);
}

TEST(KnapsackTest, FractionalWeightsRoundUpSafely) {
  // Rounding up means the solution never overfills the true capacity.
  const std::vector<double> v{1.0, 1.0, 1.0};
  const std::vector<double> w{0.34, 0.33, 0.34};
  const KnapsackSolution s = knapsack_exact(v, w, 1.0, 100);
  double total_w = 0.0;
  for (const std::size_t i : s.chosen) total_w += w[i];
  EXPECT_LE(total_w, 1.0 + 1e-9);
}

}  // namespace
}  // namespace eta2::alloc
