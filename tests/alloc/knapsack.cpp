#include "knapsack.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/error.h"

namespace eta2::alloc {

KnapsackSolution knapsack_exact(std::span<const double> values,
                                std::span<const double> weights,
                                double capacity, std::size_t resolution) {
  require(values.size() == weights.size(), "knapsack_exact: size mismatch");
  require(resolution >= 1, "knapsack_exact: resolution >= 1");
  for (const double v : values) require(v >= 0.0, "knapsack_exact: value >= 0");
  for (const double w : weights) require(w > 0.0, "knapsack_exact: weight > 0");

  // A NaN capacity would sail through every comparison below and return an
  // empty-but-plausible solution; reject it as a caller bug.
  ETA2_EXPECTS(!std::isnan(capacity));
  KnapsackSolution solution;
  if (values.empty() || capacity <= 0.0) return solution;

  const double max_weight = *std::max_element(weights.begin(), weights.end());
  const double scale = static_cast<double>(resolution) /
                       std::max(capacity, max_weight);
  const auto cap = static_cast<std::size_t>(std::floor(capacity * scale));
  std::vector<std::size_t> w(values.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    w[i] = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(weights[i] * scale)));
  }

  // dp[c] = best value with weight budget c; keep[i][c] for reconstruction.
  std::vector<double> dp(cap + 1, 0.0);
  std::vector<std::vector<bool>> keep(values.size(),
                                      std::vector<bool>(cap + 1, false));
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (w[i] > cap) continue;
    for (std::size_t c = cap; c >= w[i]; --c) {
      const double candidate = dp[c - w[i]] + values[i];
      if (candidate > dp[c]) {
        dp[c] = candidate;
        keep[i][c] = true;
      }
      if (c == w[i]) break;  // prevent unsigned underflow
    }
  }
  solution.value = dp[cap];
  std::size_t c = cap;
  for (std::size_t i = values.size(); i-- > 0;) {
    if (c >= w[i] && keep[i][c]) {
      solution.chosen.push_back(i);
      c -= w[i];
    }
  }
  std::reverse(solution.chosen.begin(), solution.chosen.end());
  // Non-negative values summed: the optimum cannot be negative, and the
  // reconstruction must account for exactly the reported value's items.
  ETA2_ENSURES(solution.value >= 0.0);
  return solution;
}

}  // namespace eta2::alloc
