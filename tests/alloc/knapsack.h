// Exact 0/1-knapsack solver (dynamic programming over discretized weights).
// Not part of the allocation pipeline: the paper's NP-hardness proof reduces
// single-user max-quality allocation to knapsack, and the suite uses this
// oracle to check the greedy heuristic's approximation quality. Test-only:
// compiled into the test binary.
#ifndef ETA2_TESTS_ALLOC_KNAPSACK_H
#define ETA2_TESTS_ALLOC_KNAPSACK_H

#include <cstdint>
#include <span>
#include <vector>

namespace eta2::alloc {

struct KnapsackSolution {
  double value = 0.0;
  std::vector<std::size_t> chosen;  // item indices, ascending
};

// Maximizes Σ value[i] over subsets with Σ weight[i] <= capacity.
// Weights and capacity are discretized to `resolution` steps (weights are
// rounded UP so the returned subset is always feasible for the original
// continuous capacities; the reported optimum is therefore a lower bound
// within one resolution step of the true optimum).
// Requires equal-sized inputs, non-negative values/weights, resolution >= 1.
[[nodiscard]] KnapsackSolution knapsack_exact(std::span<const double> values,
                                              std::span<const double> weights,
                                              double capacity,
                                              std::size_t resolution = 1000);

}  // namespace eta2::alloc

#endif  // ETA2_TESTS_ALLOC_KNAPSACK_H
