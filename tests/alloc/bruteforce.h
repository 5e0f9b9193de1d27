// Exhaustive optimal max-quality allocation for tiny instances: enumerates
// every feasible assignment set and maximizes the Eq. 12 objective. Like
// the knapsack DP, this is a test oracle (the problem is NP-hard, §5.1.1) —
// it lets the suite measure the greedy heuristic's true approximation ratio
// on multi-user instances. Test-only: compiled into the test binary.
#ifndef ETA2_TESTS_ALLOC_BRUTEFORCE_H
#define ETA2_TESTS_ALLOC_BRUTEFORCE_H

#include "alloc/allocation.h"

namespace eta2::alloc {

struct BruteForceResult {
  Allocation allocation;
  double objective = 0.0;
};

// Requires user_count * task_count <= 20 (2^20 subsets); throws otherwise.
[[nodiscard]] BruteForceResult optimal_allocation_bruteforce(
    const AllocationProblem& problem, double epsilon);

}  // namespace eta2::alloc

#endif  // ETA2_TESTS_ALLOC_BRUTEFORCE_H
