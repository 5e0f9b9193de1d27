#include "bruteforce.h"

#include <cstdint>

#include "common/error.h"

namespace eta2::alloc {

BruteForceResult optimal_allocation_bruteforce(const AllocationProblem& problem,
                                               double epsilon) {
  problem.validate();
  const std::size_t n = problem.user_count();
  const std::size_t m = problem.task_count();
  const std::size_t bits = n * m;
  require(bits <= 20, "optimal_allocation_bruteforce: instance too large");

  BruteForceResult best;
  best.allocation = Allocation(n, m);
  best.objective = 0.0;

  const std::uint32_t limit = 1u << bits;
  for (std::uint32_t mask = 0; mask < limit; ++mask) {
    // Feasibility: per-user load within capacity.
    bool feasible = true;
    for (UserId i = 0; i < n && feasible; ++i) {
      double load = 0.0;
      for (TaskId j = 0; j < m; ++j) {
        if ((mask >> (i * m + j)) & 1u) load += problem.task_time[j];
      }
      feasible = load <= problem.user_capacity[i];
    }
    if (!feasible) continue;
    Allocation candidate(n, m);
    for (UserId i = 0; i < n; ++i) {
      for (TaskId j = 0; j < m; ++j) {
        if ((mask >> (i * m + j)) & 1u) {
          candidate.assign(i, j, problem.task_time[j], problem.cost_of(j));
        }
      }
    }
    const double objective = allocation_objective(problem, candidate, epsilon);
    if (objective > best.objective) {
      best.objective = objective;
      best.allocation = std::move(candidate);
    }
  }
  return best;
}

}  // namespace eta2::alloc
