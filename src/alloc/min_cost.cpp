#include "alloc/min_cost.h"

#include <cmath>
#include <span>
#include <vector>

#include "alloc/greedy_engine.h"
#include "common/check.h"
#include "common/error.h"
#include "common/parallel.h"
#include "stats/confidence.h"
#include "stats/normal.h"

namespace eta2::alloc {

MinCostAllocator::MinCostAllocator() : MinCostAllocator(Options{}) {}

MinCostAllocator::MinCostAllocator(Options options) : options_(options) {
  require(options_.epsilon > 0.0, "MinCostAllocator: epsilon > 0");
  require(options_.epsilon_bar > 0.0, "MinCostAllocator: epsilon_bar > 0");
  require(options_.confidence_alpha > 0.0 && options_.confidence_alpha < 1.0,
          "MinCostAllocator: confidence_alpha in (0,1)");
  require(options_.cost_per_iteration > 0.0,
          "MinCostAllocator: cost_per_iteration > 0");
  require(options_.max_data_iterations >= 1,
          "MinCostAllocator: max_data_iterations >= 1");
}

MinCostAllocator::Result MinCostAllocator::run(
    const AllocationProblem& problem,
    std::span<const truth::DomainIndex> task_domain, std::size_t domain_count,
    const std::vector<std::vector<double>>& initial_expertise,
    const truth::Eta2Mle& mle, const CollectFn& collect) const {
  problem.validate();
  const std::size_t n = problem.user_count();
  const std::size_t m = problem.task_count();
  require(task_domain.size() == m, "MinCostAllocator: task_domain size != m");
  require(collect != nullptr, "MinCostAllocator: collect callback required");

  Result result(n, m);
  // The quality requirement z_{α/2}/sqrt(Σ u²) < ε̄ does not depend on σ_j
  // (both sides of Eq. 21 scale with it), so the pass test reduces to a
  // threshold on the allocated users' squared expertise.
  const double z = stats::z_critical(options_.confidence_alpha);
  const double required_info =
      (z / options_.epsilon_bar) * (z / options_.epsilon_bar);
  // Eq. 21's pass threshold: a non-finite or non-positive requirement would
  // make every task pass (or none ever), so the budget loop would misbehave
  // silently.
  ETA2_ENSURES(std::isfinite(required_info) && required_info > 0.0);

  std::vector<std::vector<double>> expertise = initial_expertise;
  if (expertise.empty()) {
    expertise.assign(n, std::vector<double>(domain_count,
                                            mle.options().initial_expertise));
  }

  // One engine serves every data round: the plane is built once, and the
  // pass's state persists, because rounds only add pairs and shrink
  // capacities — every stale CELF bound stays a valid upper bound, so the
  // selections are those of an engine rebuilt per round. Tasks whose
  // quality requirement is already met are retired (bound 0): paying for
  // extra observers on a passing task can only waste budget that a failing
  // task needs.
  const GreedyPlane plane(problem, options_.epsilon);
  GreedyPass engine(plane, result.allocation);
  std::vector<bool> task_passed(m, false);
  std::vector<bool> asked(n * m, false);

  for (int iteration = 1; iteration <= options_.max_data_iterations;
       ++iteration) {
    result.data_iterations = iteration;

    // --- Allocate up to c° of new pairs (Algorithm 1 with a cost cap). ---
    const std::size_t pairs_before = result.allocation.pair_count();
    engine.resync_capacity(result.allocation);
    engine.extend(/*per_time=*/true, options_.cost_per_iteration,
                  result.allocation);
    if (options_.half_approx_pass &&
        result.allocation.pair_count() == pairs_before) {
      // The per-time pass added nothing; try the value-only pass before
      // concluding that capacities are exhausted.
      engine.extend(/*per_time=*/false, options_.cost_per_iteration,
                    result.allocation);
    }
    const std::size_t pairs_after = result.allocation.pair_count();

    // --- Collect data from the newly recruited users (each recruited pair
    // is asked exactly once; non-responders contribute nothing). ---
    for (TaskId j = 0; j < m; ++j) {
      for (const UserId i : result.allocation.users_of(j)) {
        if (asked[i * m + j]) continue;
        asked[i * m + j] = true;
        if (const auto value = collect(j, i)) {
          result.observations.add(j, i, *value);
        }
      }
    }

    // --- Expertise-aware truth analysis over ALL collected data. ---
    result.truth =
        mle.estimate(result.observations, task_domain, domain_count, expertise);

    // --- Probabilistic quality check per task (Eq. 24). ---
    // The per-task information sums are independent reads of the truth
    // estimate (the analogue of the p_ij build in GreedyPlane); compute
    // them in parallel, then apply pass/fail decisions serially.
    std::vector<double> info(m, 0.0);
    parallel::parallel_for(m, 64, [&](TaskId j) {
      if (task_passed[j]) return;
      const truth::DomainIndex k = task_domain[j];
      double sum = 0.0;
      for (const UserId i : result.allocation.users_of(j)) {
        const double u = result.truth.expertise[i][k];
        sum += u * u;
      }
      info[j] = sum;
    });
    bool pass = true;
    for (TaskId j = 0; j < m; ++j) {
      if (task_passed[j]) continue;
      ETA2_ASSERT(std::isfinite(info[j]) && info[j] >= 0.0);
      if (info[j] > required_info) {
        task_passed[j] = true;
        engine.retire(j);
      } else {
        pass = false;
      }
    }
    if (pass) {
      result.quality_met = true;
      break;
    }
    if (pairs_after == pairs_before) break;  // nothing left to allocate
  }
  if (!result.quality_met) {
    for (TaskId j = 0; j < m; ++j) {
      if (!task_passed[j]) ++result.tasks_unmet;
    }
  }
  return result;
}

}  // namespace eta2::alloc
