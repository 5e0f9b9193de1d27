#include "alloc/max_quality.h"

#include <array>
#include <limits>
#include <utility>

#include "alloc/greedy_engine.h"
#include "common/check.h"
#include "common/error.h"
#include "common/parallel.h"

namespace eta2::alloc {

std::size_t greedy_extend(const AllocationProblem& problem,
                          const GreedyOptions& options, Allocation& allocation,
                          GreedyStats* stats) {
  problem.validate();
  // A negative cost cap would read as "unlimited" below; reject it here.
  ETA2_EXPECTS(options.cost_cap >= 0.0);
  require(allocation.user_count() == problem.user_count() &&
              allocation.task_count() == problem.task_count(),
          "greedy_extend: allocation shape mismatch");
  const GreedyPlane plane(problem, options.epsilon);
  GreedyPass pass(plane, allocation);
  const std::size_t added =
      pass.extend(options.efficiency_per_time, options.cost_cap, allocation);
  if (stats != nullptr) *stats = pass.stats();
  return added;
}

MaxQualityAllocator::MaxQualityAllocator(Options options) : options_(options) {}

Allocation MaxQualityAllocator::allocate(const AllocationProblem& problem) const {
  return allocate(problem, nullptr);
}

Allocation MaxQualityAllocator::allocate(const AllocationProblem& problem,
                                         GreedyStats* stats) const {
  problem.validate();
  const std::size_t n = problem.user_count();
  const std::size_t m = problem.task_count();
  const GreedyPlane plane(problem, options_.epsilon);

  // Lane 0 runs Algorithm 1 (efficiency per time), lane 1 the cost-blind
  // pass of the ½-approximation. Each pass is serial over its own state, so
  // its selections do not depend on the lane count. Every selection bumps
  // its pass's allocation books, so the two results sit on separate cache
  // lines.
  struct alignas(64) Lane {
    Allocation allocation;
    GreedyStats stats;
    double objective = 0.0;
  };
  std::array<Lane, 2> lanes;
  const auto run_pass = [&](std::size_t lane) {
    Lane& out = lanes[lane];
    out.allocation = Allocation(n, m);
    GreedyPass pass(plane, out.allocation);
    pass.extend(/*per_time=*/lane == 0,
                std::numeric_limits<double>::infinity(), out.allocation);
    out.stats = pass.stats();
    out.objective = pass.objective();
  };
  const std::size_t passes = options_.half_approx_pass ? 2 : 1;
  if (passes == 2 && n * m >= kTwoLaneMinCells) {
    parallel::parallel_for(passes, 1, run_pass);
  } else {
    for (std::size_t lane = 0; lane < passes; ++lane) run_pass(lane);
  }

  if (stats != nullptr) {  // lane 1's counters stay 0 when it did not run
    *stats = lanes[0].stats;
    stats->selections += lanes[1].stats.selections;
    stats->gain_evaluations += lanes[1].stats.gain_evaluations;
    stats->heap_pops += lanes[1].stats.heap_pops;
  }
  // Each pass's Eq. 12 objective comes from its own miss products, bitwise
  // what allocation_objective() recomputes from the pairs.
  const bool secondary_wins =
      passes == 2 && lanes[1].objective > lanes[0].objective;
  return std::move(lanes[secondary_wins ? 1 : 0].allocation);
}

}  // namespace eta2::alloc
