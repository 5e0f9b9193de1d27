#include "rescan_greedy.h"

#include <vector>

#include "common/error.h"
#include "stats/normal.h"

namespace eta2::alloc {
namespace {

// Rescans every user of an invalidated task eagerly; per task it caches
// the best (efficiency, user) under the current state.
class RescanGreedy {
 public:
  RescanGreedy(const AllocationProblem& problem, const GreedyOptions& options,
               const Allocation& allocation, GreedyStats& stats)
      : problem_(problem),
        options_(options),
        allocation_(allocation),
        stats_(stats),
        k_(problem.class_count()) {
    const std::size_t n = problem.user_count();
    const std::size_t m = problem.task_count();
    // p over users × task classes, row-major: p_ij = p_[i·K + class(j)].
    p_.assign(n * k_, 0.0);
    stats::accuracy_probability_batch(problem.expertise.data(),
                                      options.epsilon, p_);
    remaining_.resize(n);
    for (UserId i = 0; i < n; ++i) {
      remaining_[i] = problem.user_capacity[i] - allocation.used_time(i);
    }
    miss_.assign(m, 1.0);
    for (TaskId j = 0; j < m; ++j) {
      for (const UserId i : allocation.users_of(j)) miss_[j] *= 1.0 - p(i, j);
    }
    best_eff_.assign(m, 0.0);
    best_user_.assign(m, n);
    for (TaskId j = 0; j < m; ++j) rescan_task(j);
  }

  // Picks the globally best pair; returns false when max efficiency is 0.
  [[nodiscard]] bool next(UserId& user, TaskId& task) const {
    double best = 0.0;
    TaskId best_task = problem_.task_count();
    for (TaskId j = 0; j < problem_.task_count(); ++j) {
      if (best_eff_[j] > best) {
        best = best_eff_[j];
        best_task = j;
      }
    }
    if (best_task == problem_.task_count()) return false;
    task = best_task;
    user = best_user_[best_task];
    return true;
  }

  // Applies the selection and refreshes the caches that it invalidated.
  void select(UserId i, TaskId j, Allocation& allocation) {
    allocation.assign(i, j, problem_.task_time[j], problem_.cost_of(j));
    remaining_[i] -= problem_.task_time[j];
    miss_[j] *= 1.0 - p(i, j);
    ++stats_.selections;
    rescan_task(j);
    // Other tasks' cached best may reference user i, whose remaining
    // capacity shrank. Rescan exactly those tasks.
    for (TaskId other = 0; other < problem_.task_count(); ++other) {
      if (other != j && best_user_[other] == i &&
          remaining_[i] < problem_.task_time[other]) {
        rescan_task(other);
      }
    }
  }

 private:
  [[nodiscard]] double p(UserId i, TaskId j) const {
    return p_[i * k_ + problem_.class_of(j)];
  }

  // Efficiency of (i, j) under the current state (Definition 1).
  [[nodiscard]] double efficiency(UserId i, TaskId j) const {
    ++stats_.gain_evaluations;
    if (remaining_[i] < problem_.task_time[j]) return 0.0;
    if (allocation_.is_assigned(i, j)) return 0.0;
    const double gain = p(i, j) * miss_[j];
    return options_.efficiency_per_time ? gain / problem_.task_time[j] : gain;
  }

  void rescan_task(TaskId j) {
    const std::size_t n = problem_.user_count();
    best_eff_[j] = 0.0;
    best_user_[j] = n;
    for (UserId i = 0; i < n; ++i) {
      const double e = efficiency(i, j);
      if (e > best_eff_[j]) {
        best_eff_[j] = e;
        best_user_[j] = i;
      }
    }
  }

  const AllocationProblem& problem_;
  const GreedyOptions& options_;
  const Allocation& allocation_;
  GreedyStats& stats_;
  std::size_t k_;
  std::vector<double> p_;
  std::vector<double> remaining_;
  std::vector<double> miss_;
  std::vector<double> best_eff_;
  std::vector<UserId> best_user_;
};

}  // namespace

std::size_t rescan_greedy_extend(const AllocationProblem& problem,
                                 const GreedyOptions& options,
                                 Allocation& allocation, GreedyStats* stats) {
  problem.validate();
  require(options.epsilon > 0.0, "rescan_greedy_extend: epsilon must be > 0");
  require(allocation.user_count() == problem.user_count() &&
              allocation.task_count() == problem.task_count(),
          "rescan_greedy_extend: allocation shape mismatch");
  GreedyStats local;
  GreedyStats& counters = stats != nullptr ? *stats : local;
  counters = GreedyStats{};
  RescanGreedy state(problem, options, allocation, counters);
  std::size_t added = 0;
  double spent = 0.0;
  while (spent < options.cost_cap) {
    UserId i = 0;
    TaskId j = 0;
    if (!state.next(i, j)) break;  // max efficiency hit zero
    state.select(i, j, allocation);
    spent += problem.cost_of(j);
    ++added;
  }
  return added;
}

Allocation rescan_allocate(const AllocationProblem& problem,
                           const MaxQualityAllocator::Options& options) {
  GreedyOptions per_time;
  per_time.epsilon = options.epsilon;
  Allocation primary(problem.user_count(), problem.task_count());
  rescan_greedy_extend(problem, per_time, primary);
  if (!options.half_approx_pass) return primary;
  GreedyOptions value_only = per_time;
  value_only.efficiency_per_time = false;
  Allocation secondary(problem.user_count(), problem.task_count());
  rescan_greedy_extend(problem, value_only, secondary);
  return allocation_objective(problem, secondary, options.epsilon) >
                 allocation_objective(problem, primary, options.epsilon)
             ? secondary
             : primary;
}

}  // namespace eta2::alloc
