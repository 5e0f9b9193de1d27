#include "alloc/max_quality.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/error.h"
#include "common/parallel.h"
#include "stats/normal.h"

namespace eta2::alloc {
namespace {

// CELF lazy engine (DESIGN.md §11). Submodularity makes every cached
// efficiency an upper bound on the current one: a selection only multiplies
// miss_[j] by (1 − p) ≤ 1, only shrinks remaining capacity, and assignments
// are sticky — so gains never increase. A max-heap of stale per-task bounds
// therefore finds the true argmax by popping until the top entry's bound was
// refreshed under the current state.
//
// Within one task every feasible user's efficiency is p_ij times the same
// positive factor miss_[j](/t_j), so the per-task argmax is found without a
// scan: users are pre-sorted by (p_ij desc, index asc) and a cursor skips
// entries that became infeasible — permanently, because infeasibility is
// monotone. A task refresh is then O(1) amortized instead of O(n). The sort
// key depends on the task only through its class, so one order per class
// serves every task of that class (K sorts, not m); cursors stay per task
// because feasibility (capacity vs t_j, prior assignment) is per task.
class LazyGreedy {
 public:
  LazyGreedy(const AllocationProblem& problem, const GreedyOptions& options,
             const Allocation& allocation, GreedyStats& stats)
      : problem_(problem),
        options_(options),
        stats_(stats),
        k_(problem.class_count()) {
    const std::size_t n = problem.user_count();
    const std::size_t m = problem.task_count();
    class_.resize(m);
    for (TaskId j = 0; j < m; ++j) class_[j] = problem.class_of(j);
    // p matrix over users × task classes: one contiguous row-major buffer;
    // p_ij = p_[i·K + class(j)] because Eq. 11 depends on the task only
    // through its domain, so Φ runs n·K times instead of n·m. Cells are
    // independent, so the build fans out over the parallel runtime, each
    // chunk through the batched Φ kernel (validation hoisted per chunk).
    p_.assign(n * k_, 0.0);
    const std::span<const double> expertise = problem.expertise.data();
    const std::span<double> p_span{p_};
    parallel::parallel_for_chunks(
        n * k_, 4096, [&](std::size_t begin, std::size_t end) {
          stats::accuracy_probability_batch(
              expertise.subspan(begin, end - begin), options_.epsilon,
              p_span.subspan(begin, end - begin));
          for (std::size_t cell = begin; cell < end; ++cell) {
            // Algorithm 1's efficiency ordering assumes p_ij ∈ [0, 1].
            ETA2_ASSERT(p_[cell] >= 0.0 && p_[cell] <= 1.0);
          }
        });
    remaining_.resize(n);
    for (UserId i = 0; i < n; ++i) {
      remaining_[i] = problem.user_capacity[i] - allocation.used_time(i);
    }
    miss_.assign(m, 1.0);
    assigned_.assign(m * n, 0);
    for (TaskId j = 0; j < m; ++j) {
      for (const UserId i : allocation.users_of(j)) {
        miss_[j] *= 1.0 - p(i, j);
        assigned_[j * n + i] = 1;
      }
    }
    order_.resize(n * k_);
    cursor_.assign(m, 0);
    parallel::parallel_for(k_, 16, [&](std::size_t k) {
      UserId* ord = order_.data() + k * n;
      const double* pk = p_.data() + k;
      std::iota(ord, ord + n, UserId{0});
      std::sort(ord, ord + n, [&](UserId a, UserId b) {
        const double pa = pk[a * k_];
        const double pb = pk[b * k_];
        if (pa != pb) return pa > pb;
        return a < b;  // ties: ascending index, matching the rescan order
      });
    });
    bound_.assign(m, 0.0);
    stamp_.assign(m, 0);
    candidate_.assign(m, n);
    heap_.reserve(2 * m);
    for (TaskId j = 0; j < m; ++j) {
      bound_[j] = refresh_gain(j);
      heap_.push_back(Entry{bound_[j], j});
    }
    std::make_heap(heap_.begin(), heap_.end(), EntryOrder{});
  }

  // Pops stale upper bounds until the maximum is fresh. An entry whose bound
  // differs from the task's current bound is an outdated duplicate (bounds
  // only decrease and every decrease pushes a new entry) and is discarded.
  // Terminates when the top bound — an upper bound on every efficiency — is
  // not positive, exactly when the rescanning engine's max hits zero.
  [[nodiscard]] bool next(UserId& user, TaskId& task) {
    while (!heap_.empty()) {
      ++stats_.heap_pops;
      std::pop_heap(heap_.begin(), heap_.end(), EntryOrder{});
      const Entry top = heap_.back();
      heap_.pop_back();
      const TaskId j = top.task;
      if (top.bound != bound_[j]) continue;  // superseded duplicate
      if (!(top.bound > 0.0)) return false;
      if (stamp_[j] == version_) {
        // Fresh under the current state: j's true gain ties or beats every
        // other task's upper bound, and the heap order (bound desc, task
        // asc) plus the refresh loop reproduce the rescan tie-break — a
        // stale equal-bound lower-index task pops first, refreshes, and
        // wins the re-pop on a true tie.
        user = candidate_[j];
        task = j;
        return true;
      }
      bound_[j] = refresh_gain(j);
      stamp_[j] = version_;
      push(Entry{bound_[j], j});
    }
    return false;
  }

  void select(UserId i, TaskId j, Allocation& allocation) {
    allocation.assign(i, j, problem_.task_time[j], problem_.cost_of(j));
    assigned_[j * problem_.user_count() + i] = 1;
    remaining_[i] -= problem_.task_time[j];
    // Capacity feasibility: an infeasible pair never has positive
    // efficiency, so a selected pair can never overdraw the time budget.
    ETA2_ASSERT(remaining_[i] >= 0.0);
    miss_[j] *= 1.0 - p(i, j);
    ETA2_ASSERT(miss_[j] >= 0.0 && miss_[j] <= 1.0);
    ++stats_.selections;
    ++version_;
    // The stale bound stays a valid upper bound (gains only decrease), so
    // reinsert j as-is — deliberately NOT scaled by (1 − p): rounding of
    // the scaled product could land below j's true next gain and break
    // exactness. Costs at most one extra O(1) refresh if j surfaces again.
    push(Entry{bound_[j], j});
  }

 private:
  struct Entry {
    double bound = 0.0;
    TaskId task = 0;
  };
  // Max-heap order: higher bound first, lower task index first on ties (the
  // rescan scan keeps the first strict maximum in task order).
  struct EntryOrder {
    [[nodiscard]] bool operator()(const Entry& a, const Entry& b) const {
      if (a.bound != b.bound) return a.bound < b.bound;
      return a.task > b.task;
    }
  };

  void push(Entry entry) {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), EntryOrder{});
  }

  // Recomputes task j's exact best efficiency under the current state and
  // records the winning user in candidate_[j]. The cursor's first feasible
  // user maximizes p_ij, hence efficiency; the forward walk then resolves
  // the rescan engine's first-strict-maximum tie-break exactly — a user
  // with (one-ulp) smaller p_ij can round to the same efficiency, and the
  // rescan scan keeps the lowest index among such ties. Multiplication and
  // division by a positive constant are monotone under rounding, so the
  // walk stops at the first strictly smaller efficiency.
  [[nodiscard]] double refresh_gain(TaskId j) {
    const std::size_t n = problem_.user_count();
    const double task_time = problem_.task_time[j];
    const UserId* ord = order_.data() + class_[j] * n;
    std::size_t& cur = cursor_[j];
    while (cur < n && !feasible(ord[cur], j)) ++cur;
    if (cur == n) {
      candidate_[j] = n;
      return 0.0;
    }
    const double best = efficiency_of(ord[cur], j, task_time);
    if (!(best > 0.0)) {
      candidate_[j] = n;
      return 0.0;
    }
    UserId pick = ord[cur];
    for (std::size_t k = cur + 1; k < n; ++k) {
      const double e = efficiency_of(ord[k], j, task_time);
      if (e < best) break;  // p descending ⇒ no later entry can tie
      if (feasible(ord[k], j) && ord[k] < pick) pick = ord[k];
    }
    candidate_[j] = pick;
    return best;
  }

  [[nodiscard]] double efficiency_of(UserId i, TaskId j, double task_time) {
    ++stats_.gain_evaluations;
    const double gain = p(i, j) * miss_[j];
    return options_.efficiency_per_time ? gain / task_time : gain;
  }

  [[nodiscard]] bool feasible(UserId i, TaskId j) const {
    return remaining_[i] >= problem_.task_time[j] &&
           assigned_[j * problem_.user_count() + i] == 0;
  }

  [[nodiscard]] double p(UserId i, TaskId j) const {
    return p_[i * k_ + class_[j]];
  }

  const AllocationProblem& problem_;
  const GreedyOptions& options_;
  GreedyStats& stats_;
  std::size_t k_;                   // class count (row stride of p_)
  std::vector<std::size_t> class_;  // task -> class
  std::vector<double> p_;           // row-major n × K accuracy probabilities
  std::vector<double> remaining_;
  std::vector<double> miss_;
  // Task-major m × n assigned flags: the feasibility test reads one byte
  // instead of scanning the task's assignee list.
  std::vector<char> assigned_;
  std::vector<UserId> order_;        // per-class users, (p desc, index asc)
  std::vector<std::size_t> cursor_;  // first possibly-feasible order_ entry
  std::vector<double> bound_;        // current upper bound per task
  std::vector<std::size_t> stamp_;   // version bound_[j] was evaluated under
  std::vector<UserId> candidate_;    // argmax user of the last refresh
  std::vector<Entry> heap_;
  std::size_t version_ = 0;  // incremented per selection
};

}  // namespace

std::size_t greedy_extend(const AllocationProblem& problem,
                          const GreedyOptions& options, Allocation& allocation,
                          GreedyStats* stats) {
  problem.validate();
  require(options.epsilon > 0.0, "greedy_extend: epsilon must be > 0");
  // A negative cost cap would read as "unlimited" below; reject it here.
  ETA2_EXPECTS(options.cost_cap >= 0.0);
  require(allocation.user_count() == problem.user_count() &&
              allocation.task_count() == problem.task_count(),
          "greedy_extend: allocation shape mismatch");

  GreedyStats local;
  GreedyStats& counters = stats != nullptr ? *stats : local;
  counters = GreedyStats{};
  std::size_t added = 0;
  double spent = 0.0;
  LazyGreedy state(problem, options, allocation, counters);
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

MaxQualityAllocator::MaxQualityAllocator(Options options) : options_(options) {}

Allocation MaxQualityAllocator::allocate(const AllocationProblem& problem) const {
  return allocate(problem, nullptr);
}

Allocation MaxQualityAllocator::allocate(const AllocationProblem& problem,
                                         GreedyStats* stats) const {
  problem.validate();
  GreedyOptions per_time;
  per_time.epsilon = options_.epsilon;
  per_time.efficiency_per_time = true;

  GreedyStats pass_stats;
  Allocation primary(problem.user_count(), problem.task_count());
  greedy_extend(problem, per_time, primary, stats ? &pass_stats : nullptr);
  GreedyStats total = pass_stats;
  if (!options_.half_approx_pass) {
    if (stats) *stats = total;
    return primary;
  }

  GreedyOptions value_only = per_time;
  value_only.efficiency_per_time = false;
  Allocation secondary(problem.user_count(), problem.task_count());
  greedy_extend(problem, value_only, secondary, stats ? &pass_stats : nullptr);
  if (stats) {
    total.selections += pass_stats.selections;
    total.gain_evaluations += pass_stats.gain_evaluations;
    total.heap_pops += pass_stats.heap_pops;
    *stats = total;
  }

  const double obj_primary =
      allocation_objective(problem, primary, options_.epsilon);
  const double obj_secondary =
      allocation_objective(problem, secondary, options_.epsilon);
  return obj_secondary > obj_primary ? secondary : primary;
}

}  // namespace eta2::alloc
