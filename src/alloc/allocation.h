// Task-allocation problem description and solution representation shared by
// every allocator (paper §5).
#ifndef ETA2_ALLOC_ALLOCATION_H
#define ETA2_ALLOC_ALLOCATION_H

#include <cstddef>
#include <span>
#include <vector>

#include "common/matrix.h"

namespace eta2::alloc {

using UserId = std::size_t;
using TaskId = std::size_t;

// One allocation round's inputs.
//
// The expertise plane is keyed by task class: `expertise(i, class_of(j))` is
// u_ij, user i's (estimated) expertise in task j's domain. Eq. 11 makes p_ij
// a function of (user, domain) only, so tasks sharing a domain share one
// column and the allocators evaluate Φ and sort candidates once per class
// (DESIGN.md §11). An empty `task_class` makes every task its own class
// (n x m, one column per task). The matrix is a single contiguous
// row-major buffer (the step data plane).
struct AllocationProblem {
  Matrix expertise;                            // n x K, u >= 0
  std::vector<double> task_time;               // t_j > 0, per task
  std::vector<double> user_capacity;           // T_i >= 0, per user
  std::vector<double> task_cost;               // c_j >= 0; empty => all 1.0
  std::vector<std::size_t> task_class;         // per task, < K; empty => j

  [[nodiscard]] std::size_t user_count() const { return expertise.rows(); }
  [[nodiscard]] std::size_t task_count() const { return task_time.size(); }
  [[nodiscard]] std::size_t class_count() const {
    return task_class.empty() ? task_count() : expertise.cols();
  }
  [[nodiscard]] std::size_t class_of(TaskId j) const {
    return task_class.empty() ? j : task_class[j];
  }
  [[nodiscard]] double cost_of(TaskId j) const {
    return task_cost.empty() ? 1.0 : task_cost[j];
  }
  // Throws std::invalid_argument when shapes/values are inconsistent.
  void validate() const;
};

// s_ij as adjacency lists: for each task, the users it was allocated to.
class Allocation {
 public:
  Allocation() = default;
  Allocation(std::size_t user_count, std::size_t task_count);

  [[nodiscard]] std::size_t user_count() const { return used_time_.size(); }
  [[nodiscard]] std::size_t task_count() const { return task_users_.size(); }

  // Adds the pair (user, task); enforces no duplicates. `time` and `cost`
  // update the per-user load and total cost books.
  void assign(UserId user, TaskId task, double time, double cost);

  [[nodiscard]] bool is_assigned(UserId user, TaskId task) const;
  [[nodiscard]] std::span<const UserId> users_of(TaskId task) const;
  [[nodiscard]] double used_time(UserId user) const;
  [[nodiscard]] double total_cost() const { return total_cost_; }
  [[nodiscard]] std::size_t pair_count() const { return pair_count_; }

 private:
  std::vector<std::vector<UserId>> task_users_;
  std::vector<double> used_time_;
  double total_cost_ = 0.0;
  std::size_t pair_count_ = 0;
};

// Paper Eq. 12 objective: Σ_j [1 − Π_{i in S_j} (1 − p_ij)] with
// p_ij = Φ(ε u_ij) − Φ(−ε u_ij).
[[nodiscard]] double allocation_objective(const AllocationProblem& problem,
                                          const Allocation& allocation,
                                          double epsilon);

// Per-task success probability p_j = 1 − Π (1 − p_ij) for one task.
[[nodiscard]] double task_success_probability(const AllocationProblem& problem,
                                              const Allocation& allocation,
                                              TaskId task, double epsilon);

// True when every user's assigned time fits its capacity (strict, Eq. 13).
[[nodiscard]] bool respects_capacity(const AllocationProblem& problem,
                                     const Allocation& allocation);

}  // namespace eta2::alloc

#endif  // ETA2_ALLOC_ALLOCATION_H
