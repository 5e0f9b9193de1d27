// The CELF lazy-greedy engine behind Algorithm 1 (DESIGN.md §11), split in
// two halves so callers can build once and select many times:
//
//   GreedyPlane  immutable, built once per allocation: the task → class map,
//                p_ij over users × classes (Eq. 11) and one candidate order
//                per class. p_ij does not depend on t_j, so both passes of
//                the ½-approximation and every round of Algorithm 2 share
//                one plane.
//   GreedyPass   the mutable selection state of one pass: remaining
//                capacity, per-task miss probability, assigned flags,
//                feasibility cursors, the CELF heaps and the pass's own work
//                counters. Passes over one plane never write to it, so two
//                passes can run on two lanes.
//
// Library-internal: MaxQualityAllocator, greedy_extend and MinCostAllocator
// are the public entry points.
#ifndef ETA2_ALLOC_GREEDY_ENGINE_H
#define ETA2_ALLOC_GREEDY_ENGINE_H

#include <array>
#include <cstddef>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/max_quality.h"

namespace eta2::alloc {

class GreedyPlane {
 public:
  // Evaluates Φ over the n × K cells and sorts the K candidate orders, both
  // through the parallel runtime. `problem` must outlive the plane.
  GreedyPlane(const AllocationProblem& problem, double epsilon);

  [[nodiscard]] const AllocationProblem& problem() const { return problem_; }
  [[nodiscard]] std::size_t user_count() const { return n_; }
  [[nodiscard]] std::size_t task_count() const { return class_.size(); }

  // p_ij = p_[i·K + class(j)]: Eq. 11 depends on the task only through its
  // domain, so Φ runs n·K times instead of n·m.
  [[nodiscard]] double p(UserId i, TaskId j) const {
    return p_[i * k_ + class_[j]];
  }
  // Task j's class order: all users, (p desc, index asc).
  [[nodiscard]] const UserId* order(TaskId j) const {
    return order_.data() + class_[j] * n_;
  }

 private:
  const AllocationProblem& problem_;
  std::size_t n_;
  std::size_t k_;                   // class count (row stride of p_)
  std::vector<std::size_t> class_;  // task -> class
  std::vector<double> p_;           // row-major n × K accuracy probabilities
  std::vector<UserId> order_;       // per-class users, (p desc, index asc)
};

class GreedyPass {
 public:
  // Seeds the state from `allocation`: its pairs are excluded and their p_j
  // is accounted for. `plane` must outlive the pass.
  GreedyPass(const GreedyPlane& plane, const Allocation& allocation);

  // Greedily extends `allocation` — the one the pass was seeded from, changed
  // since only through this pass — until the best efficiency is zero or the
  // cost added by this call reaches `cost_cap`. `per_time` selects Algorithm
  // 1's efficiency p_ij (1 − p_j) / t_j; false is the cost-blind variant.
  // Each mode keeps its own CELF heap over the shared state, built on first
  // use; its stale bounds stay valid upper bounds across calls, because
  // every selection in either mode only shrinks every gain. Returns the
  // number of pairs added.
  std::size_t extend(bool per_time, double cost_cap, Allocation& allocation);

  // Excludes task j from all later selections (Algorithm 2's passed tasks):
  // its bound drops to 0 in every heap, which a fresh engine would compute
  // for a task whose p_ij are all 0.
  void retire(TaskId j);

  // Re-derives remaining capacity as T_i − used_time(i) from the
  // allocation's books, the value a freshly built engine starts from; within
  // a call capacity is decremented per selection. Algorithm 2 calls it at the
  // start of each data round so a persistent pass selects exactly what a
  // per-round rebuild selects.
  void resync_capacity(const Allocation& allocation);

  // Eq. 12 objective Σ_j (1 − miss_j) of the allocation the pass built: the
  // same products in the same order as allocation_objective().
  [[nodiscard]] double objective() const;
  [[nodiscard]] const GreedyStats& stats() const { return stats_; }

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
  // One CELF max-heap of per-task upper bounds under one efficiency mode.
  struct Heap {
    bool per_time = true;
    bool seeded = false;
    std::vector<double> bound;         // current upper bound per task
    std::vector<std::size_t> stamp;    // version bound[j] was evaluated under
    std::vector<UserId> candidate;     // argmax user of the last refresh
    std::vector<Entry> entries;
  };

  void seed(Heap& heap);
  void restart();
  [[nodiscard]] bool next(Heap& heap, UserId& user, TaskId& task);
  void select(UserId i, TaskId j, Allocation& allocation);
  static void sift_down_top(std::vector<Entry>& entries, Entry entry);
  [[nodiscard]] double refresh_gain(Heap& heap, TaskId j);
  [[nodiscard]] bool widens_feasibility(double from, double to);

  [[nodiscard]] double efficiency_of(const Heap& heap, UserId i, TaskId j,
                                     double task_time) {
    ++stats_.gain_evaluations;
    const double gain = plane_.p(i, j) * miss_[j];
    return heap.per_time ? gain / task_time : gain;
  }
  [[nodiscard]] bool feasible(UserId i, TaskId j) const {
    return remaining_[i] >= problem_.task_time[j] && assigned_[j * n_ + i] == 0;
  }

  const GreedyPlane& plane_;
  const AllocationProblem& problem_;
  std::size_t n_;
  std::vector<double> remaining_;
  std::vector<double> miss_;
  // Task-major m × n assigned flags: the feasibility test reads one byte
  // instead of scanning the task's assignee list.
  std::vector<char> assigned_;
  std::vector<char> retired_;
  std::vector<std::size_t> cursor_;  // first possibly-feasible order entry
  std::array<Heap, 2> heaps_;        // [0] per time, [1] cost-blind
  std::vector<double> sorted_times_;  // task times ascending, on demand
  std::size_t version_ = 0;  // incremented per state change
  GreedyStats stats_;
};

}  // namespace eta2::alloc

#endif  // ETA2_ALLOC_GREEDY_ENGINE_H
