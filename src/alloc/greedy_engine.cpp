#include "alloc/greedy_engine.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/check.h"
#include "common/error.h"
#include "common/parallel.h"
#include "stats/normal.h"

namespace eta2::alloc {

GreedyPlane::GreedyPlane(const AllocationProblem& problem, double epsilon)
    : problem_(problem),
      n_(problem.user_count()),
      k_(problem.class_count()) {
  require(epsilon > 0.0, "greedy allocation: epsilon must be > 0");
  const std::size_t m = problem.task_count();
  class_.resize(m);
  for (TaskId j = 0; j < m; ++j) class_[j] = problem.class_of(j);
  // Cells are independent, so the Φ build fans out over the parallel
  // runtime, each chunk through the batched kernel (validation hoisted per
  // chunk).
  p_.assign(n_ * k_, 0.0);
  const std::span<const double> expertise = problem.expertise.data();
  const std::span<double> p_span{p_};
  parallel::parallel_for_chunks(
      n_ * k_, 4096, [&](std::size_t begin, std::size_t end) {
        stats::accuracy_probability_batch(
            expertise.subspan(begin, end - begin), epsilon,
            p_span.subspan(begin, end - begin));
        for (std::size_t cell = begin; cell < end; ++cell) {
          // Algorithm 1's efficiency ordering assumes p_ij ∈ [0, 1].
          ETA2_ASSERT(p_[cell] >= 0.0 && p_[cell] <= 1.0);
        }
      });
  // One sort of n users costs tens of µs, so even K = 16 classes split
  // over the lanes.
  order_.resize(n_ * k_);
  parallel::parallel_for(k_, 2, [&](std::size_t k) {
    UserId* ord = order_.data() + k * n_;
    const double* pk = p_.data() + k;
    std::iota(ord, ord + n_, UserId{0});
    std::sort(ord, ord + n_, [&](UserId a, UserId b) {
      const double pa = pk[a * k_];
      const double pb = pk[b * k_];
      if (pa != pb) return pa > pb;
      return a < b;  // ties: ascending index, matching the rescan order
    });
  });
}

// CELF lazy selection (DESIGN.md §11). Submodularity makes every cached
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
// monotone. Cursors stay per task because feasibility (capacity vs t_j,
// prior assignment) is per task; they do not depend on the efficiency mode,
// so both heaps share them.
GreedyPass::GreedyPass(const GreedyPlane& plane, const Allocation& allocation)
    : plane_(plane), problem_(plane.problem()), n_(plane.user_count()) {
  const std::size_t m = plane.task_count();
  remaining_.resize(n_);
  for (UserId i = 0; i < n_; ++i) {
    remaining_[i] = problem_.user_capacity[i] - allocation.used_time(i);
  }
  miss_.assign(m, 1.0);
  assigned_.assign(m * n_, 0);
  for (TaskId j = 0; j < m; ++j) {
    for (const UserId i : allocation.users_of(j)) {
      miss_[j] *= 1.0 - plane.p(i, j);
      assigned_[j * n_ + i] = 1;
    }
  }
  retired_.assign(m, 0);
  cursor_.assign(m, 0);
  heaps_[0].per_time = true;
  heaps_[1].per_time = false;
}

std::size_t GreedyPass::extend(bool per_time, double cost_cap,
                               Allocation& allocation) {
  Heap& heap = heaps_[per_time ? 0 : 1];
  if (!heap.seeded) seed(heap);
  std::size_t added = 0;
  double spent = 0.0;
  while (spent < cost_cap) {
    UserId i = 0;
    TaskId j = 0;
    if (!next(heap, i, j)) break;  // max efficiency hit zero
    select(i, j, allocation);
    spent += problem_.cost_of(j);
    ++added;
  }
  return added;
}

void GreedyPass::retire(TaskId j) {
  retired_[j] = 1;
  // Every live entry of j now mismatches its bound and is discarded on pop.
  for (Heap& heap : heaps_) {
    if (heap.seeded) heap.bound[j] = 0.0;
  }
}

void GreedyPass::resync_capacity(const Allocation& allocation) {
  bool widened = false;
  for (UserId i = 0; i < n_; ++i) {
    const double fresh = problem_.user_capacity[i] - allocation.used_time(i);
    // The two roundings of the same sum can differ in the last bits. Less
    // capacity only shrinks gains; more capacity can make a pair the
    // cursors already skipped feasible again, which no stale bound covers.
    if (fresh > remaining_[i] && widens_feasibility(remaining_[i], fresh)) {
      widened = true;
    }
    remaining_[i] = fresh;
  }
  ++version_;  // every cached "fresh" bound predates the new capacities
  if (widened) restart();
}

double GreedyPass::objective() const {
  double total = 0.0;
  for (const double miss : miss_) total += 1.0 - miss;
  return total;
}

// Evaluates every task's exact bound under the current state and heapifies,
// as a freshly built engine does.
void GreedyPass::seed(Heap& heap) {
  const std::size_t m = plane_.task_count();
  heap.seeded = true;
  heap.bound.assign(m, 0.0);
  heap.stamp.assign(m, version_);
  heap.candidate.assign(m, n_);
  heap.entries.clear();
  heap.entries.reserve(2 * m);
  for (TaskId j = 0; j < m; ++j) {
    if (retired_[j] == 0) heap.bound[j] = refresh_gain(heap, j);
    heap.entries.push_back(Entry{heap.bound[j], j});
  }
  std::make_heap(heap.entries.begin(), heap.entries.end(), EntryOrder{});
}

// Rewinds every live cursor and re-seeds the built heaps: the state of a
// freshly built engine over the current allocation.
void GreedyPass::restart() {
  for (TaskId j = 0; j < cursor_.size(); ++j) {
    if (retired_[j] == 0) cursor_[j] = 0;
  }
  for (Heap& heap : heaps_) {
    if (heap.seeded) seed(heap);
  }
}

// True when some task time t satisfies from < t ≤ to: some user whose
// capacity rises from `from` to `to` gains a feasible task.
bool GreedyPass::widens_feasibility(double from, double to) {
  if (sorted_times_.empty()) {
    sorted_times_ = problem_.task_time;
    std::sort(sorted_times_.begin(), sorted_times_.end());
  }
  const auto it =
      std::upper_bound(sorted_times_.begin(), sorted_times_.end(), from);
  return it != sorted_times_.end() && *it <= to;
}

// Pops stale upper bounds until the maximum is fresh. An entry whose bound
// differs from the task's current bound is an outdated duplicate (bounds
// only decrease and every decrease pushes a new entry) and is discarded.
// Terminates when the top bound — an upper bound on every efficiency — is
// not positive, exactly when the rescanning engine's max hits zero.
//
// A popped entry that is refreshed or selected goes straight back into the
// heap, so both stay at the top instead: a refresh lowers the top's bound
// and sifts it down, and a selection leaves it where it is (select() keeps
// j's bound unchanged). The heap holds the same entries as with a pop and a
// push, and entries that compare equal are identical, so every later pop —
// and `heap_pops`, which counts each inspection of the top as one pop — is
// unchanged.
bool GreedyPass::next(Heap& heap, UserId& user, TaskId& task) {
  std::vector<Entry>& entries = heap.entries;
  while (!entries.empty()) {
    ++stats_.heap_pops;
    const Entry top = entries.front();
    const TaskId j = top.task;
    if (top.bound != heap.bound[j] || !(top.bound > 0.0)) {
      std::pop_heap(entries.begin(), entries.end(), EntryOrder{});
      entries.pop_back();
      if (top.bound != heap.bound[j]) continue;  // superseded duplicate
      return false;
    }
    if (heap.stamp[j] == version_) {
      // Fresh under the current state: j's true gain ties or beats every
      // other task's upper bound, and the heap order (bound desc, task
      // asc) plus the refresh loop reproduce the rescan tie-break — a
      // stale equal-bound lower-index task pops first, refreshes, and
      // wins the re-pop on a true tie.
      user = heap.candidate[j];
      task = j;
      return true;
    }
    heap.bound[j] = refresh_gain(heap, j);
    heap.stamp[j] = version_;
    sift_down_top(entries, Entry{heap.bound[j], j});
  }
  return false;
}

// Replaces the top entry with `entry`, which orders no higher, and restores
// the heap property. A refresh usually either keeps the bound (the entry
// stays on top) or drops it far below the top, so the hole walks down to a
// leaf along the larger child — one comparison per level — and the entry
// sifts up from there, the bottom-up scheme std::pop_heap uses.
void GreedyPass::sift_down_top(std::vector<Entry>& entries, Entry entry) {
  const EntryOrder less{};
  const std::size_t size = entries.size();
  std::size_t child = size > 2 && less(entries[1], entries[2]) ? 2 : 1;
  if (child >= size || !less(entry, entries[child])) {
    entries[0] = entry;
    return;
  }
  std::size_t hole = 0;
  while (true) {
    entries[hole] = entries[child];
    hole = child;
    child = 2 * hole + 1;
    if (child >= size) break;
    if (child + 1 < size && less(entries[child], entries[child + 1])) ++child;
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!less(entries[parent], entry)) break;
    entries[hole] = entries[parent];
    hole = parent;
  }
  entries[hole] = entry;
}

// Applies the pair next() returned. j's entry is still at the top of the
// heap with its stale bound, which stays a valid upper bound (gains only
// decrease) — deliberately NOT scaled by (1 − p): rounding of the scaled
// product could land below j's true next gain and break exactness. Costs at
// most one extra O(1) refresh if j surfaces again. The other heap, if built,
// holds its own entry for j.
void GreedyPass::select(UserId i, TaskId j, Allocation& allocation) {
  char& flag = assigned_[j * n_ + i];
  require(flag == 0, "greedy allocation: duplicate pair");
  flag = 1;
  allocation.append(i, j, problem_.task_time[j], problem_.cost_of(j));
  remaining_[i] -= problem_.task_time[j];
  // Capacity feasibility: an infeasible pair never has positive
  // efficiency, so a selected pair can never overdraw the time budget.
  ETA2_ASSERT(remaining_[i] >= 0.0);
  miss_[j] *= 1.0 - plane_.p(i, j);
  ETA2_ASSERT(miss_[j] >= 0.0 && miss_[j] <= 1.0);
  ++stats_.selections;
  ++version_;
}

// Recomputes task j's exact best efficiency under the current state and
// records the winning user in the heap's candidate slot. The cursor's first
// feasible user maximizes p_ij, hence efficiency; the forward walk then
// resolves the rescan engine's first-strict-maximum tie-break exactly — a
// user with (one-ulp) smaller p_ij can round to the same efficiency, and the
// rescan scan keeps the lowest index among such ties. Multiplication and
// division by a positive constant are monotone under rounding, so the walk
// stops at the first strictly smaller efficiency.
double GreedyPass::refresh_gain(Heap& heap, TaskId j) {
  const double task_time = problem_.task_time[j];
  const UserId* ord = plane_.order(j);
  std::size_t& cur = cursor_[j];
  while (cur < n_ && !feasible(ord[cur], j)) ++cur;
  if (cur == n_) {
    heap.candidate[j] = n_;
    return 0.0;
  }
  const double best = efficiency_of(heap, ord[cur], j, task_time);
  if (!(best > 0.0)) {
    heap.candidate[j] = n_;
    return 0.0;
  }
  UserId pick = ord[cur];
  for (std::size_t k = cur + 1; k < n_; ++k) {
    const double e = efficiency_of(heap, ord[k], j, task_time);
    if (e < best) break;  // p descending ⇒ no later entry can tie
    if (feasible(ord[k], j) && ord[k] < pick) pick = ord[k];
  }
  heap.candidate[j] = pick;
  return best;
}

}  // namespace eta2::alloc
