// Max-quality task allocation (paper §5.1).
//
// The optimization problem (Eq. 14) maximizes Σ_j p_j subject to per-user
// processing capacity; it is NP-hard (knapsack reduction), so Algorithm 1
// greedily picks the user-task pair with the highest efficiency
//   efficiency(i,j) = p_ij (1 − p_j) / t_j
// until no pair has positive efficiency. Because pure greedy can be
// arbitrarily bad when task times differ wildly, the allocator also runs the
// cost-blind variant (efficiency = p_ij (1 − p_j), capacity still enforced)
// and returns whichever of the two allocations scores higher — the classic
// 1/2-approximation for monotone submodular maximization under a knapsack
// constraint (§5.1.2, "extra step").
//
// The engine is a CELF-style lazy greedy (DESIGN.md §11) that exploits
// submodularity — every pick only shrinks every pair's marginal gain, so
// stale cached gains are upper bounds and a max-heap of them replaces the
// per-pick full scans. It picks exactly the sequence of the rescanning
// greedy, which lives on as the test oracle tests/alloc/rescan_greedy.h.
// The allocator builds the p_ij plane once and runs the two passes over it,
// on two lanes when the problem is large enough to pay for the dispatch.
#ifndef ETA2_ALLOC_MAX_QUALITY_H
#define ETA2_ALLOC_MAX_QUALITY_H

#include <cstddef>
#include <limits>

#include "alloc/allocation.h"

namespace eta2::alloc {

// Work counters for one greedy_extend call (reset on entry). The
// asymptotic win of CELF over the rescanning oracle shows up in
// `gain_evaluations` (tracked per allocator benchmark in BENCH_core.json).
struct GreedyStats {
  std::size_t selections = 0;        // pairs added
  std::size_t gain_evaluations = 0;  // efficiency(i, j) computations
  std::size_t heap_pops = 0;         // CELF heap pops
};

struct GreedyOptions {
  double epsilon = 0.1;  // paper's accuracy threshold ε
  // true: divide the value gain by t_j (Algorithm 1); false: the cost-blind
  // second pass of the ½-approximation.
  bool efficiency_per_time = true;
  // Budget for the cost of pairs added by this call (Algorithm 2's c°):
  // selection stops once the added cost reaches the cap.
  double cost_cap = std::numeric_limits<double>::infinity();
};

// Greedily extends `allocation` (which may already contain assignments from
// earlier iterations; those pairs are excluded and their p_j is accounted
// for). Returns the number of newly added pairs. When `stats` is non-null it
// receives this call's work counters.
std::size_t greedy_extend(const AllocationProblem& problem,
                          const GreedyOptions& options, Allocation& allocation,
                          GreedyStats* stats = nullptr);

// Below this many user × task cells MaxQualityAllocator::allocate runs its
// two passes one after the other on the calling thread. On a 4-core x86
// box two lanes start to win near 4000 cells (200 users × 20 tasks: 77 µs
// inline, 42 µs on two lanes); the floor sits at twice that, so small
// service batches never wake the pool.
inline constexpr std::size_t kTwoLaneMinCells = 8192;

class MaxQualityAllocator {
 public:
  struct Options {
    double epsilon = 0.1;
    // Enables the ½-approximation extra pass (paper always enables it).
    bool half_approx_pass = true;
  };

  MaxQualityAllocator() = default;
  explicit MaxQualityAllocator(Options options);

  [[nodiscard]] Allocation allocate(const AllocationProblem& problem) const;
  // As above, additionally summing both greedy passes' work counters into
  // `*stats` when non-null (the ½-approximation pass included). The
  // counters and the allocation are the same at every lane count.
  [[nodiscard]] Allocation allocate(const AllocationProblem& problem,
                                    GreedyStats* stats) const;

 private:
  Options options_{};
};

}  // namespace eta2::alloc

#endif  // ETA2_ALLOC_MAX_QUALITY_H
