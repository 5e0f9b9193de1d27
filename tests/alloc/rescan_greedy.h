// Reference greedy engine for max-quality allocation (paper Algorithm 1,
// DESIGN.md §11): the eager rescanning greedy that the library's CELF
// engine (alloc/max_quality.h) must reproduce pick for pick. Test-only
// oracle: the equivalence suites compile it, and bench/micro_core compiles
// the same source for its rescan-vs-CELF columns.
#ifndef ETA2_TESTS_ALLOC_RESCAN_GREEDY_H
#define ETA2_TESTS_ALLOC_RESCAN_GREEDY_H

#include <cstddef>

#include "alloc/allocation.h"
#include "alloc/max_quality.h"

namespace eta2::alloc {

// greedy_extend() by full rescans: after each pick, every user of every
// invalidated task is re-evaluated. Same selections and tie-breaks as
// greedy_extend(); `stats->gain_evaluations` counts every efficiency(i, j)
// the rescans compute, and `heap_pops` stays 0.
std::size_t rescan_greedy_extend(const AllocationProblem& problem,
                                 const GreedyOptions& options,
                                 Allocation& allocation,
                                 GreedyStats* stats = nullptr);

// MaxQualityAllocator::allocate() over rescan_greedy_extend(): the
// per-time pass, the cost-blind ½-approximation pass when enabled, and the
// higher-objective allocation of the two.
[[nodiscard]] Allocation rescan_allocate(
    const AllocationProblem& problem,
    const MaxQualityAllocator::Options& options);

}  // namespace eta2::alloc

#endif  // ETA2_TESTS_ALLOC_RESCAN_GREEDY_H
