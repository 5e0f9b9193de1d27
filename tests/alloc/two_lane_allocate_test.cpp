// Build once, select twice (DESIGN.md §11): MaxQualityAllocator builds one
// p_ij plane and runs Algorithm 1 and the cost-blind ½-approximation pass
// over it, on two lanes above kTwoLaneMinCells and one after the other
// below. Each pass is serial, so the allocation and the summed work counters
// must not depend on the lane count, and each pass's Eq. 12 objective —
// read off its own miss products — must be bitwise the value
// allocation_objective() recomputes from the pairs.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "alloc/greedy_engine.h"
#include "alloc/max_quality.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "rescan_greedy.h"

namespace eta2::alloc {
namespace {

// n x K plane with a random task → class map; `classes` == 0 keeps one
// column per task.
AllocationProblem random_problem(std::uint64_t seed, std::size_t users,
                                 std::size_t tasks, std::size_t classes) {
  Rng rng(seed * 6151 + 11);
  AllocationProblem p;
  p.expertise.assign(users, classes == 0 ? tasks : classes, 0.0);
  for (double& u : p.expertise.data()) u = rng.uniform(0.0, 4.0);
  p.task_time.resize(tasks);
  for (double& t : p.task_time) t = rng.uniform(0.5, 2.5);
  p.user_capacity.resize(users);
  for (double& c : p.user_capacity) c = rng.uniform(2.0, 8.0);
  if (classes > 0) {
    p.task_class.resize(tasks);
    for (std::size_t& k : p.task_class) {
      k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(classes) - 1));
    }
  }
  return p;
}

void expect_identical(const Allocation& a, const Allocation& b) {
  ASSERT_EQ(a.task_count(), b.task_count());
  ASSERT_EQ(a.user_count(), b.user_count());
  EXPECT_EQ(a.pair_count(), b.pair_count());
  EXPECT_EQ(a.total_cost(), b.total_cost());
  for (TaskId j = 0; j < a.task_count(); ++j) {
    const auto x = a.users_of(j);
    const auto y = b.users_of(j);
    ASSERT_EQ(std::vector<UserId>(x.begin(), x.end()),
              std::vector<UserId>(y.begin(), y.end()))
        << "task " << j;
  }
  for (UserId i = 0; i < a.user_count(); ++i) {
    EXPECT_EQ(a.used_time(i), b.used_time(i)) << "user " << i;
  }
}

void expect_same_stats(const GreedyStats& a, const GreedyStats& b) {
  EXPECT_EQ(a.selections, b.selections);
  EXPECT_EQ(a.gain_evaluations, b.gain_evaluations);
  EXPECT_EQ(a.heap_pops, b.heap_pops);
}

struct Shape {
  std::size_t users;
  std::size_t tasks;
  std::size_t classes;
};

TEST(TwoLaneAllocateTest, IdenticalAtEveryLaneCountAboveAndBelowThreshold) {
  const std::vector<Shape> shapes = {
      {20, 30, 4},     // 600 cells: inline, one pass after the other
      {200, 20, 16},   // 4000 cells, a service batch: inline
      {200, 120, 8},   // 24000 cells: two lanes
      {160, 110, 0},   // 17600 cells, one class per task: two lanes
  };
  std::size_t inline_shapes = 0;
  for (const Shape& s : shapes) {
    if (s.users * s.tasks < kTwoLaneMinCells) ++inline_shapes;
  }
  ASSERT_GT(inline_shapes, 0u);
  ASSERT_LT(inline_shapes, shapes.size());
  for (const Shape& s : shapes) {
    const AllocationProblem p = random_problem(s.users + s.tasks, s.users,
                                               s.tasks, s.classes);
    const bool two_lanes = s.users * s.tasks >= kTwoLaneMinCells;
    SCOPED_TRACE(testing::Message() << s.users << "x" << s.tasks
                                    << (two_lanes ? " two lanes" : " inline"));
    // The counters are those of the two greedy_extend passes, summed.
    GreedyOptions per_time;
    GreedyOptions value_only;
    value_only.efficiency_per_time = false;
    GreedyStats first;
    GreedyStats second;
    Allocation a(p.user_count(), p.task_count());
    Allocation b(p.user_count(), p.task_count());
    greedy_extend(p, per_time, a, &first);
    greedy_extend(p, value_only, b, &second);
    GreedyStats summed = first;
    summed.selections += second.selections;
    summed.gain_evaluations += second.gain_evaluations;
    summed.heap_pops += second.heap_pops;

    const Allocation oracle = rescan_allocate(p, {});
    for (const std::size_t threads : {1u, 2u, 8u}) {
      parallel::set_thread_count(threads);
      GreedyStats stats;
      const Allocation got = MaxQualityAllocator().allocate(p, &stats);
      expect_identical(got, oracle);
      expect_same_stats(stats, summed);
    }
    parallel::set_thread_count(0);
  }
}

TEST(TwoLaneAllocateTest, SinglePassIgnoresTheSecondLane) {
  const AllocationProblem p = random_problem(3, 200, 120, 8);
  MaxQualityAllocator::Options options;
  options.half_approx_pass = false;
  GreedyStats expected;
  Allocation reference(p.user_count(), p.task_count());
  greedy_extend(p, {}, reference, &expected);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::set_thread_count(threads);
    GreedyStats stats;
    expect_identical(MaxQualityAllocator(options).allocate(p, &stats),
                     reference);
    expect_same_stats(stats, expected);
  }
  parallel::set_thread_count(0);
}

TEST(TwoLaneAllocateTest, PassObjectiveIsBitwiseAllocationObjective) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::size_t classes = seed % 3 == 0 ? 0 : seed % 5 + 1;
    const AllocationProblem p = random_problem(seed, 15 + seed, 25, classes);
    const double epsilon = 0.05 * static_cast<double>(seed % 4 + 1);
    const GreedyPlane plane(p, epsilon);
    for (const bool per_time : {true, false}) {
      Allocation allocation(p.user_count(), p.task_count());
      GreedyPass pass(plane, allocation);
      pass.extend(per_time, std::numeric_limits<double>::infinity(),
                  allocation);
      ASSERT_GT(allocation.pair_count(), 0u);
      EXPECT_EQ(pass.objective(),
                allocation_objective(p, allocation, epsilon))
          << "seed " << seed << " per_time " << per_time;
    }
  }
}

TEST(TwoLaneAllocateTest, AllocationAppendSkipsNoBookkeeping) {
  Allocation checked(3, 2);
  Allocation unchecked(3, 2);
  checked.assign(2, 1, 0.5, 2.0);
  checked.assign(0, 1, 1.5, 1.0);
  unchecked.append(2, 1, 0.5, 2.0);
  unchecked.append(0, 1, 1.5, 1.0);
  expect_identical(checked, unchecked);
  // The public entry point keeps its duplicate check.
  EXPECT_THROW(checked.assign(2, 1, 0.5, 2.0), std::invalid_argument);
}

}  // namespace
}  // namespace eta2::alloc
