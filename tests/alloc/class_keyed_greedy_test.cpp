// Class-keyed allocation plane tests (DESIGN.md §11): a problem whose
// expertise columns are task classes (domains) must allocate exactly like
// the same problem expanded to one column per task — same pairs, same
// global selection order, same work counters — because p_ij depends on the
// task only through its class and the candidate sort key (p desc, index
// asc) is unchanged. The golden transcripts pin the per-task allocations
// bit-for-bit, so any divergence here is a transcript break.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "alloc/max_quality.h"
#include "alloc/min_cost.h"
#include "common/rng.h"
#include "rescan_greedy.h"

namespace eta2::alloc {
namespace {

using Pair = std::pair<UserId, TaskId>;

// n x K plane, random task → class map. `levels` > 0 quantizes expertise to
// that many values so many users tie on p within a class.
AllocationProblem keyed_problem(std::uint64_t seed, std::size_t users,
                                std::size_t tasks, std::size_t classes,
                                int levels = 0) {
  Rng rng(seed * 104729 + 7);
  AllocationProblem p;
  p.expertise.assign(users, classes, 0.0);
  for (double& u : p.expertise.data()) {
    u = levels > 0 ? 0.5 * static_cast<double>(rng.uniform_int(0, levels - 1))
                   : rng.uniform(0.0, 4.0);
  }
  p.task_time.resize(tasks);
  for (double& t : p.task_time) t = rng.uniform(0.5, 2.5);
  p.user_capacity.resize(users);
  for (double& c : p.user_capacity) c = rng.uniform(2.0, 8.0);
  p.task_class.resize(tasks);
  for (std::size_t& k : p.task_class) {
    k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(classes) - 1));
  }
  return p;
}

// The same problem with one expertise column per task (empty task_class).
AllocationProblem expand(const AllocationProblem& keyed) {
  AllocationProblem p = keyed;
  p.task_class.clear();
  p.expertise.assign(keyed.user_count(), keyed.task_count(), 0.0);
  for (UserId i = 0; i < keyed.user_count(); ++i) {
    for (TaskId j = 0; j < keyed.task_count(); ++j) {
      p.expertise(i, j) = keyed.expertise(i, keyed.class_of(j));
    }
  }
  return p;
}

// greedy_extend (the CELF engine) or rescan_greedy_extend (the oracle).
using ExtendFn = std::size_t (*)(const AllocationProblem&,
                                 const GreedyOptions&, Allocation&,
                                 GreedyStats*);
constexpr ExtendFn kEngines[] = {greedy_extend, rescan_greedy_extend};

// The global selection order: with unit costs and cost_cap = 1 every
// greedy_extend call adds exactly one pair to the running allocation (the
// min-cost calling pattern), so the sequence is read off one call at a time.
std::vector<Pair> selection_sequence(const AllocationProblem& p,
                                     GreedyOptions options,
                                     Allocation allocation, ExtendFn extend) {
  options.cost_cap = 1.0;
  std::vector<Pair> sequence;
  for (;;) {
    std::vector<std::size_t> before(p.task_count());
    for (TaskId j = 0; j < p.task_count(); ++j) {
      before[j] = allocation.users_of(j).size();
    }
    if (extend(p, options, allocation, nullptr) == 0) break;
    for (TaskId j = 0; j < p.task_count(); ++j) {
      if (allocation.users_of(j).size() != before[j]) {
        sequence.emplace_back(allocation.users_of(j).back(), j);
      }
    }
  }
  return sequence;
}

void expect_identical(const Allocation& a, const Allocation& b) {
  ASSERT_EQ(a.task_count(), b.task_count());
  EXPECT_EQ(a.pair_count(), b.pair_count());
  EXPECT_EQ(a.total_cost(), b.total_cost());
  for (TaskId j = 0; j < a.task_count(); ++j) {
    const auto ua = a.users_of(j);
    const auto ub = b.users_of(j);
    ASSERT_EQ(ua.size(), ub.size()) << "task " << j;
    for (std::size_t x = 0; x < ua.size(); ++x) {
      EXPECT_EQ(ua[x], ub[x]) << "task " << j << " slot " << x;
    }
  }
}

// Pair sequence and one-shot allocation + counters, keyed vs expanded,
// under the CELF engine and the rescan oracle: all four runs pick the same
// sequence, and each engine's counters agree across the two layouts.
void expect_same_selections(const AllocationProblem& keyed,
                            const GreedyOptions& options,
                            const Allocation& seeded) {
  const AllocationProblem expanded = expand(keyed);
  const std::vector<Pair> reference =
      selection_sequence(keyed, options, seeded, greedy_extend);
  EXPECT_FALSE(reference.empty());
  Allocation celf = seeded;
  greedy_extend(keyed, options, celf);
  for (const ExtendFn extend : kEngines) {
    EXPECT_EQ(reference, selection_sequence(keyed, options, seeded, extend));
    EXPECT_EQ(reference,
              selection_sequence(expanded, options, seeded, extend));
    Allocation a = seeded;
    Allocation b = seeded;
    GreedyStats keyed_stats;
    GreedyStats expanded_stats;
    EXPECT_EQ(extend(keyed, options, a, &keyed_stats),
              extend(expanded, options, b, &expanded_stats));
    expect_identical(a, b);
    expect_identical(celf, a);
    EXPECT_EQ(keyed_stats.selections, expanded_stats.selections);
    EXPECT_EQ(keyed_stats.gain_evaluations, expanded_stats.gain_evaluations);
    EXPECT_EQ(keyed_stats.heap_pops, expanded_stats.heap_pops);
    EXPECT_EQ(allocation_objective(keyed, a, options.epsilon),
              allocation_objective(expanded, b, options.epsilon));
  }
}

TEST(ClassKeyedGreedyTest, MatchesPerTaskColumnsUnderBothEngines) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const AllocationProblem keyed = keyed_problem(seed, 9, 20, 4);
    for (const bool per_time : {true, false}) {
      GreedyOptions options;
      options.efficiency_per_time = per_time;
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << " per_time " << per_time);
      expect_same_selections(
          keyed, options, Allocation(keyed.user_count(), keyed.task_count()));
    }
  }
}

TEST(ClassKeyedGreedyTest, RespectsCostCapLikePerTaskColumns) {
  AllocationProblem keyed = keyed_problem(11, 7, 16, 3);
  Rng rng(5);
  keyed.task_cost.resize(keyed.task_count());
  for (double& c : keyed.task_cost) c = rng.uniform(0.5, 2.0);
  const AllocationProblem expanded = expand(keyed);
  GreedyOptions options;
  options.cost_cap = 6.0;
  Allocation celf(keyed.user_count(), keyed.task_count());
  greedy_extend(keyed, options, celf);
  for (const ExtendFn extend : kEngines) {
    Allocation a(keyed.user_count(), keyed.task_count());
    Allocation b(keyed.user_count(), keyed.task_count());
    const std::size_t added = extend(keyed, options, a, nullptr);
    EXPECT_EQ(added, extend(expanded, options, b, nullptr));
    EXPECT_GT(added, 0u);
    EXPECT_LT(added, 16u);  // the cap binds mid-stream
    expect_identical(a, b);
    expect_identical(celf, a);
  }
}

TEST(ClassKeyedGreedyTest, ExtendsPreSeededAllocationLikeMinCost) {
  const AllocationProblem keyed = keyed_problem(13, 8, 15, 4);
  Allocation seeded(keyed.user_count(), keyed.task_count());
  seeded.assign(0, 0, keyed.task_time[0], keyed.cost_of(0));
  seeded.assign(2, 3, keyed.task_time[3], keyed.cost_of(3));
  seeded.assign(5, 3, keyed.task_time[3], keyed.cost_of(3));
  expect_same_selections(keyed, GreedyOptions{}, seeded);
}

TEST(ClassKeyedGreedyTest, TiedExpertiseAcrossUsers) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    // Four expertise levels over 10 users: every class has ties, so the
    // lowest-index tie-break decides most picks.
    const AllocationProblem keyed = keyed_problem(seed, 10, 18, 3, 4);
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    expect_same_selections(
        keyed, GreedyOptions{},
        Allocation(keyed.user_count(), keyed.task_count()));
  }
}

TEST(ClassKeyedGreedyTest, SingleClassAndOneClassPerTask) {
  const std::size_t tasks = 12;
  AllocationProblem single = keyed_problem(17, 8, tasks, 1);
  // K = m with a permuted map: every task its own class, but column order
  // differs from task order.
  AllocationProblem per_task = keyed_problem(19, 8, tasks, tasks);
  for (TaskId j = 0; j < tasks; ++j) per_task.task_class[j] = (j * 5) % tasks;
  for (const AllocationProblem* keyed : {&single, &per_task}) {
    expect_same_selections(
        *keyed, GreedyOptions{},
        Allocation(keyed->user_count(), keyed->task_count()));
  }
}

TEST(ClassKeyedGreedyTest, MaxQualityAllocatorMatchesPerTaskColumns) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const AllocationProblem keyed = keyed_problem(seed, 12, 30, 5);
    const AllocationProblem expanded = expand(keyed);
    for (const bool half : {true, false}) {
      MaxQualityAllocator::Options options;
      options.half_approx_pass = half;
      GreedyStats keyed_stats;
      GreedyStats expanded_stats;
      const MaxQualityAllocator allocator(options);
      expect_identical(allocator.allocate(keyed, &keyed_stats),
                       allocator.allocate(expanded, &expanded_stats));
      EXPECT_EQ(keyed_stats.selections, expanded_stats.selections);
      EXPECT_EQ(keyed_stats.gain_evaluations, expanded_stats.gain_evaluations);
      expect_identical(allocator.allocate(keyed),
                       rescan_allocate(keyed, options));
    }
  }
}

TEST(ClassKeyedGreedyTest, MinCostMatchesPerTaskColumns) {
  // Passing tasks move to min-cost's appended all-zero class; the run must
  // still recruit exactly like the per-task plane with zeroed columns.
  const std::size_t domains = 3;
  AllocationProblem keyed = keyed_problem(23, 20, 12, domains);
  keyed.task_time.assign(keyed.task_count(), 1.0);
  keyed.user_capacity.assign(keyed.user_count(), 6.0);
  const std::vector<truth::DomainIndex> task_domain(keyed.task_class.begin(),
                                                    keyed.task_class.end());
  const MinCostAllocator::CollectFn collect =
      [](TaskId j, UserId i) -> std::optional<double> {
    return static_cast<double>(j) +
           0.1 * static_cast<double>((i * 7 + j * 3) % 5);
  };
  MinCostAllocator::Options options;
  options.cost_per_iteration = 10.0;
  const MinCostAllocator allocator(options);
  const truth::Eta2Mle mle;
  const auto a = allocator.run(keyed, task_domain, domains, {}, mle, collect);
  const auto b =
      allocator.run(expand(keyed), task_domain, domains, {}, mle, collect);
  expect_identical(a.allocation, b.allocation);
  EXPECT_EQ(a.data_iterations, b.data_iterations);
  EXPECT_GT(a.data_iterations, 1);
  EXPECT_EQ(a.truth.mu, b.truth.mu);
}

TEST(ClassKeyedGreedyTest, ValidateRejectsBadClassVectors) {
  AllocationProblem p = keyed_problem(3, 4, 6, 2);
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(p.class_count(), 2u);

  AllocationProblem short_map = p;
  short_map.task_class.pop_back();
  EXPECT_THROW(short_map.validate(), std::invalid_argument);

  AllocationProblem out_of_range = p;
  out_of_range.task_class[4] = 2;
  EXPECT_THROW(out_of_range.validate(), std::invalid_argument);
  Allocation a(p.user_count(), p.task_count());
  EXPECT_THROW(greedy_extend(out_of_range, GreedyOptions{}, a),
               std::invalid_argument);

  // Without a class map the plane must have one column per task.
  AllocationProblem unmapped = p;
  unmapped.task_class.clear();
  EXPECT_EQ(unmapped.class_count(), p.task_count());
  EXPECT_THROW(unmapped.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace eta2::alloc
