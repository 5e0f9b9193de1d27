// Persistent min-cost engine (DESIGN.md §11): MinCostAllocator::run keeps one
// CELF engine alive across Algorithm 2's data rounds — passed tasks retired
// in place, the value-only fallback as a second heap over the same state,
// capacity re-derived from the allocation's books each round. These tests
// replay Algorithm 2 with the engine rebuilt from scratch every round by the
// rescanning oracle (rescan_greedy.h), passed tasks remapped to an appended
// all-zero class, and require identical runs: the same pairs in the same
// order, the same rounds and the same truth estimates.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "alloc/min_cost.h"
#include "common/rng.h"
#include "rescan_greedy.h"
#include "stats/normal.h"

namespace eta2::alloc {
namespace {

// Algorithm 2 with the rescanning greedy rebuilt from scratch every round on
// a working problem whose passed tasks point at an appended all-zero class.
MinCostAllocator::Result rebuild_min_cost(
    const MinCostAllocator::Options& options, const AllocationProblem& problem,
    std::span<const truth::DomainIndex> task_domain, std::size_t domain_count,
    const truth::Eta2Mle& mle, const MinCostAllocator::CollectFn& collect) {
  const std::size_t n = problem.user_count();
  const std::size_t m = problem.task_count();
  MinCostAllocator::Result result(n, m);
  const double z = stats::z_critical(options.confidence_alpha);
  const double required_info =
      (z / options.epsilon_bar) * (z / options.epsilon_bar);
  const std::vector<std::vector<double>> expertise(
      n, std::vector<double>(domain_count, mle.options().initial_expertise));

  const std::size_t passed_class = problem.class_count();
  AllocationProblem working;
  working.expertise.assign(n, passed_class + 1, 0.0);
  for (UserId i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < passed_class; ++k) {
      working.expertise(i, k) = problem.expertise(i, k);
    }
  }
  working.task_time = problem.task_time;
  working.user_capacity = problem.user_capacity;
  working.task_cost = problem.task_cost;
  working.task_class.resize(m);
  for (TaskId j = 0; j < m; ++j) working.task_class[j] = problem.class_of(j);
  std::vector<bool> task_passed(m, false);
  std::vector<bool> asked(n * m, false);

  for (int iteration = 1; iteration <= options.max_data_iterations;
       ++iteration) {
    result.data_iterations = iteration;
    const std::size_t pairs_before = result.allocation.pair_count();
    GreedyOptions greedy;
    greedy.epsilon = options.epsilon;
    greedy.cost_cap = options.cost_per_iteration;
    rescan_greedy_extend(working, greedy, result.allocation);
    if (options.half_approx_pass &&
        result.allocation.pair_count() == pairs_before) {
      greedy.efficiency_per_time = false;
      rescan_greedy_extend(working, greedy, result.allocation);
    }
    const std::size_t pairs_after = result.allocation.pair_count();
    for (TaskId j = 0; j < m; ++j) {
      for (const UserId i : result.allocation.users_of(j)) {
        if (asked[i * m + j]) continue;
        asked[i * m + j] = true;
        if (const auto value = collect(j, i)) {
          result.observations.add(j, i, *value);
        }
      }
    }
    result.truth =
        mle.estimate(result.observations, task_domain, domain_count, expertise);
    bool pass = true;
    for (TaskId j = 0; j < m; ++j) {
      if (task_passed[j]) continue;
      double info = 0.0;
      for (const UserId i : result.allocation.users_of(j)) {
        const double u = result.truth.expertise[i][task_domain[j]];
        info += u * u;
      }
      if (info > required_info) {
        task_passed[j] = true;
        working.task_class[j] = passed_class;
      } else {
        pass = false;
      }
    }
    if (pass) {
      result.quality_met = true;
      break;
    }
    if (pairs_after == pairs_before) break;
  }
  if (!result.quality_met) {
    for (TaskId j = 0; j < m; ++j) {
      if (!task_passed[j]) ++result.tasks_unmet;
    }
  }
  return result;
}

// A deterministic collect: a fixed per-(task, user) offset around the task
// index; pairs with (5i + 3j) mod 11 = 0 never respond.
std::optional<double> collect_value(TaskId j, UserId i) {
  if ((i * 5 + j * 3) % 11 == 0) return std::nullopt;
  return static_cast<double>(j % 7) +
         0.25 * static_cast<double>((i * 7 + j * 3) % 5) - 0.5;
}

struct Case {
  AllocationProblem problem;
  std::vector<truth::DomainIndex> domain;
  std::size_t domains = 0;
  MinCostAllocator::Options options;
};

void expect_same_run(const Case& c) {
  const truth::Eta2Mle mle;
  const MinCostAllocator::CollectFn collect = collect_value;
  const MinCostAllocator::Result got = MinCostAllocator(c.options).run(
      c.problem, c.domain, c.domains, {}, mle, collect);
  const MinCostAllocator::Result want = rebuild_min_cost(
      c.options, c.problem, c.domain, c.domains, mle, collect);
  EXPECT_EQ(got.data_iterations, want.data_iterations);
  EXPECT_EQ(got.quality_met, want.quality_met);
  EXPECT_EQ(got.tasks_unmet, want.tasks_unmet);
  ASSERT_EQ(got.allocation.pair_count(), want.allocation.pair_count());
  EXPECT_EQ(got.allocation.total_cost(), want.allocation.total_cost());
  for (TaskId j = 0; j < c.problem.task_count(); ++j) {
    const auto a = got.allocation.users_of(j);
    const auto b = want.allocation.users_of(j);
    EXPECT_EQ(std::vector<UserId>(a.begin(), a.end()),
              std::vector<UserId>(b.begin(), b.end()))
        << "task " << j;
  }
  for (UserId i = 0; i < c.problem.user_count(); ++i) {
    EXPECT_EQ(got.allocation.used_time(i), want.allocation.used_time(i));
  }
  // Bitwise, so that tasks without data (NaN truth) compare equal too.
  ASSERT_EQ(got.truth.mu.size(), want.truth.mu.size());
  for (std::size_t j = 0; j < got.truth.mu.size(); ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.truth.mu[j]),
              std::bit_cast<std::uint64_t>(want.truth.mu[j]))
        << "task " << j;
  }
}

Case random_case(std::uint64_t seed) {
  Rng rng(seed * 40503 + 1);
  Case c;
  const std::size_t users = 12 + seed % 9;
  const std::size_t tasks = 10 + seed % 7;
  c.domains = 1 + seed % 3;
  c.problem.expertise.assign(users, c.domains, 0.0);
  for (double& u : c.problem.expertise.data()) u = rng.uniform(0.2, 3.0);
  c.problem.task_time.resize(tasks);
  for (double& t : c.problem.task_time) t = rng.uniform(0.5, 2.5);
  c.problem.task_cost.resize(tasks);
  for (double& cost : c.problem.task_cost) cost = rng.uniform(0.5, 1.5);
  c.problem.user_capacity.resize(users);
  for (double& cap : c.problem.user_capacity) cap = rng.uniform(2.0, 9.0);
  c.problem.task_class.resize(tasks);
  c.domain.resize(tasks);
  for (TaskId j = 0; j < tasks; ++j) {
    c.domain[j] = static_cast<truth::DomainIndex>(rng.uniform_int(
        0, static_cast<std::int64_t>(c.domains) - 1));
    c.problem.task_class[j] = c.domain[j];
  }
  c.options.cost_per_iteration = rng.uniform(2.0, 6.0);
  c.options.epsilon_bar = rng.uniform(0.4, 1.0);
  return c;
}

TEST(MinCostEngineTest, MatchesPerRoundRescanRebuild) {
  int multi_round = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const Case c = random_case(seed);
    expect_same_run(c);
    const truth::Eta2Mle mle;
    if (MinCostAllocator(c.options)
            .run(c.problem, c.domain, c.domains, {}, mle, collect_value)
            .data_iterations > 2) {
      ++multi_round;
    }
  }
  EXPECT_GE(multi_round, 8);
}

TEST(MinCostEngineTest, ValueOnlyFallbackRoundMatchesRebuild) {
  // Task 4 takes 1e308 time units. Its p_ij is the smallest positive Φ
  // value, so p / t underflows to 0 and the per-time pass never picks it;
  // once the regular tasks are done, rounds fall back to the value-only
  // pass, whose efficiency p stays positive.
  Case c;
  const std::size_t users = 6;
  c.domains = 2;
  c.problem.expertise.assign(users, c.domains, 0.0);
  for (UserId i = 0; i < users; ++i) {
    c.problem.expertise(i, 0) = 0.5 + 0.3 * static_cast<double>(i);
    c.problem.expertise(i, 1) = 3e-15;
  }
  c.problem.task_time = {1.0, 1.0, 1.0, 1.0, 1e308};
  c.problem.user_capacity.assign(users, 1.5e308);
  c.problem.task_class = {0, 0, 0, 0, 1};
  c.domain = {0, 0, 0, 0, 1};
  c.options.cost_per_iteration = 2.0;
  c.options.epsilon_bar = 0.3;
  c.options.max_data_iterations = 40;
  ASSERT_GT(stats::accuracy_probability(3e-15, c.options.epsilon), 0.0);
  ASSERT_EQ(stats::accuracy_probability(3e-15, c.options.epsilon) / 1e308,
            0.0);
  expect_same_run(c);
  const truth::Eta2Mle mle;
  const auto got = MinCostAllocator(c.options).run(
      c.problem, c.domain, c.domains, {}, mle, collect_value);
  EXPECT_GT(got.allocation.users_of(4).size(), 0u);  // the fallback recruited
  EXPECT_GT(got.data_iterations, 3);
}

TEST(MinCostEngineTest, CapacityResyncMatchesRebuild) {
  // One user, capacity 1.466. Round 1 recruits it for the 0.3 and 0.31
  // tasks; the pass's own books then hold (1.466 − 0.3) − 0.31 =
  // 0.8559999999999999 < 0.856, so the 0.856 task is skipped. A rebuilt
  // engine starts round 2 from 1.466 − (0.3 + 0.31) = 0.856 and recruits
  // the user for it; the persistent engine must too.
  Case c;
  c.domains = 1;
  c.problem.expertise.assign(1, 1, 2.0);
  c.problem.task_time = {0.31, 0.3, 0.856};
  c.problem.user_capacity = {1.466};
  c.problem.task_class = {0, 0, 0};
  c.domain = {0, 0, 0};
  c.options.cost_per_iteration = 10.0;
  ASSERT_LT((1.466 - 0.3) - 0.31, 0.856);
  ASSERT_GE(1.466 - (0.3 + 0.31), 0.856);
  expect_same_run(c);
  const truth::Eta2Mle mle;
  const auto got = MinCostAllocator(c.options).run(
      c.problem, c.domain, c.domains, {}, mle, collect_value);
  EXPECT_EQ(got.allocation.users_of(2).size(), 1u);
  EXPECT_GE(got.data_iterations, 2);
}

}  // namespace
}  // namespace eta2::alloc
