#include "core/eta2_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "alloc/max_quality.h"
#include "common/matrix.h"
#include "text/embedder.h"

namespace eta2::core {
namespace {

std::vector<Eta2Server::NewTask> labeled_tasks(
    const std::vector<std::size_t>& domains, double time = 1.0) {
  std::vector<Eta2Server::NewTask> tasks;
  for (const std::size_t d : domains) {
    Eta2Server::NewTask t;
    t.known_domain = d;
    t.processing_time = time;
    tasks.push_back(std::move(t));
  }
  return tasks;
}

TEST(Eta2ServerTest, RejectsBadConfig) {
  Eta2Config bad;
  bad.gamma = 2.0;
  EXPECT_THROW(Eta2Server(3, bad, nullptr), std::invalid_argument);
  bad = Eta2Config{};
  bad.alpha = -0.1;
  EXPECT_THROW(Eta2Server(3, bad, nullptr), std::invalid_argument);
  EXPECT_THROW(Eta2Server(0, Eta2Config{}, nullptr), std::invalid_argument);
}

TEST(Eta2ServerTest, EmptyBatchIsNoop) {
  Eta2Server server(2, Eta2Config{}, nullptr);
  Rng rng(1);
  const std::vector<double> caps(2, 5.0);
  const auto r = server.step({}, caps,
                             [](std::size_t, std::size_t) { return 0.0; }, rng);
  EXPECT_TRUE(r.truth.empty());
  EXPECT_FALSE(server.warmed_up());
}

TEST(Eta2ServerTest, FirstStepIsWarmupWithRandomAllocation) {
  Eta2Server server(4, Eta2Config{}, nullptr);
  Rng rng(2);
  const std::vector<double> caps(4, 10.0);
  const auto tasks = labeled_tasks({0, 0, 1, 1});
  const auto r = server.step(tasks, caps,
                             [](std::size_t, std::size_t) { return 5.0; }, rng);
  EXPECT_TRUE(r.warmup);
  EXPECT_TRUE(server.warmed_up());
  EXPECT_EQ(r.truth.size(), 4u);
  EXPECT_EQ(r.task_domains.size(), 4u);
  // With all users reporting 5.0 exactly, the truth is 5.0.
  for (const double mu : r.truth) {
    EXPECT_NEAR(mu, 5.0, 1e-9);
  }
}

TEST(Eta2ServerTest, KnownDomainsMapStably) {
  Eta2Server server(3, Eta2Config{}, nullptr);
  Rng rng(3);
  const std::vector<double> caps(3, 10.0);
  server.step(labeled_tasks({7, 3}), caps,
              [](std::size_t, std::size_t) { return 1.0; }, rng);
  const auto d7 = server.dense_of_external(7);
  const auto d3 = server.dense_of_external(3);
  ASSERT_TRUE(d7.has_value());
  ASSERT_TRUE(d3.has_value());
  EXPECT_NE(*d7, *d3);
  EXPECT_FALSE(server.dense_of_external(99).has_value());
  // A later batch reuses the mapping.
  const auto r = server.step(labeled_tasks({3}), caps,
                             [](std::size_t, std::size_t) { return 1.0; }, rng);
  EXPECT_EQ(r.task_domains[0], *d3);
}

TEST(Eta2ServerTest, LearnsExpertiseAcrossSteps) {
  Eta2Config config;
  config.alpha = 0.8;
  Eta2Server server(4, config, nullptr);
  Rng rng(5);
  const std::vector<double> caps(4, 20.0);
  // Several steps where user 0 is dead-on and others are off.
  for (int step = 0; step < 3; ++step) {
    Rng obs_rng(100 + step);
    server.step(labeled_tasks({0, 0, 0, 0, 0}), caps,
                [&obs_rng](std::size_t, std::size_t user) {
                  return user == 0 ? obs_rng.normal(10.0, 0.1)
                                   : obs_rng.normal(10.0, 4.0);
                },
                rng);
  }
  const auto dense = server.dense_of_external(0);
  ASSERT_TRUE(dense.has_value());
  const auto& store = server.expertise_store();
  for (std::size_t other = 1; other < 4; ++other) {
    EXPECT_GT(store.expertise(0, *dense), store.expertise(other, *dense));
  }
}

TEST(Eta2ServerTest, ExpertiseAwareAllocationPrefersExperts) {
  // After learning, the expert must receive at least as many tasks as any
  // noisy user when capacity binds.
  Eta2Config config;
  Eta2Server server(3, config, nullptr);
  Rng rng(7);
  const std::vector<double> caps(3, 4.0);  // room for 4 unit tasks each
  auto collect = [](std::size_t, std::size_t user) {
    static Rng obs(55);
    return user == 0 ? obs.normal(0.0, 0.05) : obs.normal(0.0, 5.0);
  };
  server.step(labeled_tasks(std::vector<std::size_t>(6, 0)), caps, collect, rng);
  const auto r =
      server.step(labeled_tasks(std::vector<std::size_t>(6, 0)), caps, collect, rng);
  EXPECT_FALSE(r.warmup);
  std::size_t expert_load = 0;
  std::size_t max_other = 0;
  for (std::size_t j = 0; j < 6; ++j) {
    for (const std::size_t u : r.allocation.users_of(j)) {
      if (u == 0) {
        ++expert_load;
      }
    }
  }
  for (std::size_t u = 1; u < 3; ++u) {
    std::size_t load = 0;
    for (std::size_t j = 0; j < 6; ++j) {
      if (r.allocation.is_assigned(u, j)) ++load;
    }
    max_other = std::max(max_other, load);
  }
  EXPECT_GE(expert_load, max_other);
  EXPECT_EQ(expert_load, 4u);  // capacity-bound: the expert is saturated
}

TEST(Eta2ServerTest, DescribedTasksNeedEmbedder) {
  Eta2Server server(2, Eta2Config{}, nullptr);
  Rng rng(9);
  const std::vector<double> caps(2, 5.0);
  std::vector<Eta2Server::NewTask> tasks(1);
  tasks[0].description = "noise near the park";
  EXPECT_THROW(server.step(tasks, caps,
                           [](std::size_t, std::size_t) { return 0.0; }, rng),
               std::invalid_argument);
}

TEST(Eta2ServerTest, DescribedTasksClusterIntoDomains) {
  auto embedder = std::make_shared<text::HashEmbedder>(32);
  Eta2Config config;
  config.gamma = 0.6;
  Eta2Server server(3, config, embedder);
  Rng rng(11);
  const std::vector<double> caps(3, 20.0);
  std::vector<Eta2Server::NewTask> tasks(4);
  tasks[0].description = "noise near the park";
  tasks[1].description = "noise around the park";
  tasks[2].description = "salary at the bank";
  tasks[3].description = "salary of the bank";
  for (auto& t : tasks) t.processing_time = 1.0;
  const auto r = server.step(tasks, caps,
                             [](std::size_t, std::size_t) { return 1.0; }, rng);
  ASSERT_EQ(r.task_domains.size(), 4u);
  EXPECT_EQ(r.task_domains[0], r.task_domains[1]);
  EXPECT_EQ(r.task_domains[2], r.task_domains[3]);
  EXPECT_NE(r.task_domains[0], r.task_domains[2]);
}

TEST(Eta2ServerTest, MinCostModeReportsDataIterations) {
  Eta2Config config;
  config.use_min_cost = true;
  config.cost_per_iteration = 4.0;
  config.epsilon_bar = 0.9;
  Eta2Server server(6, config, nullptr);
  Rng rng(13);
  const std::vector<double> caps(6, 10.0);
  auto collect = [](std::size_t, std::size_t) {
    static Rng obs(77);
    return obs.normal(3.0, 0.5);
  };
  // Warm-up first (random), then a min-cost step.
  server.step(labeled_tasks({0, 0, 0}), caps, collect, rng);
  const auto r = server.step(labeled_tasks({0, 0, 0}), caps, collect, rng);
  EXPECT_FALSE(r.warmup);
  EXPECT_GE(r.data_iterations, 1);
  EXPECT_GT(r.cost, 0.0);
}

TEST(Eta2ServerTest, ClassKeyedAllocationReplaysOnExpandedPlane) {
  // The server allocates on the class-keyed plane (one column per distinct
  // domain of the batch). Replaying each step on the per-task plane —
  // fill_task_expertise over every task's domain, then the trust discount,
  // then MaxQualityAllocator — must reproduce its allocation exactly. Many
  // tasks over few domains, with a colluding minority, so the kTrimmedV1
  // discount scales real rows by the time the replays run.
  const std::size_t n = 30;
  const std::size_t sybils = 6;
  Eta2Config config;
  config.trust.tier = truth::DefenseTier::kTrimmedV1;
  std::optional<truth::ExpertiseStore> store_at_alloc;
  std::optional<truth::TrustLedger> ledger_at_alloc;
  const Eta2Server* running = nullptr;
  int boundary = 0;
  config.step_watchdog = [&] {
    // Boundary 2 of a step falls after identification, right before the
    // allocation plane is filled.
    if (++boundary != 2) return;
    store_at_alloc.emplace(running->expertise_store());
    ledger_at_alloc.emplace(*running->trust_ledger());
  };
  Eta2Server server(n, config, nullptr);
  running = &server;

  Rng rng(21);
  Rng world(22);
  const std::vector<double> caps(n, 8.0);
  bool discounted = false;
  for (int step = 0; step < 6; ++step) {
    std::vector<std::size_t> domains(40);
    for (std::size_t& d : domains) {
      d = static_cast<std::size_t>(world.uniform_int(0, 2));
    }
    const auto tasks = labeled_tasks(domains);
    std::vector<double> mu(tasks.size());
    for (double& v : mu) v = world.uniform(0.0, 20.0);
    const CollectFn collect = [&](std::size_t j, std::size_t i) {
      return i < sybils ? mu[j] + 8.0 : world.normal(mu[j], 1.0);
    };
    boundary = 0;
    const auto result = server.step(tasks, caps, collect, rng);
    if (result.warmup) continue;

    alloc::AllocationProblem expanded;
    store_at_alloc->fill_task_expertise(result.task_domains,
                                        expanded.expertise);
    const Matrix undiscounted = expanded.expertise;
    ledger_at_alloc->discount_expertise(expanded.expertise);
    const auto before = undiscounted.data();
    const auto after = expanded.expertise.data();
    discounted = discounted ||
                 !std::equal(before.begin(), before.end(), after.begin());
    expanded.task_time.assign(tasks.size(), 1.0);
    expanded.task_cost.assign(tasks.size(), 1.0);
    expanded.user_capacity = caps;
    const alloc::Allocation replayed =
        alloc::MaxQualityAllocator({config.epsilon, config.half_approx_pass})
            .allocate(expanded);
    ASSERT_EQ(replayed.pair_count(), result.allocation.pair_count())
        << "step " << step;
    for (std::size_t j = 0; j < tasks.size(); ++j) {
      const auto want = replayed.users_of(j);
      const auto got = result.allocation.users_of(j);
      ASSERT_EQ(std::vector<std::size_t>(want.begin(), want.end()),
                std::vector<std::size_t>(got.begin(), got.end()))
          << "step " << step << " task " << j;
    }
  }
  EXPECT_TRUE(discounted) << "sybil rows were never discounted";
}

TEST(Eta2ServerTest, DefendedSteadyStateReportsTruthIterations) {
  // After warm-up a defended server estimates through the trusted sweep;
  // its iterations count toward StepHealth like any other updater's.
  const std::size_t n = 12;
  Eta2Config config;
  config.trust.tier = truth::DefenseTier::kTrimmedV1;
  Eta2Server server(n, config, nullptr);
  Rng rng(31);
  Rng world(32);
  const std::vector<double> caps(n, 6.0);
  for (int step = 0; step < 3; ++step) {
    const auto tasks = labeled_tasks({0, 1, 2, 0, 1, 2});
    const CollectFn collect = [&](std::size_t j, std::size_t) {
      return world.normal(static_cast<double>(j), 1.0);
    };
    const auto result = server.step(tasks, caps, collect, rng);
    ASSERT_EQ(result.warmup, step == 0);
    ASSERT_FALSE(result.health.truth_fallback) << "step " << step;
    EXPECT_GT(result.mle_iterations, 0) << "step " << step;
    EXPECT_EQ(result.health.sharded_truth_iterations,
              static_cast<std::size_t>(result.mle_iterations))
        << "step " << step;
  }
}

TEST(Eta2ServerTest, CapacitySizeMismatchThrows) {
  Eta2Server server(3, Eta2Config{}, nullptr);
  Rng rng(15);
  const std::vector<double> wrong(2, 5.0);
  EXPECT_THROW(server.step(labeled_tasks({0}), wrong,
                           [](std::size_t, std::size_t) { return 0.0; }, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace eta2::core
