// Unit tests for the sharded Eq. 5–9 engine (DESIGN.md §12): shard-plan
// structure, plus the central contract — in batch, decayed and
// weighted mode the engine is bit-identical to the monolithic oracles of
// truth_oracle.h at every shard layout (0/1/2/8 shards) and thread count
// (1/2/8).
#include "truth/sharding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "truth/eta2_mle.h"
#include "truth/expertise_store.h"
#include "truth/trust.h"
#include "truth_oracle.h"

namespace eta2::truth {
namespace {

struct Model {
  std::vector<double> mu;
  std::vector<DomainIndex> domain;
  ObservationSet data{0, 0};
};

Model make_model(std::size_t users, std::size_t tasks, std::size_t domains,
                 std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  m.mu.resize(tasks);
  m.domain.resize(tasks);
  m.data = ObservationSet(users, tasks);
  for (std::size_t j = 0; j < tasks; ++j) {
    m.mu[j] = rng.uniform(0.0, 20.0);
    m.domain[j] = j % domains;
    for (std::size_t i = 0; i < users; ++i) {
      if ((i + j) % 5 == 0) continue;  // leave holes in the matrix
      // A few corrupt reports: the sweeps must skip them identically.
      const double value =
          (i * 7 + j) % 23 == 0
              ? std::numeric_limits<double>::quiet_NaN()
              : rng.normal(m.mu[j], 1.0 / rng.uniform(0.4, 3.0));
      m.data.add(j, i, value);
    }
  }
  return m;
}

void expect_bitwise(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << what;
  }
}

void expect_bitwise(const std::vector<std::vector<double>>& a,
                    const std::vector<std::vector<double>>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) expect_bitwise(a[i], b[i], what);
}

constexpr std::size_t kShardCounts[] = {0, 1, 2, 8};
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

// Runs `body(plan)` for every shard layout × thread count, restoring the
// default thread count afterwards.
template <typename Body>
void for_each_layout(std::span<const DomainIndex> domain,
                     std::size_t domain_count, Body&& body) {
  for (const std::size_t shards : kShardCounts) {
    const ShardPlan plan = ShardPlan::build(domain, domain_count, shards);
    for (const std::size_t threads : kThreadCounts) {
      parallel::set_thread_count(threads);
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      body(plan);
    }
  }
  parallel::set_thread_count(0);
}

std::string saved(const ExpertiseStore& store) {
  std::ostringstream out;
  store.save(out);
  return out.str();
}

void expect_same_update(const DynamicUpdateResult& reference,
                        const DynamicUpdateResult& engine) {
  expect_bitwise(reference.mu, engine.mu, "mu");
  expect_bitwise(reference.sigma, engine.sigma, "sigma");
  EXPECT_EQ(reference.iterations, engine.iterations);
  EXPECT_EQ(reference.converged, engine.converged);
}

// A store over `domains` domains seeded from a warm-up fit of `warm`
// through the oracle's contribution loop.
ExpertiseStore seeded_store(const Model& warm, std::size_t users,
                            std::size_t domains) {
  ExpertiseStore store(users);
  for (std::size_t d = 0; d < domains; ++d) (void)store.add_domain();
  const MleResult fit = oracle::estimate(Eta2Mle{}, warm.data, warm.domain,
                                         domains);
  const oracle::Contributions seed = oracle::expertise_contributions(
      warm.data, warm.domain, fit.mu, fit.sigma, users, domains);
  store.decay_and_accumulate(1.0, seed.num, seed.den);
  return store;
}

TEST(ShardPlanTest, DefaultGivesOneShardPerDomain) {
  const std::vector<DomainIndex> domain = {2, 0, 1, 0, 2};
  const ShardPlan plan = ShardPlan::build(domain, 3, 0);
  ASSERT_EQ(plan.shard_count(), 3u);
  EXPECT_EQ(plan.domains[0], (std::vector<std::size_t>{0}));
  EXPECT_EQ(plan.domains[1], (std::vector<std::size_t>{1}));
  EXPECT_EQ(plan.domains[2], (std::vector<std::size_t>{2}));
  EXPECT_EQ(plan.tasks[0], (std::vector<TaskId>{1, 3}));
  EXPECT_EQ(plan.tasks[1], (std::vector<TaskId>{2}));
  EXPECT_EQ(plan.tasks[2], (std::vector<TaskId>{0, 4}));
  EXPECT_EQ(plan.domain_shard, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ShardPlanTest, FoldsDomainsModuloShardCount) {
  const std::vector<DomainIndex> domain = {0, 1, 2, 3, 4};
  const ShardPlan plan = ShardPlan::build(domain, 5, 2);
  ASSERT_EQ(plan.shard_count(), 2u);
  EXPECT_EQ(plan.domains[0], (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(plan.domains[1], (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(plan.tasks[0], (std::vector<TaskId>{0, 2, 4}));
  EXPECT_EQ(plan.tasks[1], (std::vector<TaskId>{1, 3}));
}

TEST(ShardPlanTest, MoreShardsThanDomainsLeavesEmptyShards) {
  const std::vector<DomainIndex> domain = {0, 0, 1};
  const ShardPlan plan = ShardPlan::build(domain, 2, 8);
  ASSERT_EQ(plan.shard_count(), 8u);
  EXPECT_EQ(plan.tasks[0], (std::vector<TaskId>{0, 1}));
  EXPECT_EQ(plan.tasks[1], (std::vector<TaskId>{2}));
  for (std::size_t s = 2; s < 8; ++s) {
    EXPECT_TRUE(plan.tasks[s].empty()) << s;
    EXPECT_TRUE(plan.domains[s].empty()) << s;
  }
}

TEST(ShardPlanTest, ZeroDomainsStillYieldsOneShard) {
  const ShardPlan plan = ShardPlan::build({}, 0, 0);
  EXPECT_EQ(plan.shard_count(), 1u);
  EXPECT_TRUE(plan.tasks[0].empty());
}

TEST(ShardPlanTest, RejectsOutOfRangeDomainLabel) {
  const std::vector<DomainIndex> domain = {0, 3};
  EXPECT_THROW(ShardPlan::build(domain, 2, 0), std::invalid_argument);
}

TEST(ShardedEstimateTest, ExactTierBitIdenticalToMonolithic) {
  const Model m = make_model(8, 20, 5, 17);
  const Eta2Mle mle;
  // Cold start, and a warm start from a non-flat seed (min-cost rounds).
  const std::vector<std::vector<double>> cold;
  const std::vector<std::vector<double>> warm = [] {
    std::vector<std::vector<double>> seed(8, std::vector<double>(5, 1.0));
    for (std::size_t i = 0; i < 8; ++i) {
      seed[i][i % 5] = 0.5 + 0.25 * static_cast<double>(i);
    }
    return seed;
  }();
  for (const auto* initial : {&cold, &warm}) {
    const std::vector<std::vector<double>>& seed = *initial;
    const MleResult reference =
        oracle::estimate(mle, m.data, m.domain, 5, seed);
    for_each_layout(m.domain, 5, [&](const ShardPlan& plan) {
      const MleResult sharded =
          sharded_estimate(mle, m.data, m.domain, 5, plan, seed);
      expect_bitwise(reference.mu, sharded.mu, "mu");
      expect_bitwise(reference.sigma, sharded.sigma, "sigma");
      expect_bitwise(reference.expertise, sharded.expertise, "expertise");
      EXPECT_EQ(reference.iterations, sharded.iterations);
      EXPECT_EQ(reference.converged, sharded.converged);
    });
    const MleResult entry = mle.estimate(m.data, m.domain, 5, seed);
    expect_bitwise(reference.mu, entry.mu, "Eta2Mle::estimate mu");
    expect_bitwise(reference.expertise, entry.expertise,
                   "Eta2Mle::estimate expertise");
  }
}

TEST(ShardedEstimateTest, IterationCapMatchesOracle) {
  // A cap of 2 stops both modes before convergence: engine and oracles must
  // report the same (capped) count and the same unconverged state.
  const Model m = make_model(8, 20, 5, 19);
  MleOptions options;
  options.max_iterations = 2;
  options.convergence_threshold = 1e-12;
  const Eta2Mle mle(options);
  const MleResult reference = oracle::estimate(mle, m.data, m.domain, 5);
  ASSERT_FALSE(reference.converged);
  ExpertiseStore decayed_reference = seeded_store(m, 8, 5);
  const ExpertiseStore start = decayed_reference;
  const DynamicUpdateResult decayed = oracle::dynamic_update(
      decayed_reference, m.data, m.domain, 0.5, mle);
  ASSERT_FALSE(decayed.converged);
  for_each_layout(m.domain, 5, [&](const ShardPlan& plan) {
    const MleResult sharded = sharded_estimate(mle, m.data, m.domain, 5, plan);
    expect_bitwise(reference.mu, sharded.mu, "mu");
    EXPECT_EQ(reference.iterations, sharded.iterations);
    EXPECT_FALSE(sharded.converged);
    ExpertiseStore store = start;
    expect_same_update(decayed, sharded_dynamic_update(store, m.data, m.domain,
                                                       0.5, mle, plan));
    EXPECT_EQ(saved(decayed_reference), saved(store));
  });
}

TEST(ShardedDynamicUpdateTest, ExactTierBitIdenticalToMonolithic) {
  const Model warm = make_model(8, 20, 5, 21);
  const Model next = make_model(8, 14, 5, 22);
  const Eta2Mle mle;
  ExpertiseStore reference_store = seeded_store(warm, 8, 5);
  const ExpertiseStore start = reference_store;
  const DynamicUpdateResult reference =
      oracle::dynamic_update(reference_store, next.data, next.domain, 0.5, mle);
  for_each_layout(next.domain, 5, [&](const ShardPlan& plan) {
    ExpertiseStore store = start;
    expect_same_update(reference, sharded_dynamic_update(
                                      store, next.data, next.domain, 0.5,
                                      mle, plan));
    EXPECT_EQ(saved(reference_store), saved(store));
  });
  ExpertiseStore entry_store = start;
  expect_same_update(reference, dynamic_update(entry_store, next.data,
                                               next.domain, 0.5, mle));
  EXPECT_EQ(saved(reference_store), saved(entry_store));
}

TEST(ShardedDynamicUpdateTest, WeightedModeBitIdenticalToTrustedOracle) {
  // A non-neutral ledger: one user below the trust floor, two partially
  // distrusted, and an influence cap that binds on the best experts.
  const Model warm = make_model(8, 20, 5, 41);
  const Model next = make_model(8, 16, 5, 42);
  TrustOptions options;
  options.tier = DefenseTier::kTrimmedV1;
  options.influence_cap = 1.2;
  std::istringstream state(
      "trust-ledger v1\n8 3\n"
      "0 0 0 0\n6 4 0 0\n0 0 0 0\n40 4 0 0\n"
      "0 0 0 0\n9 3 0 0\n0 0 0 0\n0 0 0 0\n"
      "pairs 0\n");
  const TrustLedger ledger = TrustLedger::load(state, options);
  ASSERT_LT(ledger.trust(3), options.trust_floor);
  ASSERT_LT(ledger.trust(1), 1.0);
  const Eta2Mle mle;
  ExpertiseStore reference_store = seeded_store(warm, 8, 5);
  const ExpertiseStore start = reference_store;
  const DynamicUpdateResult reference = oracle::trusted_dynamic_update(
      ledger, reference_store, next.data, next.domain, 0.8, mle);

  SweepWeights weights;
  weights.influence_cap = options.influence_cap;
  for (UserId u = 0; u < 8; ++u) {
    weights.user_weight.push_back(
        std::sqrt(std::max(ledger.trust(u), options.trust_floor)));
  }
  for_each_layout(next.domain, 5, [&](const ShardPlan& plan) {
    ExpertiseStore store = start;
    expect_same_update(reference,
                       sharded_dynamic_update(store, next.data, next.domain,
                                              0.8, mle, plan, weights));
    EXPECT_EQ(saved(reference_store), saved(store));
  });
  ExpertiseStore entry_store = start;
  expect_same_update(reference,
                     ledger.trusted_dynamic_update(entry_store, next.data,
                                                   next.domain, 0.8, mle));
  EXPECT_EQ(saved(reference_store), saved(entry_store));
}

TEST(AccumulateFitTest, MatchesOracleContributions) {
  const Model m = make_model(8, 20, 5, 61);
  const MleResult fit = Eta2Mle{}.estimate(m.data, m.domain, 5);
  ExpertiseStore reference(8);
  ExpertiseStore store(8);
  for (int d = 0; d < 5; ++d) {
    (void)reference.add_domain();
    (void)store.add_domain();
  }
  const oracle::Contributions c = oracle::expertise_contributions(
      m.data, m.domain, fit.mu, fit.sigma, 8, 5);
  reference.decay_and_accumulate(1.0, c.num, c.den);
  accumulate_fit(store, m.data, m.domain, fit.mu, fit.sigma);
  EXPECT_EQ(saved(reference), saved(store));
}

TEST(ShardedEstimateTest, RejectsMismatchedPlan) {
  const Model m = make_model(4, 6, 2, 71);
  const Eta2Mle mle;
  // A plan over another domain count, and one built from other labels.
  const ShardPlan wide = ShardPlan::build(m.domain, 3, 0);
  EXPECT_THROW(sharded_estimate(mle, m.data, m.domain, 2, wide),
               std::invalid_argument);
  std::vector<DomainIndex> swapped(m.domain.begin(), m.domain.end());
  for (DomainIndex& k : swapped) k = 1 - k;
  const ShardPlan other = ShardPlan::build(swapped, 2, 0);
  EXPECT_THROW(sharded_estimate(mle, m.data, m.domain, 2, other),
               std::invalid_argument);
}

}  // namespace
}  // namespace eta2::truth
