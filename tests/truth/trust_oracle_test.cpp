// TrustLedger::end_step (per-step task bitsets, key-sorted pair vector)
// against the map-based reference pass of tests/truth/trust_oracle.h:
// randomized campaigns with colluding cliques, honest noise, NaN truths and
// non-finite reports, compared after every step on save() bytes and the
// TrustStepReport. Task counts straddle the 64-bit word boundary so pair
// counts span several bitset words.
#include "trust_oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "truth/expertise_store.h"
#include "truth/observation.h"
#include "truth/trust.h"

namespace eta2::truth {
namespace {

constexpr std::size_t kUsers = 24;
constexpr std::size_t kDomains = 2;
constexpr std::size_t kSteps = 16;

// Fast-moving ledger so a 16-step campaign covers the whole lifecycle: a
// pair drops below pair_floor a few steps after its last co-error, and
// quarantines expire after two steps.
TrustOptions campaign_options() {
  TrustOptions options;
  options.tier = DefenseTier::kTrimmedV1;
  options.decay = 0.4;
  options.pair_floor = 0.3;
  options.quarantine_steps = 2;
  options.min_weight = 3.0;
  return options;
}

ExpertiseStore random_store(Rng& rng) {
  ExpertiseStore store(kUsers, MleOptions{});
  for (std::size_t k = 0; k < kDomains; ++k) store.add_domain();
  Accumulators num(kUsers, std::vector<double>(kDomains, 0.0));
  Accumulators den(kUsers, std::vector<double>(kDomains, 0.0));
  for (UserId u = 0; u < kUsers; ++u) {
    for (std::size_t k = 0; k < kDomains; ++k) {
      num[u][k] = rng.uniform(2.0, 20.0);
      den[u][k] = rng.uniform(1.0, 20.0);
    }
  }
  store.decay_and_accumulate(1.0, num, den);
  return store;
}

// One step's truth planes and raw reports. Users 0–4 and 5–8 are two
// cliques that each push their tasks one way while colluding; everyone
// else (and a clique off duty) reports honest noise with |z| ~ N(0, 0.9²),
// which now and then puts a pair wrong together by chance. About one task
// in eleven has a NaN truth, and a few reports are ±inf or NaN.
struct StepData {
  std::vector<DomainIndex> domain;
  std::vector<double> mu;
  std::vector<double> sigma;
  ObservationSet raw{kUsers, 0};
};

StepData make_step(Rng& rng, const ExpertiseStore& store, std::size_t tasks,
                   bool clique_a, bool clique_b) {
  StepData step;
  step.raw = ObservationSet(kUsers, tasks);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (TaskId j = 0; j < tasks; ++j) {
    step.domain.push_back(j % kDomains);
    step.mu.push_back(rng.bernoulli(0.09) ? nan : rng.uniform(0.0, 50.0));
    step.sigma.push_back(rng.bernoulli(0.05) ? 0.0 : rng.uniform(0.5, 2.0));
    const double truth = std::isnan(step.mu[j]) ? 25.0 : step.mu[j];
    const double s = std::max(step.sigma[j], store.options().sigma_min);
    for (UserId u = 0; u < kUsers; ++u) {
      if (!rng.bernoulli(0.55)) continue;
      double value =
          truth + rng.normal(0.0, 0.9) * s / store.expertise(u, j % kDomains);
      if (clique_a && u < 5) value = truth + 6.0 + rng.normal(0.0, 0.2);
      if (clique_b && u >= 5 && u < 9) value = truth - 6.0;
      if (rng.bernoulli(0.01)) value = rng.bernoulli(0.5) ? inf : nan;
      if (rng.bernoulli(0.005)) value = -inf;
      step.raw.add(j, u, value);
    }
  }
  return step;
}

std::string bytes_of(const TrustLedger& ledger) {
  std::ostringstream out;
  ledger.save(out);
  return out.str();
}

std::string bytes_of(const oracle::TrustLedgerOracle& ledger) {
  std::ostringstream out;
  ledger.save(out);
  return out.str();
}

// The agreement-graph keys of a "trust-ledger v1" blob, ascending.
std::vector<std::uint64_t> pair_keys_of(const std::string& blob) {
  std::istringstream in(blob.substr(blob.find("\npairs ") + 1));
  std::string tag;
  std::size_t count = 0;
  in >> tag >> count;
  std::vector<std::uint64_t> keys(count);
  std::string co_wrong;
  std::string co_observed;
  for (std::uint64_t& key : keys) in >> key >> co_wrong >> co_observed;
  return keys;
}

void expect_same_report(const TrustStepReport& engine,
                        const TrustStepReport& reference) {
  EXPECT_EQ(engine.suspected_users, reference.suspected_users);
  EXPECT_EQ(engine.quarantined_users, reference.quarantined_users);
  EXPECT_EQ(engine.readmitted_users, reference.readmitted_users);
  EXPECT_EQ(engine.flagged_cliques, reference.flagged_cliques);
  EXPECT_EQ(engine.trust_histogram, reference.trust_histogram);
}

// What a campaign exercised, so the test can insist it covered the
// lifecycle rather than trivially agreeing on an empty graph.
struct Coverage {
  std::size_t flagged_cliques = 0;
  std::size_t readmitted_users = 0;
  std::size_t dropped_pairs = 0;  // pairs decayed out of the graph
  std::size_t max_pairs = 0;
};

// Runs one campaign through both ledgers; `task_counts` cycles per step.
// Both ledgers are saved and reloaded from their own bytes mid-run.
Coverage run_campaign(std::uint64_t seed,
                      const std::vector<std::size_t>& task_counts) {
  Rng rng(seed);
  const ExpertiseStore store = random_store(rng);
  const TrustOptions options = campaign_options();
  TrustLedger engine(kUsers, options);
  oracle::TrustLedgerOracle reference(kUsers, options);
  Coverage coverage;
  std::vector<std::uint64_t> previous_keys;
  for (std::size_t step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                 std::to_string(step));
    if (step == kSteps / 2) {
      std::istringstream engine_in(bytes_of(engine));
      engine = TrustLedger::load(engine_in, options);
      std::istringstream reference_in(bytes_of(reference));
      reference = oracle::TrustLedgerOracle::load(reference_in, options);
    }
    const std::size_t tasks = task_counts[step % task_counts.size()];
    // Clique A colludes early and late, clique B only in the middle, so
    // both get flagged, serve their quarantine, return on probation, and
    // leave pairs behind to decay.
    const bool clique_a = step < 5 || step >= 11;
    const bool clique_b = step >= 4 && step < 9;
    const StepData data = make_step(rng, store, tasks, clique_a, clique_b);
    const TrustStepReport got =
        engine.end_step(data.raw, data.domain, data.mu, data.sigma, store);
    const TrustStepReport want =
        reference.end_step(data.raw, data.domain, data.mu, data.sigma, store);
    expect_same_report(got, want);
    const std::string engine_bytes = bytes_of(engine);
    const std::string reference_bytes = bytes_of(reference);
    EXPECT_EQ(engine_bytes, reference_bytes);
    if (engine_bytes != reference_bytes) return coverage;  // first divergence

    coverage.flagged_cliques += want.flagged_cliques;
    coverage.readmitted_users += want.readmitted_users;
    const std::vector<std::uint64_t> keys = pair_keys_of(engine_bytes);
    for (const std::uint64_t key : previous_keys) {
      if (!std::binary_search(keys.begin(), keys.end(), key)) {
        ++coverage.dropped_pairs;
      }
    }
    coverage.max_pairs = std::max(coverage.max_pairs, keys.size());
    previous_keys = keys;
  }
  return coverage;
}

TEST(TrustOracleTest, BitsetPassMatchesMapPassAcrossWordBoundaries) {
  for (const std::size_t tasks : std::vector<std::size_t>{1, 63, 64, 65, 200}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Coverage coverage = run_campaign(seed * 1000 + tasks, {tasks});
      if (tasks >= 63) {
        EXPECT_GT(coverage.flagged_cliques, 0u) << tasks << " tasks";
        EXPECT_GT(coverage.readmitted_users, 0u) << tasks << " tasks";
        EXPECT_GT(coverage.dropped_pairs, 0u) << tasks << " tasks";
      }
    }
  }
}

TEST(TrustOracleTest, BitsetPassMatchesMapPassWhenTaskCountChangesPerStep) {
  // The scratch bitsets are resized every step; a step with fewer tasks
  // must not see bits left over from a wider one.
  const Coverage coverage = run_campaign(77, {200, 1, 65, 64, 63, 130});
  EXPECT_GT(coverage.flagged_cliques, 0u);
  EXPECT_GT(coverage.readmitted_users, 0u);
  EXPECT_GT(coverage.dropped_pairs, 0u);
  EXPECT_GT(coverage.max_pairs, 10u);
}

}  // namespace
}  // namespace eta2::truth
