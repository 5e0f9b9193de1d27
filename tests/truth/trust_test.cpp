// TrustLedger (truth/trust.h): residual ledger, agreement-graph collusion
// detection, quarantine lifecycle, the kTrimmedV1 filter, and persistence.
// Steps are driven with caller-chosen truth planes (μ, σ) so every z value
// is hand-computable: with unit expertise and σ = 1, z is just the report's
// offset from μ.
#include "truth/trust.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "../core/golden_scenarios.h"
#include "trimmed_v1_golden.h"
#include "truth/eta2_mle.h"
#include "truth/expertise_store.h"

namespace eta2::truth {
namespace {

constexpr std::size_t kUsers = 6;
constexpr std::size_t kTasks = 4;

// Six users, four unit-σ tasks in one domain; every user reports on every
// task with a fixed per-user offset from the committed truth.
struct Scenario {
  ExpertiseStore store{kUsers, MleOptions{}};
  std::vector<DomainIndex> domains = std::vector<DomainIndex>(kTasks, 0);
  std::vector<double> mu = {10.0, 20.0, 30.0, 40.0};
  std::vector<double> sigma = std::vector<double>(kTasks, 1.0);

  Scenario() { store.add_domain(); }

  ObservationSet observe(const std::vector<double>& offsets) const {
    ObservationSet obs(kUsers, kTasks);
    for (TaskId j = 0; j < kTasks; ++j) {
      for (UserId u = 0; u < kUsers; ++u) {
        obs.add(j, u, mu[j] + offsets[u]);
      }
    }
    return obs;
  }

  TrustStepReport run_step(TrustLedger& ledger,
                           const std::vector<double>& offsets) const {
    const ObservationSet obs = observe(offsets);
    return ledger.end_step(obs, domains, mu, sigma, store);
  }
};

TrustOptions trimmed_options() {
  TrustOptions options;
  options.tier = DefenseTier::kTrimmedV1;
  return options;
}

TEST(TrustLedgerTest, ValidatesOptions) {
  EXPECT_THROW(TrustLedger(0, TrustOptions{}), std::invalid_argument);
  TrustOptions bad;
  bad.decay = 1.5;
  EXPECT_THROW(TrustLedger(2, bad), std::invalid_argument);
  bad = {};
  bad.quarantine_steps = 0;
  EXPECT_THROW(TrustLedger(2, bad), std::invalid_argument);
  bad = {};
  bad.min_clique_size = 1;
  EXPECT_THROW(TrustLedger(2, bad), std::invalid_argument);
  bad = {};
  bad.quarantine_threshold = 0.9;  // above suspect_threshold
  EXPECT_THROW(TrustLedger(2, bad), std::invalid_argument);
}

TEST(TrustLedgerTest, FreshLedgerTrustsEveryone) {
  TrustLedger ledger(kUsers, trimmed_options());
  for (UserId u = 0; u < kUsers; ++u) {
    EXPECT_EQ(ledger.trust(u), 1.0);
    EXPECT_FALSE(ledger.suspected(u));
    EXPECT_FALSE(ledger.quarantined(u));
  }
  const std::vector<char> flags = ledger.quarantine_flags();
  ASSERT_EQ(flags.size(), kUsers);
  for (const char f : flags) EXPECT_EQ(f, 0);
}

TEST(TrustLedgerTest, PersistentPoisonerIsSuspectedThenQuarantined) {
  const Scenario scenario;
  TrustLedger ledger(kUsers, trimmed_options());
  const std::vector<double> poison = {0, 0, 0, 0, 0, 5.0};

  // Step 1: z = 5 on four tasks pushes mean z² to 25 immediately, but the
  // EWMA weight (4 < min_weight 6) is still too thin to convict.
  TrustStepReport report = scenario.run_step(ledger, poison);
  EXPECT_EQ(report.suspected_users, 1u);
  EXPECT_EQ(report.quarantined_users, 0u);
  EXPECT_TRUE(ledger.suspected(5));
  EXPECT_FALSE(ledger.quarantined(5));
  EXPECT_EQ(ledger.trust(0), 1.0) << "honest residuals are free";

  // Step 2: weight 0.8·4 + 4 crosses min_weight; the verdict lands.
  report = scenario.run_step(ledger, poison);
  EXPECT_EQ(report.quarantined_users, 1u);
  EXPECT_TRUE(ledger.quarantined(5));
  EXPECT_EQ(ledger.quarantine_flags()[5], 1);
  // mean z² = 25 → trust exp(−12), pinned in the bottom histogram bucket.
  EXPECT_NEAR(ledger.trust(5), std::exp(-12.0), 1e-9);
  EXPECT_EQ(report.trust_histogram[0], 1u);
  EXPECT_EQ(report.trust_histogram[kTrustHistogramBuckets - 1], 5u);
}

TEST(TrustLedgerTest, QuarantineExpiresOntoProbationAndRelapseReconvicts) {
  const Scenario scenario;
  TrustLedger ledger(kUsers, trimmed_options());
  const std::vector<double> poison = {0, 0, 0, 0, 0, 5.0};
  const std::vector<double> honest = {0, 0, 0, 0, 0, 0};

  scenario.run_step(ledger, poison);
  scenario.run_step(ledger, poison);  // quarantined at step 2 → until step 6
  for (int step = 3; step <= 5; ++step) {
    const TrustStepReport report = scenario.run_step(ledger, honest);
    EXPECT_EQ(report.quarantined_users, 1u) << "released early at " << step;
    EXPECT_EQ(report.readmitted_users, 0u);
  }
  // Step 6: the sentence (quarantine_steps = 3 full steps) is served;
  // re-admission is on probation — trust 1, but thin evidence.
  TrustStepReport report = scenario.run_step(ledger, honest);
  EXPECT_EQ(report.readmitted_users, 1u);
  EXPECT_EQ(report.quarantined_users, 0u);
  EXPECT_FALSE(ledger.quarantined(5));
  EXPECT_EQ(ledger.trust(5), 1.0);

  // Relapse: probation evidence is thin by design, so one more poisoned
  // step re-convicts immediately.
  report = scenario.run_step(ledger, poison);
  EXPECT_EQ(report.quarantined_users, 1u);
  EXPECT_TRUE(ledger.quarantined(5));
}

TEST(TrustLedgerTest, AgreementGraphQuarantinesCliqueBeforeTrustDrains) {
  const Scenario scenario;
  TrustLedger ledger(kUsers, trimmed_options());
  // Users 0–2 collude on the same +5 offset: pairwise co-wrong mass 4
  // (one per task) clears min_co_wrong after ONE step — faster than the
  // individual threshold path, which still lacks min_weight evidence.
  const TrustStepReport report =
      scenario.run_step(ledger, {5.0, 5.0, 5.0, 0, 0, 0});
  EXPECT_EQ(report.flagged_cliques, 1u);
  EXPECT_EQ(report.quarantined_users, 3u);
  for (UserId u = 0; u < 3; ++u) EXPECT_TRUE(ledger.quarantined(u));
  for (UserId u = 3; u < kUsers; ++u) EXPECT_FALSE(ledger.quarantined(u));
}

TEST(TrustLedgerTest, OppositeSignErrorsDoNotFormAClique) {
  const Scenario scenario;
  TrustLedger ledger(kUsers, trimmed_options());
  // Users 0 and 1 err together (+5); user 2 errs alone (−5). The only
  // co-wrong pair is {0, 1} — size 2, below min_clique_size — so honest
  // anti-correlated noise never convicts anyone on step one.
  const TrustStepReport report =
      scenario.run_step(ledger, {5.0, 5.0, -5.0, 0, 0, 0});
  EXPECT_EQ(report.flagged_cliques, 0u);
  EXPECT_EQ(report.quarantined_users, 0u);
}

TEST(TrustLedgerTest, FilterDropsQuarantinedUsersReports) {
  // Hand-built state: user 5 mid-quarantine.
  std::istringstream state(
      "trust-ledger v1\n"
      "6 3\n"
      "0 0 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n"
      "100 4 5 0\n"
      "pairs 0\n");
  const TrustLedger ledger = TrustLedger::load(state, trimmed_options());
  ASSERT_TRUE(ledger.quarantined(5));

  ObservationSet raw(kUsers, 1);
  for (UserId u = 0; u < kUsers; ++u) {
    raw.add(0, u, 10.0 + 0.01 * static_cast<double>(u));
  }
  const std::vector<DomainIndex> domains = {0};
  ExpertiseStore store(kUsers, MleOptions{});
  store.add_domain();
  const TrustFilterResult result =
      ledger.filter(raw, domains, store.snapshot(), Eta2Mle{});
  EXPECT_EQ(result.dropped_quarantined, 1u);
  EXPECT_EQ(result.trimmed_observations, 0u);
  EXPECT_FALSE(result.data.has_observation(0, 5));
  EXPECT_EQ(result.data.total_observations(), 5u);
}

TEST(TrustLedgerTest, FilterTrimsTheLargeResidualAgainstProvisionalTruth) {
  // 10 honest reports at 10.0 and one at 60.0: against the provisional
  // mean the outlier's standardized residual is √10 ≈ 3.16 > trim_min_z
  // while every honest report sits at 1/√10. Budget floor(0.2·11) = 2,
  // but only the one offender qualifies.
  constexpr std::size_t n = 11;
  TrustLedger ledger(n, trimmed_options());
  ObservationSet raw(n, 1);
  for (UserId u = 0; u + 1 < n; ++u) raw.add(0, u, 10.0);
  raw.add(0, n - 1, 60.0);
  const std::vector<DomainIndex> domains = {0};
  ExpertiseStore store(n, MleOptions{});
  store.add_domain();
  const TrustFilterResult result =
      ledger.filter(raw, domains, store.snapshot(), Eta2Mle{});
  EXPECT_EQ(result.trimmed_observations, 1u);
  EXPECT_FALSE(result.data.has_observation(0, n - 1));
  EXPECT_EQ(result.data.total_observations(), n - 1);
}

TEST(TrustLedgerTest, FilterTrimTiesCutTheHigherUserId) {
  // Users 3 and 4 are symmetric outliers (identical |z|); with budget
  // floor(0.2·5) = 1 only one can go, and the tie-break must pick the
  // higher id so the survivor set is deterministic.
  constexpr std::size_t n = 5;
  TrustOptions options = trimmed_options();
  options.trim_min_z = 1.0;  // symmetric outliers inflate σ, z ≈ 1.58
  TrustLedger ledger(n, options);
  ObservationSet raw(n, 1);
  for (UserId u = 0; u < 3; ++u) raw.add(0, u, 20.0);
  raw.add(0, 3, 28.0);
  raw.add(0, 4, 12.0);
  const std::vector<DomainIndex> domains = {0};
  ExpertiseStore store(n, MleOptions{});
  store.add_domain();
  const TrustFilterResult result =
      ledger.filter(raw, domains, store.snapshot(), Eta2Mle{});
  EXPECT_EQ(result.trimmed_observations, 1u);
  EXPECT_TRUE(result.data.has_observation(0, 3));
  EXPECT_FALSE(result.data.has_observation(0, 4));
}

TEST(TrustLedgerTest, FilterNeverTrimsBelowOneSurvivor) {
  constexpr std::size_t n = 3;
  TrustOptions options = trimmed_options();
  options.trim_fraction = 1.0;
  options.trim_min_z = 0.0;  // every report qualifies for the trim
  TrustLedger ledger(n, options);
  ObservationSet raw(n, 1);
  raw.add(0, 0, 0.0);
  raw.add(0, 1, 1.0);
  raw.add(0, 2, 5.0);
  const std::vector<DomainIndex> domains = {0};
  ExpertiseStore store(n, MleOptions{});
  store.add_domain();
  const TrustFilterResult result =
      ledger.filter(raw, domains, store.snapshot(), Eta2Mle{});
  EXPECT_EQ(result.data.total_observations(), 1u);
  EXPECT_EQ(result.trimmed_observations, 2u);
}

TEST(TrustLedgerTest, DiscountExpertiseScalesByTrustWithFloor) {
  // User 1 carries moderate residual mass (mean z² = 3 → trust e^{-1});
  // user 2 is quarantined (hard floor).
  std::istringstream state(
      "trust-ledger v1\n"
      "3 2\n"
      "0 0 0 0\n"
      "12 4 0 0\n"
      "100 4 7 0\n"
      "pairs 0\n");
  const TrustLedger ledger = TrustLedger::load(state, trimmed_options());
  Matrix expertise(3, 2, 2.0);
  ledger.discount_expertise(expertise);
  EXPECT_DOUBLE_EQ(expertise.row(0)[0], 2.0);
  EXPECT_DOUBLE_EQ(expertise.row(1)[0], 2.0 * std::exp(-1.0));
  EXPECT_DOUBLE_EQ(expertise.row(2)[0], 2.0 * 0.1);  // alloc_floor
  EXPECT_DOUBLE_EQ(expertise.row(2)[1], 2.0 * 0.1);
}

TEST(TrustLedgerTest, SaveLoadStepKeepsScoringBitIdentical) {
  const Scenario scenario;
  TrustLedger original(kUsers, trimmed_options());
  // Two steps with a clique and a lone deviant: populates residual mass,
  // the agreement graph, and quarantine cursors.
  scenario.run_step(original, {5.0, 5.0, 5.0, 0, 0, -4.0});
  scenario.run_step(original, {0, 0, 0, 0, 0, -4.0});

  std::ostringstream saved;
  original.save(saved);
  std::istringstream in(saved.str());
  TrustLedger restored = TrustLedger::load(in, trimmed_options());
  EXPECT_EQ(restored.step(), original.step());
  for (UserId u = 0; u < kUsers; ++u) {
    EXPECT_EQ(restored.trust(u), original.trust(u)) << "user " << u;
    EXPECT_EQ(restored.quarantined(u), original.quarantined(u));
  }

  // The real contract: a restored ledger must score the NEXT step exactly
  // like the one that never went down.
  TrustLedger live = original;  // value copy, same baseline
  const TrustStepReport live_report =
      scenario.run_step(live, {5.0, 5.0, 5.0, 0, 0, 0});
  const TrustStepReport restored_report =
      scenario.run_step(restored, {5.0, 5.0, 5.0, 0, 0, 0});
  EXPECT_EQ(live_report.suspected_users, restored_report.suspected_users);
  EXPECT_EQ(live_report.quarantined_users, restored_report.quarantined_users);
  EXPECT_EQ(live_report.readmitted_users, restored_report.readmitted_users);
  EXPECT_EQ(live_report.flagged_cliques, restored_report.flagged_cliques);
  std::ostringstream live_saved;
  std::ostringstream restored_saved;
  live.save(live_saved);
  restored.save(restored_saved);
  EXPECT_EQ(live_saved.str(), restored_saved.str());
}

TEST(TrustLedgerTest, LoadRejectsBadHeaderAndTruncation) {
  TrustOptions options = trimmed_options();
  std::istringstream bad_header("trust-ledger v9\n1 0\n0 0 0 0\npairs 0\n");
  EXPECT_THROW(TrustLedger::load(bad_header, options),
               std::invalid_argument);
  std::istringstream truncated("trust-ledger v1\n2 0\n0 0 0 0\n");
  EXPECT_THROW(TrustLedger::load(truncated, options), std::invalid_argument);
  // A corrupt user count fails as a truncation, not as an allocation.
  std::istringstream huge("trust-ledger v1\n1000000000000 0\n0 0 0 0\n");
  EXPECT_THROW(TrustLedger::load(huge, options), std::invalid_argument);

  // Pair rows: the scoring pass indexes per-user rows by both ends of the
  // key, so every key must satisfy lo < hi < users, keys must ascend
  // strictly, and masses must be finite and non-negative.
  const auto load_pairs = [&options](const std::string& pairs) {
    std::istringstream in("trust-ledger v1\n4 3\n0 0 0 0\n0 0 0 0\n"
                          "0 0 0 0\n0 0 0 0\n" + pairs);
    return TrustLedger::load(in, options);
  };
  const std::string user_4096 = std::to_string(std::uint64_t{4096});
  EXPECT_THROW(load_pairs("pairs 1\n" + user_4096 + " 4 4\n"),
               std::invalid_argument);  // (0, 4096) in a 4-user ledger
  EXPECT_THROW(load_pairs("pairs 1\n4 4 4\n"),
               std::invalid_argument);  // (0, 4): hi == users
  EXPECT_THROW(load_pairs("pairs 1\n" +
                          std::to_string((std::uint64_t{1} << 32) | 1) +
                          " 4 4\n"),
               std::invalid_argument);  // (1, 1): self pair
  EXPECT_THROW(load_pairs("pairs 1\n" +
                          std::to_string((std::uint64_t{2} << 32) | 1) +
                          " 4 4\n"),
               std::invalid_argument);  // (2, 1): lo > hi
  EXPECT_THROW(load_pairs("pairs 2\n2 4 4\n1 4 4\n"),
               std::invalid_argument);  // descending keys
  EXPECT_THROW(load_pairs("pairs 2\n2 4 4\n2 4 4\n"),
               std::invalid_argument);  // duplicate key
  EXPECT_THROW(load_pairs("pairs 1\n2 -1 4\n"), std::invalid_argument);
  EXPECT_THROW(load_pairs("pairs 1\n2 4 -0.5\n"), std::invalid_argument);
  EXPECT_THROW(load_pairs("pairs 1\n2 nan 4\n"), std::invalid_argument);
  EXPECT_NO_THROW(load_pairs("pairs 2\n1 4 4\n3 4 4\n"));  // (0,1) (0,3)
}

TEST(TrustLedgerTest, LoadedMapEraBlobSavesByteForByte) {
  // A blob in the layout the std::map-backed ledger wrote (keys ascending,
  // shortest round-trip numbers) loads and saves back unchanged.
  const std::string blob =
      "trust-ledger v1\n4 7\n1.5 2 0 0\n0.3125 0.75 9 1\n3.25 4 0 0\n"
      "0 0 0 2\npairs 3\n1 3.5 4\n3 0.0625 1.25\n4294967298 0.5 2.25\n";
  std::istringstream in(blob);
  const TrustLedger ledger = TrustLedger::load(in, trimmed_options());
  std::ostringstream out;
  ledger.save(out);
  EXPECT_EQ(out.str(), blob);
}

TEST(TrustLedgerTest, NeutralLedgerTrustedUpdateMatchesPlainDynamicUpdate) {
  // With every trust at 1 and the influence cap above expertise_max, the
  // effective expertise IS the raw expertise — the trusted sweep must be
  // bit-identical to truth::dynamic_update, not merely close.
  const Scenario scenario;
  TrustOptions options = trimmed_options();
  options.influence_cap = 1e9;
  const TrustLedger ledger(kUsers, options);
  const ObservationSet data =
      scenario.observe({-0.3, 0.2, -0.1, 0.4, 0.0, 0.25});

  ExpertiseStore plain_store = scenario.store;
  ExpertiseStore trusted_store = scenario.store;
  const Eta2Mle mle;
  const DynamicUpdateResult plain =
      dynamic_update(plain_store, data, scenario.domains, 0.8, mle);
  const DynamicUpdateResult trusted = ledger.trusted_dynamic_update(
      trusted_store, data, scenario.domains, 0.8, mle);
  ASSERT_EQ(plain.mu.size(), trusted.mu.size());
  EXPECT_EQ(plain.iterations, trusted.iterations);
  for (TaskId j = 0; j < plain.mu.size(); ++j) {
    EXPECT_EQ(plain.mu[j], trusted.mu[j]) << "task " << j;
    EXPECT_EQ(plain.sigma[j], trusted.sigma[j]) << "task " << j;
  }
  EXPECT_EQ(plain_store.snapshot(), trusted_store.snapshot());
}

TEST(TrustLedgerTest, DistrustedUserLosesInfluenceOnTheTruth) {
  // User 5 reports +8 off-truth on every task. A ledger that already
  // distrusts them must land the truth estimate closer to the honest
  // consensus than the plain update does.
  const Scenario scenario;
  std::istringstream state(
      "trust-ledger v1\n"
      "6 2\n"
      "0 0 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n"
      "81 4 0 0\n"
      "pairs 0\n");
  const TrustLedger ledger = TrustLedger::load(state, trimmed_options());
  const ObservationSet data =
      scenario.observe({0.1, -0.1, 0.05, -0.05, 0.0, 8.0});

  ExpertiseStore plain_store = scenario.store;
  ExpertiseStore trusted_store = scenario.store;
  const Eta2Mle mle;
  const DynamicUpdateResult plain =
      dynamic_update(plain_store, data, scenario.domains, 0.8, mle);
  const DynamicUpdateResult trusted = ledger.trusted_dynamic_update(
      trusted_store, data, scenario.domains, 0.8, mle);
  for (TaskId j = 0; j < scenario.mu.size(); ++j) {
    EXPECT_LT(std::abs(trusted.mu[j] - scenario.mu[j]),
              std::abs(plain.mu[j] - scenario.mu[j]))
        << "task " << j;
  }
}

TEST(TrustLedgerTest, TrimmedV1GoldenTranscriptBitIdentical) {
  core::Eta2Config config;
  config.trust.tier = DefenseTier::kTrimmedV1;
  const eta2::testing::GoldenRun run =
      eta2::testing::run_labeled_scenario(config);
  EXPECT_EQ(run.transcript, kTrimmedV1_transcript);
  EXPECT_EQ(run.saved, kTrimmedV1_saved);
  EXPECT_EQ(run.post, kTrimmedV1_post);
}

}  // namespace
}  // namespace eta2::truth
