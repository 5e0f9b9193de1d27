// Golden end-to-end determinism test for the staged pipeline refactor.
//
// The golden_transcripts.h constants were captured by running the scenarios
// of golden_scenarios.h against the pre-refactor implementation and are
// bit-exact. The staged pipeline must reproduce every one of them —
// warm-up random allocation, max-quality, min-cost, clustering — and must
// still load the v1 save blobs and continue identically.
#include <gtest/gtest.h>

#include "golden_scenarios.h"
#include "golden_transcripts.h"

namespace eta2::testing {
namespace {

TEST(GoldenStepTest, MaxQualityPathBitIdentical) {
  const GoldenRun run = run_labeled_scenario(max_quality_config());
  EXPECT_EQ(run.transcript, kMaxQuality_transcript);
  EXPECT_EQ(run.saved, kMaxQuality_saved);
  EXPECT_EQ(run.post, kMaxQuality_post);
}

TEST(GoldenStepTest, MinCostPathBitIdentical) {
  const GoldenRun run = run_labeled_scenario(min_cost_config());
  EXPECT_EQ(run.transcript, kMinCost_transcript);
  EXPECT_EQ(run.saved, kMinCost_saved);
  EXPECT_EQ(run.post, kMinCost_post);
}

TEST(GoldenStepTest, ClusteringPathBitIdentical) {
  const GoldenRun run = run_described_scenario(clustering_config());
  EXPECT_EQ(run.transcript, kClustering_transcript);
  EXPECT_EQ(run.saved, kClustering_saved);
  EXPECT_EQ(run.post, kClustering_post);
}

// The embedded save blobs came from the pre-refactor build; loading them
// directly (not a round-trip through the current save()) and stepping must
// match the pre-refactor continuation bit for bit.
TEST(GoldenStepTest, V1SaveBlobsStillLoadAndContinue) {
  EXPECT_EQ(labeled_post_step(max_quality_config(), kMaxQuality_saved),
            kMaxQuality_post);
  EXPECT_EQ(labeled_post_step(min_cost_config(), kMinCost_saved),
            kMinCost_post);
  EXPECT_EQ(described_post_step(clustering_config(), kClustering_saved),
            kClustering_post);
}

// DefenseTier::kOff is the contract that the adversarial-defense code is
// invisible until opted into: even with every trust knob moved off its
// default, tier kOff must reproduce the pre-trust transcript AND the
// pre-trust save blob byte for byte (no ledger trailer).
TEST(GoldenStepTest, TrustKnobsWithTierOffStayByteIdentical) {
  core::Eta2Config config = max_quality_config();
  config.trust.tier = truth::DefenseTier::kOff;
  config.trust.decay = 0.5;
  config.trust.temperature = 1.0;
  config.trust.quarantine_steps = 1;
  config.trust.trim_fraction = 0.5;
  config.trust.influence_cap = 1.0;
  const GoldenRun run = run_labeled_scenario(config);
  EXPECT_EQ(run.transcript, kMaxQuality_transcript);
  EXPECT_EQ(run.saved, kMaxQuality_saved);
  EXPECT_EQ(run.post, kMaxQuality_post);
}

// Selecting the same stages by explicit registry name (instead of the
// legacy use_min_cost toggle) must be the identical code path.
TEST(GoldenStepTest, ExplicitStageNamesMatchLegacyToggles) {
  core::Eta2Config config;
  config.allocator = "min-cost";
  config.cost_per_iteration = 8.0;
  config.epsilon_bar = 0.6;
  const GoldenRun run = run_labeled_scenario(config);
  EXPECT_EQ(run.transcript, kMinCost_transcript);
  EXPECT_EQ(run.post, kMinCost_post);
}

}  // namespace
}  // namespace eta2::testing
