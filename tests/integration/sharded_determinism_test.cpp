// Server-level determinism of the sharded step pipeline (DESIGN.md §12):
// the truth engine fans every Eq. 5–9 sweep out one pool task per domain
// shard, and the golden transcripts — max-quality, min-cost, clustering,
// and the kTrimmedV1 pinned transcript with its trusted sweep — must come
// out byte for byte at 1, 2 and 8 threads. Runs in the sanitize-tagged
// determinism binary so the TSan job covers the shard dispatch, defended
// steps included. Shard layouts other than one per domain are covered
// against the monolithic oracles in tests/truth/sharding_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../core/golden_scenarios.h"
#include "../core/golden_transcripts.h"
#include "../truth/trimmed_v1_golden.h"
#include "common/parallel.h"
#include "core/config.h"

namespace eta2 {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

std::string run_labeled(const core::Eta2Config& config, std::size_t threads) {
  parallel::set_thread_count(threads);
  const testing::GoldenRun run = testing::run_labeled_scenario(config);
  parallel::set_thread_count(0);
  return run.transcript + run.saved + run.post;
}

std::string run_described(const core::Eta2Config& config, std::size_t threads) {
  parallel::set_thread_count(threads);
  const testing::GoldenRun run = testing::run_described_scenario(config);
  parallel::set_thread_count(0);
  return run.transcript + run.saved + run.post;
}

TEST(ShardedDeterminismTest, LabeledTranscriptStableAcrossThreadsAndShards) {
  const std::string golden = std::string(testing::kMaxQuality_transcript) +
                             testing::kMaxQuality_saved +
                             testing::kMaxQuality_post;
  for (const std::size_t threads : kThreadCounts) {
    EXPECT_EQ(golden, run_labeled(testing::max_quality_config(), threads))
        << "threads=" << threads;
  }
}

TEST(ShardedDeterminismTest, DescribedTranscriptStableAcrossThreadsAndShards) {
  const std::string golden = std::string(testing::kClustering_transcript) +
                             testing::kClustering_saved +
                             testing::kClustering_post;
  for (const std::size_t threads : kThreadCounts) {
    EXPECT_EQ(golden, run_described(testing::clustering_config(), threads))
        << "threads=" << threads;
  }
}

TEST(ShardedDeterminismTest, MinCostPipelineUnaffectedByShardKnobs) {
  // Min-cost re-runs the batch estimate every data round, each one sharded.
  const std::string golden = std::string(testing::kMinCost_transcript) +
                             testing::kMinCost_saved + testing::kMinCost_post;
  for (const std::size_t threads : kThreadCounts) {
    EXPECT_EQ(golden, run_labeled(testing::min_cost_config(), threads))
        << "threads=" << threads;
  }
}

TEST(ShardedDeterminismTest, TrimmedV1TranscriptStableAcrossThreads) {
  // Defended steady-state steps run the weighted engine: filter, trusted
  // sweep and ledger trailer must reproduce the pinned bytes.
  core::Eta2Config config;
  config.trust.tier = truth::DefenseTier::kTrimmedV1;
  const std::string golden = std::string(truth::kTrimmedV1_transcript) +
                             truth::kTrimmedV1_saved + truth::kTrimmedV1_post;
  for (const std::size_t threads : kThreadCounts) {
    EXPECT_EQ(golden, run_labeled(config, threads)) << "threads=" << threads;
  }
}

// Single-domain batches: one shard carries every task of the run.
std::string run_single_domain(std::size_t threads) {
  parallel::set_thread_count(threads);
  const std::size_t users = 5;
  const std::vector<double> caps(users, 6.0);
  core::Eta2Server server(users, core::Eta2Config{}, nullptr);
  Rng rng(11);
  std::string transcript;
  for (int step = 0; step < 3; ++step) {
    std::vector<core::Eta2Server::NewTask> tasks(4);
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      tasks[t].known_domain = 0;  // one domain for the whole run
      tasks[t].processing_time = 1.0 + 0.5 * static_cast<double>(t % 2);
    }
    transcript += testing::format_step(
        step, server.step(tasks, caps, testing::golden_collect(step), rng));
  }
  parallel::set_thread_count(0);
  return transcript;
}

TEST(ShardedDeterminismTest, SingleDomainTranscriptStableAcrossThreads) {
  const std::string reference = run_single_domain(1);
  for (const std::size_t threads : kThreadCounts) {
    EXPECT_EQ(reference, run_single_domain(threads)) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace eta2
