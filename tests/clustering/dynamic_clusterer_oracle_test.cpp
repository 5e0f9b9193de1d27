// Oracle test for the incremental domain linkage of DynamicClusterer.
//
// FullRecomputeClusterer below is the round the library ran before it kept
// the cross-domain distance sums from one round to the next: every round
// rebuilds each unit pair's average distance (paper Eq. 2) from all member
// pairs, O(H²·dim). The library's round computes only the pairs that involve
// the new batch and folds the rest from its kept sums. Randomized
// multi-round sequences must give identical assignments, new domains,
// merges, live domains and d* after every round.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "clustering/dynamic_clusterer.h"
#include "clustering/linkage.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "text/pairword.h"

namespace eta2::clustering {
namespace {

class FullRecomputeClusterer {
 public:
  explicit FullRecomputeClusterer(double gamma) : gamma_(gamma) {}

  [[nodiscard]] double dstar() const { return dstar_; }
  [[nodiscard]] std::vector<DomainId> live_domains() const {
    const std::set<DomainId> live(point_domain_.begin(), point_domain_.end());
    return {live.begin(), live.end()};
  }

  ClusterUpdate add_tasks(std::span<const text::Embedding> vectors) {
    ClusterUpdate update;
    if (vectors.empty()) return update;
    const std::size_t old_count = points_.size();
    points_.insert(points_.end(), vectors.begin(), vectors.end());
    const std::size_t total = points_.size();
    point_domain_.resize(total, 0);

    for (std::size_t i = old_count; i < total; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        dstar_ = std::max(dstar_, text::task_distance(points_[i], points_[j]));
      }
    }
    const double threshold = gamma_ * dstar_;

    // One unit per existing domain (ascending id), then one per new task.
    const std::set<DomainId> existing_set(
        point_domain_.begin(),
        point_domain_.begin() + static_cast<std::ptrdiff_t>(old_count));
    const std::vector<DomainId> existing(existing_set.begin(),
                                         existing_set.end());
    std::vector<std::vector<std::size_t>> unit_members;
    for (const DomainId d : existing) {
      std::vector<std::size_t> members;
      for (std::size_t p = 0; p < old_count; ++p) {
        if (point_domain_[p] == d) members.push_back(p);
      }
      unit_members.push_back(std::move(members));
    }
    const std::size_t existing_units = unit_members.size();
    for (std::size_t p = old_count; p < total; ++p) unit_members.push_back({p});
    const std::size_t n_units = unit_members.size();

    std::vector<double> sizes(n_units, 0.0);
    for (std::size_t u = 0; u < n_units; ++u) {
      sizes[u] = static_cast<double>(unit_members[u].size());
    }
    SymmetricMatrix dist(n_units);
    for (std::size_t u = 1; u < n_units; ++u) {
      for (std::size_t v = 0; v < u; ++v) {
        double sum = 0.0;
        for (const std::size_t p : unit_members[u]) {
          for (const std::size_t q : unit_members[v]) {
            sum += text::task_distance(points_[p], points_[q]);
          }
        }
        dist.set(u, v, sum / (sizes[u] * sizes[v]));
      }
    }

    const auto labels =
        cut_dendrogram(upgma_dendrogram(dist, sizes), n_units, threshold);
    std::size_t label_count = 0;
    for (const std::size_t l : labels) label_count = std::max(label_count, l + 1);
    std::vector<DomainId> label_domain(label_count, 0);
    std::vector<bool> label_has_domain(label_count, false);
    std::vector<double> best_size(label_count, 0.0);
    for (std::size_t u = 0; u < existing_units; ++u) {
      const std::size_t l = labels[u];
      if (!label_has_domain[l] || sizes[u] > best_size[l]) {
        label_has_domain[l] = true;
        label_domain[l] = existing[u];
        best_size[l] = sizes[u];
      }
    }
    for (std::size_t u = 0; u < existing_units; ++u) {
      const std::size_t l = labels[u];
      if (label_domain[l] != existing[u]) {
        update.merges.push_back(DomainMerge{label_domain[l], existing[u]});
      }
    }
    for (std::size_t l = 0; l < label_count; ++l) {
      if (!label_has_domain[l]) {
        label_domain[l] = next_domain_++;
        label_has_domain[l] = true;
        update.new_domains.push_back(label_domain[l]);
      }
    }
    for (std::size_t u = 0; u < n_units; ++u) {
      for (const std::size_t p : unit_members[u]) {
        point_domain_[p] = label_domain[labels[u]];
      }
    }
    for (std::size_t p = old_count; p < total; ++p) {
      update.assignments.push_back(point_domain_[p]);
    }
    return update;
  }

 private:
  double gamma_;
  double dstar_ = 0.0;
  std::vector<text::Embedding> points_;
  std::vector<DomainId> point_domain_;
  DomainId next_domain_ = 0;
};

// Point layouts for the randomized rounds.
enum class Layout {
  // Gaussian topic blobs; each round samples a few of them.
  kBlobs,
  // Blobs whose spread widens every round: d* and with it the merge
  // threshold γ·d* grow, so domains from earlier rounds merge.
  kWidening,
};

std::vector<std::vector<text::Embedding>> make_rounds(
    Layout layout, std::size_t batch, std::size_t rounds, std::size_t dim,
    std::uint64_t seed) {
  Rng rng(seed);
  constexpr std::size_t kTopics = 6;
  std::vector<text::Embedding> centers(kTopics, text::Embedding(dim));
  for (auto& c : centers) {
    for (double& x : c) x = rng.uniform(-4.0, 4.0);
  }
  std::vector<std::vector<text::Embedding>> out(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    const double spread =
        layout == Layout::kWidening ? 0.3 * std::pow(1.6, static_cast<double>(r))
                                    : 0.6;
    for (std::size_t t = 0; t < batch; ++t) {
      const auto topic = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kTopics) - 1));
      text::Embedding v(dim);
      for (std::size_t k = 0; k < dim; ++k) {
        v[k] = centers[topic][k] + spread * rng.normal();
      }
      out[r].push_back(std::move(v));
    }
  }
  return out;
}

void expect_same_update(const ClusterUpdate& got, const ClusterUpdate& want,
                        const std::string& where) {
  EXPECT_EQ(got.assignments, want.assignments) << where;
  EXPECT_EQ(got.new_domains, want.new_domains) << where;
  ASSERT_EQ(got.merges.size(), want.merges.size()) << where;
  for (std::size_t m = 0; m < got.merges.size(); ++m) {
    EXPECT_EQ(got.merges[m].kept, want.merges[m].kept) << where;
    EXPECT_EQ(got.merges[m].absorbed, want.merges[m].absorbed) << where;
  }
}

std::size_t rounds_for(std::size_t batch) {
  return batch == 1 ? 60 : batch == 7 ? 20 : 6;
}

std::string save_text(const DynamicClusterer& clusterer) {
  std::ostringstream out;
  clusterer.save(out);
  return out.str();
}

class IncrementalVsFullRecompute
    : public ::testing::TestWithParam<std::tuple<double, std::size_t, Layout>> {};

TEST_P(IncrementalVsFullRecompute, EveryRoundMatches) {
  const auto [gamma, batch, layout] = GetParam();
  const auto rounds =
      make_rounds(layout, batch, rounds_for(batch), 8,
                  1000 + batch + static_cast<std::uint64_t>(gamma * 10.0));
  DynamicClusterer incremental(gamma);
  FullRecomputeClusterer oracle(gamma);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const std::string where = "round " + std::to_string(r);
    const ClusterUpdate got = incremental.add_tasks(rounds[r]);
    const ClusterUpdate want = oracle.add_tasks(rounds[r]);
    expect_same_update(got, want, where);
    EXPECT_EQ(incremental.live_domains(), oracle.live_domains()) << where;
    EXPECT_EQ(incremental.dstar(), oracle.dstar()) << where;
  }
}

std::string case_name(
    const ::testing::TestParamInfo<IncrementalVsFullRecompute::ParamType>&
        info) {
  const double gamma = std::get<0>(info.param);
  return "gamma" + std::to_string(static_cast<int>(gamma * 10.0)) + "_batch" +
         std::to_string(std::get<1>(info.param)) +
         (std::get<2>(info.param) == Layout::kBlobs ? "_blobs" : "_widening");
}

INSTANTIATE_TEST_SUITE_P(
    GammaBatchLayout, IncrementalVsFullRecompute,
    ::testing::Combine(::testing::Values(0.0, 0.2, 0.5, 1.0),
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{150}),
                       ::testing::Values(Layout::kBlobs, Layout::kWidening)),
    case_name);

// The widening layout must really merge existing domains, or the fold of
// the kept sums across a merge goes untested.
TEST(IncrementalVsFullRecomputeCoverage, WideningLayoutMergesExistingDomains) {
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{150}}) {
    for (const double gamma : {0.2, 0.5}) {
      const auto rounds = make_rounds(
          Layout::kWidening, batch, rounds_for(batch), 8,
          1000 + batch + static_cast<std::uint64_t>(gamma * 10.0));
      DynamicClusterer clusterer(gamma);
      std::size_t merges = 0;
      for (const auto& round : rounds) {
        merges += clusterer.add_tasks(round).merges.size();
      }
      EXPECT_GT(merges, 0u) << "batch " << batch << " gamma " << gamma;
    }
  }
}

// A save → load → continue run must match the uninterrupted run, round by
// round, down to the saved state.
TEST(IncrementalPersistence, LoadedClustererContinuesLikeUninterrupted) {
  for (const double gamma : {0.0, 0.2, 0.5, 1.0}) {
    const auto rounds = make_rounds(Layout::kWidening, 7, 20, 8, 77);
    DynamicClusterer uninterrupted(gamma);
    FullRecomputeClusterer oracle(gamma);
    for (std::size_t r = 0; r < 10; ++r) {
      (void)uninterrupted.add_tasks(rounds[r]);
      (void)oracle.add_tasks(rounds[r]);
    }
    std::istringstream in(save_text(uninterrupted));
    DynamicClusterer resumed = DynamicClusterer::load(in);
    EXPECT_EQ(resumed.live_domains(), uninterrupted.live_domains());
    for (std::size_t r = 10; r < rounds.size(); ++r) {
      const std::string where =
          "gamma " + std::to_string(gamma) + " round " + std::to_string(r);
      const ClusterUpdate want = uninterrupted.add_tasks(rounds[r]);
      expect_same_update(resumed.add_tasks(rounds[r]), want, where);
      expect_same_update(oracle.add_tasks(rounds[r]), want, where);
      EXPECT_EQ(resumed.live_domains(), uninterrupted.live_domains()) << where;
      EXPECT_EQ(resumed.dstar(), uninterrupted.dstar()) << where;
    }
    EXPECT_EQ(save_text(resumed), save_text(uninterrupted));
  }
}

// Every round, and the sums load() rebuilds, are identical at 1, 2 and 8
// threads.
TEST(IncrementalDeterminism, IdenticalAtAnyThreadCount) {
  const auto rounds = make_rounds(Layout::kWidening, 150, 5, 64, 9);
  const auto run = [&rounds](std::size_t threads) {
    parallel::set_thread_count(threads);
    DynamicClusterer clusterer(0.5);
    std::vector<ClusterUpdate> updates;
    for (std::size_t r = 0; r < 3; ++r) {
      updates.push_back(clusterer.add_tasks(rounds[r]));
    }
    std::istringstream in(save_text(clusterer));
    DynamicClusterer resumed = DynamicClusterer::load(in);
    for (std::size_t r = 3; r < rounds.size(); ++r) {
      updates.push_back(resumed.add_tasks(rounds[r]));
    }
    parallel::set_thread_count(0);
    return std::make_pair(updates, save_text(resumed));
  };
  const auto [serial_updates, serial_state] = run(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto [updates, state] = run(threads);
    ASSERT_EQ(updates.size(), serial_updates.size());
    for (std::size_t r = 0; r < updates.size(); ++r) {
      expect_same_update(updates[r], serial_updates[r],
                         std::to_string(threads) + " threads, round " +
                             std::to_string(r));
    }
    EXPECT_EQ(state, serial_state) << threads << " threads";
  }
}

}  // namespace
}  // namespace eta2::clustering
