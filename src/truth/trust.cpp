#include "truth/trust.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>
#include <string>
#include <system_error>
#include <vector>

#include "common/error.h"
#include "truth/sharding.h"

namespace eta2::truth {
namespace {

void write_number(std::ostream& out, double value) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  ensure(ec == std::errc(), "TrustLedger::save: formatting failure");
  out.write(buffer, ptr - buffer);
}

std::uint64_t pair_key(UserId a, UserId b) {
  const std::uint64_t lo = std::min(a, b);
  const std::uint64_t hi = std::max(a, b);
  return (lo << 32) | hi;
}

std::size_t pair_lo(std::uint64_t key) { return key >> 32; }
std::size_t pair_hi(std::uint64_t key) { return key & 0xffffffffULL; }

// Adds `count` ones one at a time: x + 1 + 1 can round differently from
// x + 2 when x is a decayed non-integer, and the per-pair pass this count
// replaces added them one by one.
void add_ones(double& x, std::size_t count) {
  for (; count > 0; --count) x += 1.0;
}

// Union-find over user ids for the per-step clique clustering. Path
// halving + union by size; scratch-allocated per end_step (user counts are
// the campaign's n, not the million-task axis).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

void check_rate(double rate, std::string_view what) {
  require(rate >= 0.0 && rate <= 1.0, what);
}

}  // namespace

TrustLedger::TrustLedger(std::size_t user_count, TrustOptions options)
    : options_(options),
      m2_(user_count, 0.0),
      w_(user_count, 0.0),
      quarantined_until_(user_count, 0),
      readmissions_(user_count, 0) {
  require(user_count >= 1, "TrustLedger: need at least one user");
  check_rate(options_.decay, "TrustLedger: decay in [0,1]");
  require(options_.z_clip > 0.0, "TrustLedger: z_clip > 0");
  require(options_.temperature > 0.0, "TrustLedger: temperature > 0");
  require(options_.quarantine_threshold <= options_.suspect_threshold,
          "TrustLedger: quarantine_threshold <= suspect_threshold");
  require(options_.min_weight >= 0.0, "TrustLedger: min_weight >= 0");
  require(options_.quarantine_steps >= 1,
          "TrustLedger: quarantine_steps >= 1");
  require(options_.probation_weight > 0.0,
          "TrustLedger: probation_weight > 0");
  require(options_.agreement_z > 0.0, "TrustLedger: agreement_z > 0");
  check_rate(options_.co_wrong_ratio, "TrustLedger: co_wrong_ratio in [0,1]");
  require(options_.min_clique_size >= 2,
          "TrustLedger: min_clique_size >= 2");
  check_rate(options_.trim_fraction, "TrustLedger: trim_fraction in [0,1]");
  require(options_.trim_min_z >= 0.0, "TrustLedger: trim_min_z >= 0");
  require(options_.influence_cap > 0.0, "TrustLedger: influence_cap > 0");
  require(options_.trust_floor > 0.0 && options_.trust_floor <= 1.0,
          "TrustLedger: trust_floor in (0,1]");
  require(options_.alloc_floor > 0.0 && options_.alloc_floor <= 1.0,
          "TrustLedger: alloc_floor in (0,1]");
}

double TrustLedger::trust(UserId user) const {
  require(user < m2_.size(), "TrustLedger::trust: user out of range");
  if (w_[user] <= 0.0) return 1.0;
  const double mean = m2_[user] / w_[user];
  if (mean <= 1.0) return 1.0;
  return std::exp(-(mean - 1.0) / options_.temperature);
}

bool TrustLedger::suspected(UserId user) const {
  return trust(user) < options_.suspect_threshold;
}

bool TrustLedger::quarantined(UserId user) const {
  require(user < quarantined_until_.size(),
          "TrustLedger::quarantined: user out of range");
  return quarantined_until_[user] != 0;
}

std::vector<char> TrustLedger::quarantine_flags() const {
  std::vector<char> flags(quarantined_until_.size(), 0);
  for (std::size_t u = 0; u < flags.size(); ++u) {
    flags[u] = quarantined_until_[u] != 0 ? 1 : 0;
  }
  return flags;
}

void TrustLedger::discount_expertise(Matrix& expertise) const {
  require(expertise.rows() == m2_.size(),
          "TrustLedger::discount_expertise: row count != user count");
  for (std::size_t u = 0; u < expertise.rows(); ++u) {
    const double factor = quarantined_until_[u] != 0
                              ? options_.alloc_floor
                              : std::max(trust(u), options_.alloc_floor);
    if (factor >= 1.0) continue;
    for (double& cell : expertise.row(u)) cell *= factor;
  }
}

TrustFilterResult TrustLedger::filter(
    const ObservationSet& raw, std::span<const DomainIndex> task_domain,
    const std::vector<std::vector<double>>& expertise,
    const Eta2Mle& mle) const {
  require(raw.user_count() == m2_.size(),
          "TrustLedger::filter: user count mismatch");
  require(task_domain.size() == raw.task_count(),
          "TrustLedger::filter: domain labels != task count");

  TrustFilterResult result;
  // Pass 1: drop quarantined users' reports.
  ObservationSet kept(raw.user_count(), raw.task_count());
  for (TaskId j = 0; j < raw.task_count(); ++j) {
    for (const Observation& obs : raw.for_task(j)) {
      if (quarantined_until_[obs.user] != 0) {
        ++result.dropped_quarantined;
        continue;
      }
      kept.add(j, obs.user, obs.value);
    }
  }
  if (options_.trim_fraction <= 0.0) {
    result.data = std::move(kept);
    return result;
  }

  // Pass 2: provisional fixed-expertise truth, then per-task residual trim.
  std::vector<double> mu;
  std::vector<double> sigma;
  mle.estimate_truth_only(kept, task_domain, expertise, mu, sigma);

  const double sigma_min = mle.options().sigma_min;
  ObservationSet trimmed(raw.user_count(), raw.task_count());
  std::vector<std::pair<double, UserId>> order;  // (|z|, user)
  for (TaskId j = 0; j < raw.task_count(); ++j) {
    const std::span<const Observation> obs = kept.for_task(j);
    const std::size_t budget =
        obs.size() >= 3 ? static_cast<std::size_t>(
                              std::floor(options_.trim_fraction *
                                         static_cast<double>(obs.size())))
                        : 0;
    std::size_t cut = 0;
    order.clear();
    if (budget > 0 && !std::isnan(mu[j])) {
      const double s = std::max(sigma[j], sigma_min);
      const DomainIndex k = task_domain[j];
      for (const Observation& o : obs) {
        const double u = expertise[o.user][k];
        const double z = std::abs((o.value - mu[j]) * u / s);
        if (z > options_.trim_min_z) order.emplace_back(z, o.user);
      }
      // Largest residual first; ties trim the higher user id first (so the
      // survivor set is the lexicographically smallest, deterministic).
      std::sort(order.begin(), order.end(),
                [](const auto& a, const auto& b) {
                  if (a.first != b.first) return a.first > b.first;
                  return a.second > b.second;
                });
      cut = std::min(budget, order.size());
      if (obs.size() - cut < 1) cut = obs.size() - 1;
      order.resize(cut);
    }
    for (const Observation& o : obs) {
      bool drop = false;
      for (const auto& [z, user] : order) {
        if (user == o.user) {
          drop = true;
          break;
        }
      }
      if (drop) {
        ++result.trimmed_observations;
        continue;
      }
      trimmed.add(j, o.user, o.value);
    }
  }
  result.data = std::move(trimmed);
  return result;
}

DynamicUpdateResult TrustLedger::trusted_dynamic_update(
    ExpertiseStore& store, const ObservationSet& data,
    std::span<const DomainIndex> task_domain, double alpha,
    const Eta2Mle& mle) const {
  require(data.user_count() == store.user_count(),
          "trusted_dynamic_update: user count mismatch");
  SweepWeights weights;
  weights.influence_cap = options_.influence_cap;
  weights.user_weight.resize(store.user_count());
  for (UserId u = 0; u < weights.user_weight.size(); ++u) {
    weights.user_weight[u] =
        std::sqrt(std::max(trust(u), options_.trust_floor));
  }
  return sharded_dynamic_update(
      store, data, task_domain, alpha, mle,
      ShardPlan::build(task_domain, store.domain_count(), 0), weights);
}

void TrustLedger::quarantine_user(UserId user) {
  quarantined_until_[user] = step_ + options_.quarantine_steps + 1;
}

TrustStepReport TrustLedger::end_step(const ObservationSet& raw,
                                      std::span<const DomainIndex> task_domain,
                                      std::span<const double> mu,
                                      std::span<const double> sigma,
                                      const ExpertiseStore& store) {
  require(raw.user_count() == m2_.size(),
          "TrustLedger::end_step: user count mismatch");
  require(task_domain.size() == raw.task_count(),
          "TrustLedger::end_step: domain labels != task count");
  require(mu.size() == raw.task_count() && sigma.size() == raw.task_count(),
          "TrustLedger::end_step: truth planes != task count");

  TrustStepReport report;
  ++step_;

  // Re-admission first: expired quarantines return on probation, scored
  // fresh from this step's reports onward.
  for (UserId u = 0; u < m2_.size(); ++u) {
    if (quarantined_until_[u] != 0 && step_ >= quarantined_until_[u]) {
      quarantined_until_[u] = 0;
      m2_[u] = options_.probation_weight;  // mean z² = 1: trust 1, thin
      w_[u] = options_.probation_weight;
      ++readmissions_[u];
      ++report.readmitted_users;
    }
  }

  // Decay history, then fold in this step's standardized residuals. Raw
  // observations on purpose: quarantined users keep being scored.
  for (UserId u = 0; u < m2_.size(); ++u) {
    m2_[u] *= options_.decay;
    w_[u] *= options_.decay;
  }
  for (Pair& pair : pairs_) {
    pair.co_wrong *= options_.decay;
    pair.co_observed *= options_.decay;
  }
  std::erase_if(pairs_, [this](const Pair& pair) {
    return pair.co_wrong < options_.pair_floor;
  });

  // Task pass: residuals into the per-user ledger, and each scored report
  // into its user's task bitsets.
  const std::size_t words = (raw.task_count() + 63) / 64;
  scratch_.words = words;
  scratch_.seen.assign(m2_.size() * words, 0);
  scratch_.wrong_pos.assign(m2_.size() * words, 0);
  scratch_.wrong_neg.assign(m2_.size() * words, 0);
  scratch_.fresh.clear();
  const double sigma_min = store.options().sigma_min;
  for (TaskId j = 0; j < raw.task_count(); ++j) {
    if (std::isnan(mu[j])) continue;
    const double s = std::max(sigma[j], sigma_min);
    const DomainIndex k = task_domain[j];
    const std::size_t word = j / 64;
    const std::uint64_t bit = std::uint64_t{1} << (j % 64);
    scratch_.task_pos.clear();
    scratch_.task_neg.clear();
    for (const Observation& obs : raw.for_task(j)) {
      const double u = store.expertise(obs.user, k);
      const double z = (obs.value - mu[j]) * u / s;
      if (!std::isfinite(z)) continue;
      m2_[obs.user] += std::min(z * z, options_.z_clip);
      w_[obs.user] += 1.0;
      const std::size_t cell = obs.user * words + word;
      scratch_.seen[cell] |= bit;
      if (z > options_.agreement_z) {
        scratch_.wrong_pos[cell] |= bit;
        scratch_.task_pos.push_back(obs.user);
      } else if (z < -options_.agreement_z) {
        scratch_.wrong_neg[cell] |= bit;
        scratch_.task_neg.push_back(obs.user);
      }
    }
    note_fresh_pairs(scratch_.task_pos, j);
    note_fresh_pairs(scratch_.task_neg, j);
  }

  // Agreement graph: pairs that are wrong together in the same direction.
  // Entries are created on first co-error; existing entries also track
  // shared-task exposure so the edge test is agreement *beyond chance*.
  // Live pairs count every task of the step; a pair first co-wrong on task
  // t counts tasks t onward, and joins the key-sorted graph once.
  for (Pair& pair : pairs_) count_shared_tasks(pair, 0);
  std::vector<std::pair<std::uint64_t, TaskId>>& fresh = scratch_.fresh;
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              fresh.end());
  const std::size_t live = pairs_.size();
  for (const auto& [key, first_task] : fresh) {
    Pair& pair = pairs_.emplace_back(Pair{key});
    count_shared_tasks(pair, first_task);
  }
  std::inplace_merge(
      pairs_.begin(), pairs_.begin() + static_cast<std::ptrdiff_t>(live),
      pairs_.end(),
      [](const Pair& a, const Pair& b) { return a.key < b.key; });

  // Clique clustering: union co-wrong-beyond-chance edges, quarantine
  // components at or above the size threshold. Key order keeps the fold
  // deterministic.
  UnionFind uf(m2_.size());
  for (const Pair& pair : pairs_) {
    if (pair.co_wrong >= options_.min_co_wrong &&
        pair.co_wrong >= options_.co_wrong_ratio * pair.co_observed) {
      uf.unite(pair_lo(pair.key), pair_hi(pair.key));
    }
  }
  std::vector<std::size_t> component_size(m2_.size(), 0);
  for (UserId u = 0; u < m2_.size(); ++u) ++component_size[uf.find(u)];
  std::vector<char> flagged_root(m2_.size(), 0);
  for (UserId u = 0; u < m2_.size(); ++u) {
    const std::size_t root = uf.find(u);
    if (component_size[root] < options_.min_clique_size) continue;
    if (!flagged_root[root]) {
      flagged_root[root] = 1;
      ++report.flagged_cliques;
    }
    if (quarantined_until_[u] == 0) quarantine_user(u);
  }

  // Threshold quarantines + the step's trust census.
  for (UserId u = 0; u < m2_.size(); ++u) {
    const double t = trust(u);
    if (quarantined_until_[u] == 0 && t < options_.quarantine_threshold &&
        w_[u] >= options_.min_weight) {
      quarantine_user(u);
    }
    if (t < options_.suspect_threshold) ++report.suspected_users;
    if (quarantined_until_[u] != 0) ++report.quarantined_users;
    const auto bucket = std::min(
        kTrustHistogramBuckets - 1,
        static_cast<std::size_t>(t * static_cast<double>(
                                         kTrustHistogramBuckets)));
    ++report.trust_histogram[bucket];
  }
  return report;
}

void TrustLedger::note_fresh_pairs(std::span<const UserId> wrong,
                                   TaskId task) {
  for (std::size_t a = 0; a < wrong.size(); ++a) {
    for (std::size_t b = a + 1; b < wrong.size(); ++b) {
      const std::uint64_t key = pair_key(wrong[a], wrong[b]);
      const auto it = std::lower_bound(
          pairs_.begin(), pairs_.end(), key,
          [](const Pair& pair, std::uint64_t k) { return pair.key < k; });
      if (it == pairs_.end() || it->key != key) {
        scratch_.fresh.emplace_back(key, task);
      }
    }
  }
}

void TrustLedger::count_shared_tasks(Pair& pair, TaskId first_task) const {
  const std::size_t words = scratch_.words;
  const std::size_t a = pair_lo(pair.key) * words;
  const std::size_t b = pair_hi(pair.key) * words;
  std::size_t observed = 0;
  std::size_t co_wrong = 0;
  for (std::size_t w = first_task / 64; w < words; ++w) {
    const std::uint64_t from =
        w == first_task / 64 ? ~std::uint64_t{0} << (first_task % 64)
                             : ~std::uint64_t{0};
    observed += static_cast<std::size_t>(
        std::popcount(scratch_.seen[a + w] & scratch_.seen[b + w] & from));
    co_wrong += static_cast<std::size_t>(std::popcount(
        ((scratch_.wrong_pos[a + w] & scratch_.wrong_pos[b + w]) |
         (scratch_.wrong_neg[a + w] & scratch_.wrong_neg[b + w])) &
        from));
  }
  add_ones(pair.co_observed, observed);
  add_ones(pair.co_wrong, co_wrong);
}

void TrustLedger::save(std::ostream& out) const {
  out << "trust-ledger v1\n";
  out << m2_.size() << ' ' << step_ << '\n';
  for (UserId u = 0; u < m2_.size(); ++u) {
    write_number(out, m2_[u]);
    out << ' ';
    write_number(out, w_[u]);
    out << ' ' << quarantined_until_[u] << ' ' << readmissions_[u] << '\n';
  }
  out << "pairs " << pairs_.size() << '\n';
  for (const Pair& pair : pairs_) {
    out << pair.key << ' ';
    write_number(out, pair.co_wrong);
    out << ' ';
    write_number(out, pair.co_observed);
    out << '\n';
  }
}

TrustLedger TrustLedger::load(std::istream& in, TrustOptions options) {
  std::string tag;
  std::string version;
  require(static_cast<bool>(in >> tag >> version) && tag == "trust-ledger" &&
              version == "v1",
          "TrustLedger::load: bad header");
  return load_body(in, options);
}

TrustLedger TrustLedger::load_body(std::istream& in, TrustOptions options) {
  std::string tag;
  std::size_t users = 0;
  std::uint64_t step = 0;
  require(static_cast<bool>(in >> users >> step) && users >= 1,
          "TrustLedger::load: bad dimensions");
  // Rows are read before the ledger is sized, so a corrupt user count fails
  // as a truncation instead of allocating that many users.
  std::vector<double> m2;
  std::vector<double> w;
  std::vector<std::uint64_t> quarantined_until;
  std::vector<std::uint64_t> readmissions;
  for (UserId u = 0; u < users; ++u) {
    double row_m2 = 0.0;
    double row_w = 0.0;
    std::uint64_t row_until = 0;
    std::uint64_t row_readmissions = 0;
    require(static_cast<bool>(in >> row_m2 >> row_w >> row_until >>
                              row_readmissions),
            "TrustLedger::load: truncated user row");
    m2.push_back(row_m2);
    w.push_back(row_w);
    quarantined_until.push_back(row_until);
    readmissions.push_back(row_readmissions);
  }
  TrustLedger ledger(users, options);
  ledger.step_ = step;
  ledger.m2_ = std::move(m2);
  ledger.w_ = std::move(w);
  ledger.quarantined_until_ = std::move(quarantined_until);
  ledger.readmissions_ = std::move(readmissions);
  std::size_t pair_count = 0;
  require(static_cast<bool>(in >> tag >> pair_count) && tag == "pairs",
          "TrustLedger::load: bad pairs header");
  for (std::size_t i = 0; i < pair_count; ++i) {
    Pair pair;
    require(static_cast<bool>(in >> pair.key >> pair.co_wrong >>
                              pair.co_observed),
            "TrustLedger::load: truncated pair row");
    // The scoring pass indexes per-user rows by both ends of the key.
    require(pair_lo(pair.key) < pair_hi(pair.key) && pair_hi(pair.key) < users,
            "TrustLedger::load: pair key out of range");
    require(ledger.pairs_.empty() || ledger.pairs_.back().key < pair.key,
            "TrustLedger::load: pair keys not strictly ascending");
    require(std::isfinite(pair.co_wrong) && pair.co_wrong >= 0.0 &&
                std::isfinite(pair.co_observed) &&
                pair.co_observed >= 0.0,
            "TrustLedger::load: bad pair mass");
    ledger.pairs_.push_back(pair);
  }
  return ledger;
}

}  // namespace eta2::truth
