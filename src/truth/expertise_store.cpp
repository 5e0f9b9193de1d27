#include "truth/expertise_store.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>
#include <string>

#include "common/check.h"
#include "common/error.h"
#include "truth/sharding.h"

namespace eta2::truth {

ExpertiseStore::ExpertiseStore(std::size_t user_count, MleOptions options)
    : options_(options), num_(user_count), den_(user_count) {}

DomainIndex ExpertiseStore::add_domain() {
  const DomainIndex idx = domain_count_++;
  for (auto& row : num_) row.push_back(0.0);
  for (auto& row : den_) row.push_back(0.0);
  return idx;
}

double ExpertiseStore::expertise_from(double num, double den) const {
  if (num <= 0.0) return options_.initial_expertise;
  return expertise_update(options_, num, den);
}

double ExpertiseStore::expertise(UserId user, DomainIndex domain) const {
  require(user < num_.size(), "ExpertiseStore::expertise: user out of range");
  require(domain < domain_count_, "ExpertiseStore::expertise: domain out of range");
  return expertise_from(num_[user][domain], den_[user][domain]);
}

std::vector<std::vector<double>> ExpertiseStore::snapshot() const {
  std::vector<std::vector<double>> out(num_.size(),
                                       std::vector<double>(domain_count_, 0.0));
  for (UserId i = 0; i < num_.size(); ++i) {
    for (DomainIndex k = 0; k < domain_count_; ++k) {
      out[i][k] = expertise(i, k);
    }
  }
  return out;
}

void ExpertiseStore::fill_task_expertise(
    std::span<const DomainIndex> column_domain, Matrix& out) const {
  const std::size_t n = user_count();
  const std::size_t cols = column_domain.size();
  out.assign(n, cols);
  for (UserId i = 0; i < n; ++i) {
    const std::span<double> row = out.row(i);
    for (std::size_t c = 0; c < cols; ++c) {
      row[c] = expertise(i, column_domain[c]);
    }
  }
}

std::span<const UserId> ExpertiseStore::top_experts(DomainIndex domain,
                                                    std::size_t k) const {
  require(domain < domain_count_, "ExpertiseStore::top_experts: domain out of range");
  if (rank_scratch_.size() != user_count()) {
    rank_scratch_.resize(user_count());
    std::iota(rank_scratch_.begin(), rank_scratch_.end(), UserId{0});
  }
  const std::size_t take = std::min(k, rank_scratch_.size());
  // The scratch stays a permutation of [0, n) across calls, so a partial
  // re-sort under the (expertise desc, id asc) total order is deterministic
  // regardless of the order a previous call left behind.
  std::partial_sort(rank_scratch_.begin(),
                    rank_scratch_.begin() + static_cast<std::ptrdiff_t>(take),
                    rank_scratch_.end(), [&](UserId a, UserId b) {
                      const double ua = expertise(a, domain);
                      const double ub = expertise(b, domain);
                      if (ua != ub) return ua > ub;
                      return a < b;
                    });
  return {rank_scratch_.data(), take};
}

void ExpertiseStore::decay_and_accumulate(double alpha,
                                          const Accumulators& add_num,
                                          const Accumulators& add_den) {
  require(alpha >= 0.0 && alpha <= 1.0,
          "ExpertiseStore::decay_and_accumulate: alpha in [0,1]");
  require(add_num.size() == num_.size() && add_den.size() == den_.size(),
          "ExpertiseStore::decay_and_accumulate: row count mismatch");
  for (UserId i = 0; i < num_.size(); ++i) {
    require(add_num[i].size() == domain_count_ && add_den[i].size() == domain_count_,
            "ExpertiseStore::decay_and_accumulate: column count mismatch");
    for (DomainIndex k = 0; k < domain_count_; ++k) {
      num_[i][k] = alpha * num_[i][k] + add_num[i][k];
      den_[i][k] = alpha * den_[i][k] + add_den[i][k];
    }
  }
}

void ExpertiseStore::merge_domains(DomainIndex kept, DomainIndex absorbed) {
  require(kept < domain_count_ && absorbed < domain_count_ && kept != absorbed,
          "ExpertiseStore::merge_domains: bad domain indices");
  for (UserId i = 0; i < num_.size(); ++i) {
    num_[i][kept] += num_[i][absorbed];
    den_[i][kept] += den_[i][absorbed];
    num_[i][absorbed] = 0.0;
    den_[i][absorbed] = 0.0;
  }
}

double ExpertiseStore::anchor(double target_mean) {
  require(target_mean > 0.0, "ExpertiseStore::anchor: target_mean > 0");
  // The gauge is multiplicative, so the geometric mean of the (clamped,
  // shrunk) expertise values is the anchored statistic; it is also robust
  // to the heavy upper tail of small-sample estimates.
  double log_sum = 0.0;
  std::size_t count = 0;
  for (UserId i = 0; i < num_.size(); ++i) {
    for (DomainIndex k = 0; k < domain_count_; ++k) {
      if (num_[i][k] > 0.0) {
        log_sum += std::log(expertise(i, k));
        ++count;
      }
    }
  }
  if (count == 0) return 1.0;
  const double c =
      std::exp(log_sum / static_cast<double>(count)) / target_mean;
  if (c <= 0.0 || !std::isfinite(c)) return 1.0;
  // u = sqrt(N/D): dividing u by c multiplies D by c².
  for (auto& row : den_) {
    for (double& d : row) d *= c * c;
  }
  ETA2_ENSURES(std::isfinite(c) && c > 0.0);
  return c;
}

namespace {

void write_number(std::ostream& out, double value) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  ensure(ec == std::errc(), "ExpertiseStore::save: formatting failure");
  out.write(buffer, ptr - buffer);
}

}  // namespace

void ExpertiseStore::save(std::ostream& out) const {
  out << "expertise-store v1\n";
  out << num_.size() << ' ' << domain_count_ << '\n';
  for (const Accumulators* matrix : {&num_, &den_}) {
    for (const auto& row : *matrix) {
      for (std::size_t k = 0; k < domain_count_; ++k) {
        if (k > 0) out << ' ';
        write_number(out, row[k]);
      }
      out << '\n';
    }
  }
}

ExpertiseStore ExpertiseStore::load(std::istream& in, MleOptions options) {
  std::string tag;
  std::string version;
  require(static_cast<bool>(in >> tag >> version) &&
              tag == "expertise-store" && version == "v1",
          "ExpertiseStore::load: bad header");
  std::size_t users = 0;
  std::size_t domains = 0;
  require(static_cast<bool>(in >> users >> domains),
          "ExpertiseStore::load: bad dimensions");
  ExpertiseStore store(users, options);
  store.domain_count_ = domains;
  store.num_.assign(users, std::vector<double>(domains, 0.0));
  store.den_.assign(users, std::vector<double>(domains, 0.0));
  for (Accumulators* matrix : {&store.num_, &store.den_}) {
    for (auto& row : *matrix) {
      for (double& cell : row) {
        require(static_cast<bool>(in >> cell),
                "ExpertiseStore::load: truncated accumulators");
      }
    }
  }
  return store;
}

DynamicUpdateResult dynamic_update(ExpertiseStore& store,
                                   const ObservationSet& new_data,
                                   std::span<const DomainIndex> new_task_domain,
                                   double alpha, const Eta2Mle& mle) {
  return sharded_dynamic_update(
      store, new_data, new_task_domain, alpha, mle,
      ShardPlan::build(new_task_domain, store.domain_count(), 0));
}

}  // namespace eta2::truth
