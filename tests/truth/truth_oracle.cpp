#include "truth_oracle.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/error.h"
#include "common/parallel.h"

namespace eta2::truth::oracle {

Contributions expertise_contributions(const ObservationSet& data,
                                      std::span<const DomainIndex> task_domain,
                                      std::span<const double> mu,
                                      std::span<const double> sigma,
                                      std::size_t user_count,
                                      std::size_t domain_count) {
  require(task_domain.size() == data.task_count(),
          "expertise_contributions: task_domain size mismatch");
  require(mu.size() == data.task_count() && sigma.size() == data.task_count(),
          "expertise_contributions: mu/sigma size mismatch");
  Contributions c;
  c.num.assign(user_count, std::vector<double>(domain_count, 0.0));
  c.den.assign(user_count, std::vector<double>(domain_count, 0.0));
  for (TaskId j = 0; j < data.task_count(); ++j) {
    if (std::isnan(mu[j]) || std::isnan(sigma[j]) || sigma[j] <= 0.0) continue;
    const DomainIndex k = task_domain[j];
    require(k < domain_count, "expertise_contributions: domain out of range");
    for (const Observation& o : data.for_task(j)) {
      if (!std::isfinite(o.value)) continue;  // corrupt x_ij: no contribution
      const double e = (o.value - mu[j]) / sigma[j];
      c.num[o.user][k] += 1.0;
      c.den[o.user][k] += e * e;
    }
  }
  return c;
}

DynamicUpdateResult dynamic_update(ExpertiseStore& store,
                                   const ObservationSet& new_data,
                                   std::span<const DomainIndex> new_task_domain,
                                   double alpha, const Eta2Mle& mle) {
  require(new_data.user_count() == store.user_count(),
          "dynamic_update: user count mismatch");
  const MleOptions& opt = mle.options();
  const std::size_t n = store.user_count();
  const std::size_t domains = store.domain_count();

  DynamicUpdateResult result;
  std::vector<std::vector<double>> expertise = store.snapshot();
  Contributions contrib;
  std::vector<double> prev_mu;

  for (int iter = 1; iter <= opt.max_iterations; ++iter) {
    result.iterations = iter;
    prev_mu = result.mu;
    mle.estimate_truth_only(new_data, new_task_domain, expertise, result.mu,
                            result.sigma);
    contrib = expertise_contributions(new_data, new_task_domain, result.mu,
                                      result.sigma, n, domains);
    // Candidate expertise from decayed history + this iteration's
    // contributions (Eq. 9). The store is only committed once, after
    // convergence, so candidates are evaluated on a scratch copy.
    ExpertiseStore scratch = store;
    scratch.decay_and_accumulate(alpha, contrib.num, contrib.den);
    expertise = scratch.snapshot();

    if (!prev_mu.empty() &&
        truth_converged(prev_mu, result.mu, opt.convergence_threshold)) {
      result.converged = true;
      break;
    }
  }
  // Commit the final contributions with one real decay step, then re-anchor
  // the gauge (the incremental updates otherwise drift it upward) and keep
  // the reported σ consistent with the anchored expertise.
  store.decay_and_accumulate(alpha, contrib.num, contrib.den);
  if (opt.anchor_mean > 0.0) {
    const double c = store.anchor(opt.anchor_mean);
    for (double& s : result.sigma) {
      if (!std::isnan(s)) s = std::max(opt.sigma_min, s / c);
    }
  }
  return result;
}

MleResult estimate(const Eta2Mle& mle, const ObservationSet& data,
                   std::span<const DomainIndex> task_domain,
                   std::size_t domain_count,
                   const std::vector<std::vector<double>>& initial_expertise) {
  const MleOptions& options = mle.options();
  const std::size_t n = data.user_count();
  const std::size_t m = data.task_count();
  require(task_domain.size() == m, "Eta2Mle: task_domain size mismatch");
  for (const DomainIndex k : task_domain) {
    require(k < domain_count, "Eta2Mle: task domain index out of range");
  }

  MleResult result;
  result.expertise =
      mle.initial_expertise_matrix(n, domain_count, initial_expertise);

  // User-major index of the observations (CSR layout; tasks stay ascending
  // within each user). This lets the Eq. 6 accumulation fan out over users
  // (each user owns its accumulator row), while each (user, domain) cell
  // still receives its contributions in the task order the serial task-major
  // loop used — so the sums are bit-identical to serial at any thread count.
  struct UserObs {
    TaskId task = 0;
    double value = 0.0;
  };
  std::vector<std::size_t> obs_offset(n + 1, 0);
  std::vector<UserObs> user_obs(data.total_observations());
  {
    for (TaskId j = 0; j < m; ++j) {
      for (const Observation& o : data.for_task(j)) ++obs_offset[o.user + 1];
    }
    for (UserId i = 0; i < n; ++i) obs_offset[i + 1] += obs_offset[i];
    std::vector<std::size_t> cursor(obs_offset.begin(), obs_offset.end() - 1);
    for (TaskId j = 0; j < m; ++j) {
      for (const Observation& o : data.for_task(j)) {
        user_obs[cursor[o.user]++] = UserObs{j, o.value};
      }
    }
    // CSR shape invariants: the prefix sum must cover exactly the
    // observation count and every user's cursor must have landed on the
    // next user's offset — otherwise the Eq. 6 fan-out reads garbage.
    ETA2_ENSURES(obs_offset[n] == user_obs.size());
    for (UserId i = 0; i < n; ++i) {
      ETA2_ASSERT(cursor[i] == obs_offset[i + 1]);
    }
  }

  std::vector<double> prev_mu;
  mle.estimate_truth_only(data, task_domain, result.expertise, result.mu,
                          result.sigma);

  // Flat row-major (user × domain) accumulators, reused across iterations.
  std::vector<double> num(n * domain_count, 0.0);
  std::vector<double> den(n * domain_count, 0.0);

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    result.iterations = iter;
    // --- Eq. 6: expertise update given (μ, σ). ---
    // Accumulate per (user, domain): N = #observations, D = Σ (x−μ)²/σ²,
    // then refresh each user's expertise row. One parallel region per user
    // range; every lane writes only its users' rows.
    std::fill(num.begin(), num.end(), 0.0);
    std::fill(den.begin(), den.end(), 0.0);
    parallel::parallel_for(n, 16, [&](UserId i) {
      double* num_row = num.data() + i * domain_count;
      double* den_row = den.data() + i * domain_count;
      for (std::size_t t = obs_offset[i]; t < obs_offset[i + 1]; ++t) {
        const TaskId j = user_obs[t].task;
        // Skip corrupt values and tasks with no truth estimate (all-corrupt
        // data): one NaN must not poison the user's accumulator row.
        if (!std::isfinite(user_obs[t].value) || !std::isfinite(result.mu[j])) {
          continue;
        }
        const DomainIndex k = task_domain[j];
        // σ_j > 0 whenever μ_j is finite (estimate_truth_only floors it);
        // dividing by a zero/NaN σ would poison the expertise row.
        ETA2_ASSERT(result.sigma[j] > 0.0);
        const double e = (user_obs[t].value - result.mu[j]) / result.sigma[j];
        num_row[k] += 1.0;
        den_row[k] += e * e;
      }
      for (DomainIndex k = 0; k < domain_count; ++k) {
        if (num_row[k] <= 0.0) continue;  // no data: keep current value
        result.expertise[i][k] =
            expertise_update(options, num_row[k], den_row[k]);
      }
    });

    // --- Eq. 5: truth update given expertise. ---
    prev_mu = result.mu;
    mle.estimate_truth_only(data, task_domain, result.expertise, result.mu,
                            result.sigma);

    // Convergence: every task's truth estimate moved < threshold (relative,
    // with an absolute floor for estimates near zero).
    if (truth_converged(prev_mu, result.mu, options.convergence_threshold)) {
      result.converged = true;
      break;
    }
  }

  // Gauge anchoring: pin the mean expertise of observed pairs to
  // anchor_mean, rescaling σ consistently (σ/u is the identified quantity).
  if (options.anchor_mean > 0.0) {
    std::vector<char> has_data(n * domain_count, 0);
    parallel::parallel_for(n, 64, [&](UserId i) {
      for (std::size_t t = obs_offset[i]; t < obs_offset[i + 1]; ++t) {
        if (!std::isfinite(user_obs[t].value)) continue;  // corrupt: no data
        has_data[i * domain_count + task_domain[user_obs[t].task]] = 1;
      }
    });
    mle.apply_gauge_anchor(has_data, domain_count, result.expertise,
                           result.sigma);
  }
  return result;
}

namespace {

std::vector<std::vector<double>> effective_expertise(
    const TrustLedger& ledger,
    const std::vector<std::vector<double>>& expertise) {
  const TrustOptions& options = ledger.options();
  std::vector<std::vector<double>> eff = expertise;
  for (std::size_t u = 0; u < eff.size(); ++u) {
    const double weight =
        std::sqrt(std::max(ledger.trust(u), options.trust_floor));
    for (double& cell : eff[u]) {
      cell = std::min(cell, options.influence_cap) * weight;
    }
  }
  return eff;
}

}  // namespace

DynamicUpdateResult trusted_dynamic_update(
    const TrustLedger& ledger, ExpertiseStore& store,
    const ObservationSet& data, std::span<const DomainIndex> task_domain,
    double alpha, const Eta2Mle& mle) {
  require(data.user_count() == store.user_count(),
          "trusted_dynamic_update: user count mismatch");
  const MleOptions& opt = mle.options();
  const std::size_t n = store.user_count();
  const std::size_t domains = store.domain_count();

  DynamicUpdateResult result;
  std::vector<std::vector<double>> expertise = store.snapshot();
  Contributions contrib;
  std::vector<double> prev_mu;

  for (int iter = 1; iter <= opt.max_iterations; ++iter) {
    result.iterations = iter;
    prev_mu = result.mu;
    // The one deviation from truth::dynamic_update: every truth sweep sees
    // the capped, trust-weighted expertise instead of the raw estimates.
    mle.estimate_truth_only(data, task_domain,
                            effective_expertise(ledger, expertise), result.mu,
                            result.sigma);
    contrib = expertise_contributions(data, task_domain, result.mu,
                                      result.sigma, n, domains);
    ExpertiseStore scratch = store;
    scratch.decay_and_accumulate(alpha, contrib.num, contrib.den);
    expertise = scratch.snapshot();

    if (!prev_mu.empty() &&
        truth_converged(prev_mu, result.mu, opt.convergence_threshold)) {
      result.converged = true;
      break;
    }
  }
  store.decay_and_accumulate(alpha, contrib.num, contrib.den);
  if (opt.anchor_mean > 0.0) {
    const double c = store.anchor(opt.anchor_mean);
    for (double& s : result.sigma) {
      if (!std::isnan(s)) s = std::max(opt.sigma_min, s / c);
    }
  }
  return result;
}

}  // namespace eta2::truth::oracle
