#include "truth/sharding.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/error.h"
#include "common/parallel.h"

namespace eta2::truth {

ShardPlan ShardPlan::build(std::span<const DomainIndex> task_domain,
                           std::size_t domain_count, std::size_t shard_count) {
  for (const DomainIndex k : task_domain) {
    require(k < domain_count, "ShardPlan: task domain index out of range");
  }
  ShardPlan plan;
  const std::size_t shards =
      shard_count == 0 ? std::max<std::size_t>(domain_count, 1) : shard_count;
  plan.domains.assign(shards, {});
  plan.tasks.assign(shards, {});
  plan.domain_shard.resize(domain_count);
  for (std::size_t k = 0; k < domain_count; ++k) {
    plan.domain_shard[k] = k % shards;
    plan.domains[k % shards].push_back(k);
  }
  for (TaskId j = 0; j < task_domain.size(); ++j) {
    plan.tasks[plan.domain_shard[task_domain[j]]].push_back(j);
  }
  return plan;
}

void for_each_shard(std::size_t shard_count,
                    const std::function<void(std::size_t)>& fn) {
  // Grain 1 = one pool task per shard with fixed boundaries: the shard →
  // chunk mapping is a pure function of shard_count, never of the thread
  // count, so work composition is identical at any parallelism level.
  parallel::parallel_for(shard_count, 1, fn);
}

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// The engine's working planes are domain-major — plane[k][i] is user i's
// cell in domain k — so a shard's writes stay inside its own domains' rows
// and its sweeps read one contiguous column per task.
using Plane = std::vector<std::vector<double>>;

// Between the user-major [user][domain] layout of the public types and the
// domain-major working planes (either direction).
Plane transposed(const Plane& in, std::size_t inner) {
  Plane out(inner, std::vector<double>(in.size(), 0.0));
  for (std::size_t r = 0; r < in.size(); ++r) {
    for (std::size_t c = 0; c < inner; ++c) out[c][r] = in[r][c];
  }
  return out;
}

// Eqs. 7–8, the one (N, D) accumulation, for shard s: resets the shard's
// domain rows, then adds each observation's count and squared standardized
// residual (x − μ)²/σ². Tasks ascending, at most one report per (task,
// user): every cell meets its terms in task order.
void accumulate_shard(const ObservationSet& data, const ShardPlan& plan,
                      std::size_t s, std::span<const DomainIndex> task_domain,
                      std::span<const double> mu, std::span<const double> sigma,
                      Plane& num, Plane& den) {
  for (const DomainIndex k : plan.domains[s]) {
    std::fill(num[k].begin(), num[k].end(), 0.0);
    std::fill(den[k].begin(), den[k].end(), 0.0);
  }
  for (const TaskId j : plan.tasks[s]) {
    // A task without a truth estimate adds nothing.
    if (!std::isfinite(mu[j])) continue;
    // σ_j > 0 whenever μ_j is finite (sweep_task floors it).
    ETA2_ASSERT(sigma[j] > 0.0);
    std::vector<double>& num_k = num[task_domain[j]];
    std::vector<double>& den_k = den[task_domain[j]];
    for (const Observation& o : data.for_task(j)) {
      // A corrupt value adds nothing: one NaN must not poison the row.
      if (!std::isfinite(o.value)) continue;
      const double z = (o.value - mu[j]) / sigma[j];
      num_k[o.user] += 1.0;
      den_k[o.user] += z * z;
    }
  }
}

// Checks shared by the entry points: `plan` was built from `task_domain`
// over exactly domain_count domains.
void check_plan(const ObservationSet& data,
                std::span<const DomainIndex> task_domain,
                std::size_t domain_count, const ShardPlan& plan) {
  require(task_domain.size() == data.task_count(),
          "truth engine: task_domain size mismatch");
  require(plan.domain_shard.size() == domain_count,
          "truth engine: plan must cover exactly domain_count domains");
  std::size_t planned = 0;
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    for (const TaskId j : plan.tasks[s]) {
      require(j < task_domain.size() && task_domain[j] < domain_count &&
                  plan.domain_shard[task_domain[j]] == s,
              "truth engine: plan not built from these task domains");
    }
    planned += plan.tasks[s].size();
  }
  require(planned == task_domain.size(),
          "truth engine: plan not built from these task domains");
}

// The state of one Eq. 5–9 run over one batch.
struct Sweeps {
  std::vector<double> mu;
  std::vector<double> sigma;
  Plane num;  // (N, D) of the last accumulation, domain-major
  Plane den;
  int iterations = 0;
  bool converged = false;
};

// The Eq. 5–9 iteration shared by both modes, from the domain-major
// `expertise` until the truth converges (or max_iterations). `history` null
// is batch mode (Eq. 6 from this batch alone; a cell without data keeps its
// value) and stops right after the converging sweep. Otherwise it is
// decayed mode (Eq. 9 candidates α·history + batch), which also accumulates
// that last sweep's (N, D) — what the store commits. Each sweep fans out
// one pool task per shard; a shard writes only μ/σ of its own tasks and the
// cells of its own domains. Only cells with data (N > 0) are refreshed:
// Eq. 5 reads only cells of users with a finite report on the task, which
// have N > 0 once the task has a truth estimate; batch mode keeps the other
// cells by definition, and decayed mode returns no expertise — its commit
// goes through (N, D), which is zero there.
Sweeps iterate(const Eta2Mle& mle, const ObservationSet& data,
               std::span<const DomainIndex> task_domain, const ShardPlan& plan,
               Plane& expertise, const ExpertiseStore* history, double alpha,
               const SweepWeights& weights) {
  require(weights.user_weight.empty() ||
              weights.user_weight.size() == data.user_count(),
          "truth engine: one weight per user");
  const MleOptions& opt = mle.options();
  const std::size_t n = data.user_count();
  const std::size_t shards = plan.shard_count();
  const bool weighted =
      !weights.user_weight.empty() ||
      weights.influence_cap < std::numeric_limits<double>::infinity();
  // The Eq. 5 view of a weighted run: eff(i, k), refreshed with each cell.
  Plane effective;
  const auto refresh_effective = [&](UserId i, DomainIndex k) {
    const double capped = std::min(expertise[k][i], weights.influence_cap);
    effective[k][i] = weights.user_weight.empty()
                          ? capped
                          : capped * weights.user_weight[i];
  };
  if (weighted) {
    effective = expertise;
    for (DomainIndex k = 0; k < expertise.size(); ++k) {
      for (UserId i = 0; i < n; ++i) refresh_effective(i, k);
    }
  }
  const Plane& swept = weighted ? effective : expertise;

  Sweeps run;
  run.num.assign(expertise.size(), std::vector<double>(n, 0.0));
  run.den = run.num;
  std::vector<double> prev_mu;
  for (int sweeps = 1;; ++sweeps) {
    prev_mu.swap(run.mu);
    run.mu.assign(data.task_count(), kNaN);
    run.sigma.assign(data.task_count(), kNaN);
    for_each_shard(shards, [&](std::size_t s) {
      for (const TaskId j : plan.tasks[s]) {
        mle.sweep_task(data, j, swept[task_domain[j]], run.mu, run.sigma);
      }
    });
    run.converged = sweeps > 1 && truth_converged(prev_mu, run.mu,
                                                  opt.convergence_threshold);
    if (history == nullptr && (run.converged || sweeps > opt.max_iterations)) {
      run.iterations = sweeps - 1;  // the initial sweep is not an iteration
      return run;
    }
    for_each_shard(shards, [&](std::size_t s) {
      accumulate_shard(data, plan, s, task_domain, run.mu, run.sigma, run.num,
                       run.den);
      for (const DomainIndex k : plan.domains[s]) {
        for (UserId i = 0; i < n; ++i) {
          if (!(run.num[k][i] > 0.0)) continue;  // no data: keep the value
          expertise[k][i] =
              history != nullptr
                  ? history->expertise_from(
                        alpha * history->raw_num(i, k) + run.num[k][i],
                        alpha * history->raw_den(i, k) + run.den[k][i])
                  : expertise_update(opt, run.num[k][i], run.den[k][i]);
          if (weighted) refresh_effective(i, k);
        }
      }
    });
    if (history != nullptr &&
        (run.converged || sweeps == opt.max_iterations)) {
      run.iterations = sweeps;
      return run;
    }
  }
}

}  // namespace

MleResult sharded_estimate(
    const Eta2Mle& mle, const ObservationSet& data,
    std::span<const DomainIndex> task_domain, std::size_t domain_count,
    const ShardPlan& plan,
    const std::vector<std::vector<double>>& initial_expertise) {
  check_plan(data, task_domain, domain_count, plan);
  const std::size_t n = data.user_count();
  Plane expertise = transposed(
      mle.initial_expertise_matrix(n, domain_count, initial_expertise),
      domain_count);
  Sweeps run = iterate(mle, data, task_domain, plan, expertise, nullptr, 1.0,
                       SweepWeights{});
  MleResult result;
  result.expertise = transposed(expertise, n);
  result.mu = std::move(run.mu);
  result.sigma = std::move(run.sigma);
  result.iterations = run.iterations;
  result.converged = run.converged;
  // Gauge anchoring over the (user, domain) cells holding a finite report,
  // rescaling σ consistently (σ/u is the identified quantity).
  if (mle.options().anchor_mean > 0.0) {
    std::vector<char> has_data(n * domain_count, 0);
    for_each_shard(plan.shard_count(), [&](std::size_t s) {
      for (const TaskId j : plan.tasks[s]) {
        for (const Observation& o : data.for_task(j)) {
          if (!std::isfinite(o.value)) continue;  // corrupt: no data
          has_data[o.user * domain_count + task_domain[j]] = 1;
        }
      }
    });
    mle.apply_gauge_anchor(has_data, domain_count, result.expertise,
                           result.sigma);
  }
  return result;
}

DynamicUpdateResult sharded_dynamic_update(
    ExpertiseStore& store, const ObservationSet& new_data,
    std::span<const DomainIndex> new_task_domain, double alpha,
    const Eta2Mle& mle, const ShardPlan& plan, const SweepWeights& weights) {
  require(new_data.user_count() == store.user_count(),
          "sharded_dynamic_update: user count mismatch");
  const std::size_t domains = store.domain_count();
  check_plan(new_data, new_task_domain, domains, plan);
  Plane expertise = transposed(store.snapshot(), domains);
  Sweeps run = iterate(mle, new_data, new_task_domain, plan, expertise,
                       &store, alpha, weights);
  // Commit the final contributions with one real decay step, then re-anchor
  // the gauge (the incremental updates otherwise drift it upward) and keep
  // the reported σ consistent with the anchored expertise.
  const std::size_t n = store.user_count();
  store.decay_and_accumulate(alpha, transposed(run.num, n),
                             transposed(run.den, n));
  const MleOptions& opt = mle.options();
  if (opt.anchor_mean > 0.0) {
    const double c = store.anchor(opt.anchor_mean);
    for (double& s : run.sigma) {
      if (!std::isnan(s)) s = std::max(opt.sigma_min, s / c);
    }
  }
  DynamicUpdateResult result;
  result.mu = std::move(run.mu);
  result.sigma = std::move(run.sigma);
  result.iterations = run.iterations;
  result.converged = run.converged;
  return result;
}

void accumulate_fit(ExpertiseStore& store, const ObservationSet& data,
                    std::span<const DomainIndex> task_domain,
                    std::span<const double> mu,
                    std::span<const double> sigma) {
  require(data.user_count() == store.user_count(),
          "accumulate_fit: user count mismatch");
  require(mu.size() == data.task_count() && sigma.size() == data.task_count(),
          "accumulate_fit: mu/sigma size mismatch");
  const std::size_t n = data.user_count();
  const std::size_t domains = store.domain_count();
  const ShardPlan plan = ShardPlan::build(task_domain, domains, 0);
  check_plan(data, task_domain, domains, plan);
  Plane num(domains, std::vector<double>(n, 0.0));
  Plane den = num;
  for_each_shard(plan.shard_count(), [&](std::size_t s) {
    accumulate_shard(data, plan, s, task_domain, mu, sigma, num, den);
  });
  store.decay_and_accumulate(1.0, transposed(num, n), transposed(den, n));
}

}  // namespace eta2::truth
