// Expertise-aware truth analysis (paper §4.1): the Gaussian model
//   x_ij ~ N(μ_j, (σ_j / u_i^{d_j})²)
// solved by iterating the stationary equations of the log-likelihood:
//   μ_j  = Σ_i ω_ij u_ij² x_ij / Σ_i ω_ij u_ij²                      (Eq. 5)
//   σ_j² = Σ_i ω_ij u_ij² (x_ij − μ_j)² / Σ_i ω_ij                   (Eq. 5)
//   u_i^k = sqrt( Σ_j I(d_j=k) ω_ij
//               / Σ_j I(d_j=k) ω_ij (x_ij − μ_j)²/σ_j² )             (Eq. 6)
// starting from u = 1 everywhere, until every truth estimate changes by
// less than `convergence_threshold` (relative) between iterations.
//
// Numerical guards beyond the paper (see DESIGN.md §5): expertise clamped to
// [expertise_min, expertise_max], a ridge added to Eq. 6's denominator, and
// a floor on σ.
#ifndef ETA2_TRUTH_ETA2_MLE_H
#define ETA2_TRUTH_ETA2_MLE_H

#include <cstdint>
#include <span>
#include <vector>

#include "truth/observation.h"

namespace eta2::truth {

// Dense domain index in [0, domain_count). The facade maps the clusterer's
// stable DomainIds onto this dense range.
using DomainIndex = std::size_t;

struct MleOptions {
  double convergence_threshold = 0.05;  // paper: 5% change in truth estimates
  int max_iterations = 200;
  double expertise_min = 0.05;
  double expertise_max = 20.0;
  double ridge = 1e-9;       // added to Eq. 6 denominator
  double sigma_min = 1e-6;   // floor on the base number σ_j
  double initial_expertise = 1.0;  // paper: u = 1 at iteration 0
  // Bayesian shrinkage on Eq. 6: `prior_strength` pseudo-observations with
  // the prior expertise are added to both accumulators,
  //   u = sqrt((N + p) / (D + p/u0² + ridge)),  u0 = initial_expertise,
  // which pins small-sample estimates near the prior instead of letting a
  // single lucky/unlucky observation send u to a clamp (0 disables).
  double prior_strength = 1.0;
  // The model x ~ N(μ, (σ/u)²) is invariant under (u, σ) → (c·u, c·σ), so
  // expertise is only identified up to a gauge; without an anchor the gauge
  // drifts upward across incremental updates. After convergence the
  // estimates are rescaled so the GEOMETRIC mean expertise over observed
  // (user, domain) pairs equals this value (0 disables anchoring; the
  // geometric mean is the right statistic for a multiplicative gauge and is
  // robust to the estimate distribution's heavy tail).
  double anchor_mean = 1.0;
};

struct MleResult {
  std::vector<double> mu;     // per task; NaN when the task has no data
  std::vector<double> sigma;  // per task; NaN when the task has no data
  // expertise[user][domain]; users with no data in a domain keep the
  // initial value.
  std::vector<std::vector<double>> expertise;
  int iterations = 0;
  bool converged = false;
};

// Convergence predicate of the Eq. 5–9 iteration (truth/sharding.h): true
// iff every task's estimate moved less than `threshold` (relative, with an
// absolute floor for estimates near zero). The serial ascending-j
// early-exit scan is part of the determinism contract.
[[nodiscard]] bool truth_converged(std::span<const double> prev_mu,
                                   std::span<const double> mu,
                                   double threshold);

// Eq. 6 for one accumulator cell (N = num, D = den), with the Bayesian
// shrinkage prior and the [expertise_min, expertise_max] clamp. Only
// meaningful for num > 0; the batch sweep and ExpertiseStore (Eq. 9) both
// evaluate their cells through this one function.
[[nodiscard]] double expertise_update(const MleOptions& options, double num,
                                      double den);

class Eta2Mle {
 public:
  explicit Eta2Mle(MleOptions options = {});

  [[nodiscard]] const MleOptions& options() const { return options_; }

  // Runs the full joint estimation. `task_domain[j]` in [0, domain_count).
  // `initial_expertise`, when non-empty, seeds u (expertise[user][domain])
  // instead of the flat initial value — used by warm starts (min-cost
  // rounds). Runs the sharded Eq. 5/6 engine (truth/sharding.h) over one
  // shard per domain.
  [[nodiscard]] MleResult estimate(
      const ObservationSet& data, std::span<const DomainIndex> task_domain,
      std::size_t domain_count,
      const std::vector<std::vector<double>>& initial_expertise = {}) const;

  // One fixed-expertise sweep of Eq. 5: computes μ and σ for every task
  // given frozen expertise values. Used by the trust filter's provisional
  // truth and by the degraded truth fallback.
  void estimate_truth_only(const ObservationSet& data,
                           std::span<const DomainIndex> task_domain,
                           const std::vector<std::vector<double>>& expertise,
                           std::vector<double>& mu,
                           std::vector<double>& sigma) const;

  // Eq. 5 for a single task j, with validation already done: `expertise_k`
  // is the column of task j's domain (u_i^{d_j}, indexed by user id) and
  // covers every observer, and mu[j] / sigma[j] must be pre-set to NaN (a
  // task with no usable data leaves them untouched). The one Eq. 5 body:
  // estimate_truth_only() and every sweep of the sharded engine
  // (truth/sharding.h) run it.
  void sweep_task(const ObservationSet& data, TaskId j,
                  std::span<const double> expertise_k,
                  std::vector<double>& mu, std::vector<double>& sigma) const;

  // The expertise seed estimate() starts from: a flat initial_expertise
  // matrix when `initial` is empty, otherwise a clamped copy of it
  // (validated against user/domain counts).
  [[nodiscard]] std::vector<std::vector<double>> initial_expertise_matrix(
      std::size_t user_count, std::size_t domain_count,
      const std::vector<std::vector<double>>& initial) const;

  // Gauge-anchoring tail of the batch estimate: given per-(user, domain)
  // data flags (row-major user_count × domain_count), rescales expertise and
  // σ so the geometric mean over flagged cells equals anchor_mean. No-op when
  // anchoring is disabled (anchor_mean <= 0) or no cell is flagged. The
  // serial log-sum fold order (user-major, domain ascending) is part of the
  // determinism contract.
  void apply_gauge_anchor(std::span<const char> has_data,
                          std::size_t domain_count,
                          std::vector<std::vector<double>>& expertise,
                          std::vector<double>& sigma) const;

 private:
  MleOptions options_;
};

}  // namespace eta2::truth

#endif  // ETA2_TRUTH_ETA2_MLE_H
