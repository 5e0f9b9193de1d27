// The Eq. 5–9 engine (DESIGN.md §12): the one implementation of the
// paper's truth analysis, run domain-sharded.
//
// ETA²'s per-step work factors by domain: Eq. 5 is independent per task,
// Eq. 6 (and its decayed form, Eqs. 7–9) accumulates per (user, domain)
// cell, and the only cross-domain couplings are the global convergence
// check and the gauge anchor. This module partitions one batch's tasks into
// per-domain shards with a stable ordering and fans every sweep out one
// pool task per shard. Each iteration re-joins at a serial convergence scan
// in global task order and the gauge anchor folds serially, so every
// per-task and per-cell reduction receives its terms in task order: results
// are bit-identical at any thread or shard count. Eta2Mle::estimate,
// truth::dynamic_update and TrustLedger::trusted_dynamic_update run this
// engine over one shard per domain; the pre-engine monolithic loops they
// replaced live on as test oracles in tests/truth/truth_oracle.h.
#ifndef ETA2_TRUTH_SHARDING_H
#define ETA2_TRUTH_SHARDING_H

#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "truth/eta2_mle.h"
#include "truth/expertise_store.h"
#include "truth/observation.h"

namespace eta2::truth {

// Stable partition of one batch's tasks by domain label. Domain k lives in
// shard k % shard_count (shard_count = 0 requests one shard per domain);
// shards are ordered by shard id and both the per-shard domain and task
// lists are ascending. Task lists ascending matters: each shard visiting
// its tasks in ascending order visits, per (user, domain) cell, exactly the
// subsequence of the task-major order that touches that cell — which is
// what makes the accumulations independent of the shard layout. A shard
// owns whole domains, so it reads the task-major ObservationSet directly.
struct ShardPlan {
  std::vector<std::vector<std::size_t>> domains;  // per shard, ascending
  std::vector<std::vector<TaskId>> tasks;         // per shard, ascending
  std::vector<std::size_t> domain_shard;          // domain k → owning shard

  [[nodiscard]] std::size_t shard_count() const { return tasks.size(); }

  // `shard_count` = 0: one shard per domain (what the library runs); G > 0:
  // exactly G shards (shards without any domain/task are legal no-ops) —
  // the seam the layout-independence tests drive.
  // Requires every task_domain[j] < domain_count.
  [[nodiscard]] static ShardPlan build(std::span<const DomainIndex> task_domain,
                                       std::size_t domain_count,
                                       std::size_t shard_count);
};

// Dispatches fn(shard) for every shard in [0, shard_count) — one pool task
// per shard, fixed boundaries (grain 1), so shard-to-lane assignment never
// depends on the thread count. Stage bodies must confine writes to
// shard-local state (enforced by eta2_lint rule 9, shard-shared-mutation);
// cross-shard merges run serially after the region joins.
void for_each_shard(std::size_t shard_count,
                    const std::function<void(std::size_t)>& fn);

// Optional weighting of the Eq. 5 sweeps: every truth sweep sees
//   eff(i, k) = min(u_i^k, influence_cap) · user_weight[i]
// instead of u_i^k, while Eqs. 6–9 keep learning the raw u. The default
// (no weights, infinite cap) is the plain sweep; a weight of exactly 1.0
// and an infinite cap are exact in IEEE arithmetic, so a neutral weighting
// is bit-identical to none. TrustLedger::trusted_dynamic_update passes
// sqrt(max(trust, trust_floor)) and its influence cap.
struct SweepWeights {
  std::vector<double> user_weight;  // per user; empty = no weighting
  double influence_cap = std::numeric_limits<double>::infinity();
};

// Batch mode (paper §4.1): the Eq. 5/6 joint estimate, starting from
// `initial_expertise` (empty = the flat prior) and anchoring the gauge on
// the (user, domain) cells with data. Requires every task_domain[j] <
// domain_count and a plan built for domain_count domains.
[[nodiscard]] MleResult sharded_estimate(
    const Eta2Mle& mle, const ObservationSet& data,
    std::span<const DomainIndex> task_domain, std::size_t domain_count,
    const ShardPlan& plan,
    const std::vector<std::vector<double>>& initial_expertise = {});

// Decayed-history mode (paper §4.2): iterate Eq. 5 against the Eq. 7–9
// candidates α·history + this batch's (N, D) until the truth converges,
// then commit one decay step into `store` and re-anchor the gauge. The plan
// must cover the store's domains.
[[nodiscard]] DynamicUpdateResult sharded_dynamic_update(
    ExpertiseStore& store, const ObservationSet& new_data,
    std::span<const DomainIndex> new_task_domain, double alpha,
    const Eta2Mle& mle, const ShardPlan& plan,
    const SweepWeights& weights = {});

// Adds one batch's Eq. 7–8 (N, D) against a fixed truth (mu, sigma) to
// `store` without decay — the warm-up step's seeding of the accumulators
// from its joint fit (paper §2.2). Tasks without a truth estimate and
// corrupt values add nothing.
void accumulate_fit(ExpertiseStore& store, const ObservationSet& data,
                    std::span<const DomainIndex> task_domain,
                    std::span<const double> mu, std::span<const double> sigma);

}  // namespace eta2::truth

#endif  // ETA2_TRUTH_SHARDING_H
