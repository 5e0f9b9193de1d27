// Reference implementations of the paper's truth analysis (Eqs. 5–9): the
// monolithic loops the library ran before its single sharded engine
// (truth/sharding.h). Test-only oracles — the engine must match them bit
// for bit at every shard layout and thread count. bench/micro_core
// compiles the same source for its sharded_step reference column.
#ifndef ETA2_TESTS_TRUTH_TRUTH_ORACLE_H
#define ETA2_TESTS_TRUTH_TRUTH_ORACLE_H

#include <span>
#include <vector>

#include "truth/eta2_mle.h"
#include "truth/expertise_store.h"
#include "truth/observation.h"
#include "truth/trust.h"

namespace eta2::truth::oracle {

// Eq. 7–8 contribution matrices of one batch against a fixed truth: for
// each (user, domain), `num` counts the user's observations on tasks of
// that domain and `den` sums (x−μ)²/σ². Tasks with NaN truth are skipped.
struct Contributions {
  Accumulators num;
  Accumulators den;
};
[[nodiscard]] Contributions expertise_contributions(
    const ObservationSet& data, std::span<const DomainIndex> task_domain,
    std::span<const double> mu, std::span<const double> sigma,
    std::size_t user_count, std::size_t domain_count);

// Eta2Mle::estimate as a user-major CSR loop over the whole batch.
[[nodiscard]] MleResult estimate(
    const Eta2Mle& mle, const ObservationSet& data,
    std::span<const DomainIndex> task_domain, std::size_t domain_count,
    const std::vector<std::vector<double>>& initial_expertise = {});

// truth::dynamic_update evaluating each iteration's candidates on a scratch
// copy of the store.
DynamicUpdateResult dynamic_update(ExpertiseStore& store,
                                   const ObservationSet& new_data,
                                   std::span<const DomainIndex> new_task_domain,
                                   double alpha, const Eta2Mle& mle);

// TrustLedger::trusted_dynamic_update: dynamic_update above with every
// truth sweep on min(u, influence_cap) · sqrt(max(trust, trust_floor)).
DynamicUpdateResult trusted_dynamic_update(
    const TrustLedger& ledger, ExpertiseStore& store,
    const ObservationSet& data, std::span<const DomainIndex> task_domain,
    double alpha, const Eta2Mle& mle);

}  // namespace eta2::truth::oracle

#endif  // ETA2_TESTS_TRUTH_TRUTH_ORACLE_H
