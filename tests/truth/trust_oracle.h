// Reference implementation of TrustLedger's post-commit scoring pass
// (DESIGN.md §14): the residual ledger plus the agreement graph kept in a
// std::map and updated with one lookup per co-observer pair of every task —
// the pass the library ran before its per-step task bitsets. Test-only
// oracle: TrustLedger::end_step must match it step for step, save() bytes
// and TrustStepReport included. bench/micro_core compiles the same source
// for its trust_score reference column.
#ifndef ETA2_TESTS_TRUTH_TRUST_ORACLE_H
#define ETA2_TESTS_TRUTH_TRUST_ORACLE_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <vector>

#include "truth/expertise_store.h"
#include "truth/observation.h"
#include "truth/trust.h"

namespace eta2::truth::oracle {

// The scoring state of TrustLedger (residual EWMAs, quarantine cursors, the
// decayed agreement graph, the step cursor) with the map-based end_step.
// Options are not validated here; the library ledger does that.
class TrustLedgerOracle {
 public:
  TrustLedgerOracle(std::size_t user_count, TrustOptions options);

  [[nodiscard]] double trust(UserId user) const;

  TrustStepReport end_step(const ObservationSet& raw,
                           std::span<const DomainIndex> task_domain,
                           std::span<const double> mu,
                           std::span<const double> sigma,
                           const ExpertiseStore& store);

  // "trust-ledger v1", the format TrustLedger::save writes.
  void save(std::ostream& out) const;
  [[nodiscard]] static TrustLedgerOracle load(std::istream& in,
                                              TrustOptions options);

 private:
  struct PairStat {
    double co_wrong = 0.0;
    double co_observed = 0.0;
  };

  void quarantine_user(UserId user);

  TrustOptions options_;
  std::uint64_t step_ = 0;
  std::vector<double> m2_;
  std::vector<double> w_;
  std::vector<std::uint64_t> quarantined_until_;
  std::vector<std::uint64_t> readmissions_;
  std::map<std::uint64_t, PairStat> pairs_;
};

}  // namespace eta2::truth::oracle

#endif  // ETA2_TESTS_TRUTH_TRUST_ORACLE_H
