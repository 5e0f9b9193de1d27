// Fuzz target: truth::TrustLedger::load, the "trust-ledger v1" block a
// defended server snapshot carries as its trailer. Contract: malformed
// bytes are rejected with std::invalid_argument; anything else escaping —
// std::bad_alloc from a hostile declared count, a crash — is a finding. A
// blob that loads must save to bytes that load and save back unchanged,
// and must survive one scoring step: end_step indexes per-user rows by
// both ends of every agreement-graph key, which is where an unchecked key
// used to read past the end of the heap.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "truth/expertise_store.h"
#include "truth/observation.h"
#include "truth/trust.h"

namespace {

// Keeps the scoring step's O(n²) co-wrong pair enumeration small.
constexpr std::size_t kMaxScoredUsers = 512;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace eta2::truth;
  TrustOptions options;
  options.tier = DefenseTier::kTrimmedV1;
  try {
    std::istringstream in(
        std::string(reinterpret_cast<const char*>(data), size));
    TrustLedger ledger = TrustLedger::load(in, options);
    std::ostringstream saved;
    ledger.save(saved);
    std::istringstream saved_in(saved.str());
    const TrustLedger again = TrustLedger::load(saved_in, options);
    std::ostringstream resaved;
    again.save(resaved);
    if (resaved.str() != saved.str()) __builtin_trap();

    // One step over every user: even users far above the truth, odd users
    // far below, on two tasks, so every same-parity pair co-errs and every
    // loaded pair is counted.
    const std::size_t users = ledger.user_count();
    if (users > kMaxScoredUsers) return 0;
    ExpertiseStore store(users);
    store.add_domain();
    ObservationSet raw(users, 2);
    for (TaskId j = 0; j < 2; ++j) {
      for (UserId u = 0; u < users; ++u) {
        raw.add(j, u, u % 2 == 0 ? 10.0 : -10.0);
      }
    }
    const std::vector<DomainIndex> domain(2, 0);
    const std::vector<double> mu(2, 0.0);
    const std::vector<double> sigma(2, 1.0);
    (void)ledger.end_step(raw, domain, mu, sigma, store);
  } catch (const std::invalid_argument&) {
    // The one sanctioned rejection path for malformed ledger bytes.
  }
  return 0;
}
