// One Eta2Server driven step by step, timed from outside.
//
// Untraced steps record only the step_watchdog boundary instants the
// end-to-end metrics need. Traced steps also split the step into the
// module spans between those boundaries and, after the step returns,
// replay each layer's public entry point on the step's own inputs
// (expertise plane fill, Φ over the plane, the allocator, the engine build,
// and the trust ledger calls on defended servers).
#ifndef ETA2_PERFBENCH_STEPPER_H
#define ETA2_PERFBENCH_STEPPER_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common.h"
#include "core/eta2_server.h"
#include "truth/eta2_mle.h"

namespace perfbench {

// The step_watchdog boundary calls of one step. Eta2Server::step calls the
// watchdog at entry and after identify, allocate and collect, plus once
// before every 256th observation collection; the extra calls are told apart
// because a collection always follows them immediately.
struct Boundaries {
  Clock::time_point at[4]{};
  double observe_ms[5]{};  // observation time before boundary k (4 = after)
  int count = 0;
  std::size_t collect_calls = 0;
  bool pending = false;
  Clock::time_point pending_at{};
  std::function<void()> on_identified;  // traced: capture pre-allocation state
  Clock::time_point resume_at{};        // end of that capture

  void boundary(Clock::time_point t);
  void watchdog();
  void before_collect();
  void finish();
  [[nodiscard]] int segment() const { return count < 4 ? count : 4; }
};

struct StepRecord {
  double wall_ms = 0.0;
  double ack_ms = 0.0;  // call -> observations accepted (post-collect)
  std::size_t tasks = 0;
  bool failed = false;
  bool traced = false;
  // Traced only.
  double identify_ms = 0, allocate_ms = 0, collect_ms = 0, truth_ms = 0;
  double observe_ms = 0, capture_ms = 0;
  double plane_fill_ms = 0, phi_ms = 0, replay_ms = 0, build_ms = 0;
  double semantic_ms = 0, add_tasks_ms = 0;
  double trust_filter_ms = 0, trusted_sweep_ms = 0, trust_end_step_ms = 0;
  double phi_evaluations = 0, history_tasks = 0, domains = 0;
  bool replay_matches = true;
  // The boundary instants are in step order and no module span goes
  // negative once its observation time is taken out.
  bool spans_ordered = true;
  eta2::core::StepHealth health;
  int mle_iterations = 0, data_iterations = 0;
  std::size_t pairs = 0;
};

class Stepper {
 public:
  Stepper(std::size_t user_count, eta2::core::Eta2Config config,
          std::shared_ptr<const eta2::text::Embedder> embedder);
  Stepper(const Stepper&) = delete;
  Stepper& operator=(const Stepper&) = delete;

  // Runs one step. `collect` is the observation source; its time is
  // booked as bench.observe, not to the layer that asked. Spans go to
  // `spans` (traced steps only, may be null) under step id `id`.
  StepRecord step(std::span<const eta2::core::NewTask> batch,
                  std::span<const double> capacities,
                  const eta2::core::CollectFn& collect, eta2::Rng& rng,
                  bool trace, SpanLog* spans, std::int64_t id,
                  eta2::core::Eta2Server::StepResult& result);

 private:
  Boundaries bounds_;  // read by the server's watchdog: declared first
  eta2::core::Eta2Config config_;
  eta2::core::Eta2Server server_;
  eta2::truth::Eta2Mle mle_;
};

// Digest of one step's outputs (truth, sigma, domains, allocation), chained.
void digest_step(std::uint64_t& digest,
                 const eta2::core::Eta2Server::StepResult& result);

// Sets the per-layer metrics a step yields (means over `traced` steps) and
// checks that the replays matched, that every step's boundary spans were
// ordered, and that they cover >= 90% of the step wall time.
void set_step_layer_metrics(Result& r,
                            const std::vector<const StepRecord*>& traced);

}  // namespace perfbench

#endif  // ETA2_PERFBENCH_STEPPER_H
