#include "stepper.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <utility>

#include "alloc/max_quality.h"
#include "alloc/min_cost.h"
#include "stats/normal.h"
#include "truth/trust.h"

namespace perfbench {
namespace {

using eta2::core::Eta2Config;
using eta2::core::Eta2Server;
using eta2::core::NewTask;

eta2::alloc::MinCostAllocator::Options min_cost_options(const Eta2Config& c) {
  eta2::alloc::MinCostAllocator::Options o;
  o.epsilon = c.epsilon;
  o.epsilon_bar = c.epsilon_bar;
  o.confidence_alpha = c.confidence_alpha;
  o.cost_per_iteration = c.cost_per_iteration;
  o.max_data_iterations = c.max_data_iterations;
  o.half_approx_pass = c.half_approx_pass;
  return o;
}

bool same_allocation(const eta2::alloc::Allocation& a,
                     const eta2::alloc::Allocation& b) {
  if (a.task_count() != b.task_count() || a.pair_count() != b.pair_count()) {
    return false;
  }
  for (std::size_t j = 0; j < a.task_count(); ++j) {
    const auto ua = a.users_of(j);
    const auto ub = b.users_of(j);
    if (!std::equal(ua.begin(), ua.end(), ub.begin(), ub.end())) return false;
  }
  return true;
}

Eta2Config with_watchdog(Eta2Config config, Boundaries* bounds) {
  config.step_watchdog = [bounds] { bounds->watchdog(); };
  return config;
}

struct Seen {
  std::size_t task = 0;
  std::size_t user = 0;
  double value = 0.0;
};

}  // namespace

void Boundaries::boundary(Clock::time_point t) {
  if (count < 4) at[count] = t;
  ++count;
  if (count == 2 && on_identified) {
    on_identified();
    resume_at = Clock::now();
  } else if (count == 2) {
    resume_at = t;
  }
}

void Boundaries::watchdog() {
  const Clock::time_point now = Clock::now();
  if (pending) boundary(pending_at);
  pending = false;
  if ((collect_calls + 1) % 256 == 0) {
    pending = true;
    pending_at = now;
  } else {
    boundary(now);
  }
}

void Boundaries::before_collect() {
  ++collect_calls;
  pending = false;  // it was the every-256th extra call
}

void Boundaries::finish() {
  if (pending) boundary(pending_at);
  pending = false;
}

void digest_step(std::uint64_t& digest, const Eta2Server::StepResult& result) {
  digest_doubles(digest, result.truth);
  digest_doubles(digest, result.sigma);
  for (const auto dom : result.task_domains) {
    digest_bytes(digest, &dom, sizeof dom);
  }
  for (std::size_t j = 0; j < result.allocation.task_count(); ++j) {
    for (const std::size_t u : result.allocation.users_of(j)) {
      digest_bytes(digest, &u, sizeof u);
    }
  }
}

Stepper::Stepper(std::size_t user_count, Eta2Config config,
                 std::shared_ptr<const eta2::text::Embedder> embedder)
    : config_(with_watchdog(std::move(config), &bounds_)),
      server_(user_count, config_, std::move(embedder)),
      mle_(config_.mle) {}

StepRecord Stepper::step(std::span<const NewTask> batch,
                         std::span<const double> capacities,
                         const eta2::core::CollectFn& inner, eta2::Rng& rng,
                         bool trace, SpanLog* spans, std::int64_t id,
                         Eta2Server::StepResult& result) {
  const std::size_t n = server_.user_count();
  const std::size_t m = batch.size();
  // Traced steps keep the raw observations (the server's sanitizer passes
  // finite values through unchanged) and time the source itself.
  std::vector<Seen> seen;
  const eta2::core::CollectFn collect =
      [&](std::size_t local, std::size_t user) -> std::optional<double> {
    bounds_.before_collect();
    if (!trace) return inner(local, user);
    const Clock::time_point t0 = Clock::now();
    std::optional<double> v = inner(local, user);
    bounds_.observe_ms[bounds_.segment()] += ms_between(t0, Clock::now());
    if (v && std::isfinite(*v)) seen.push_back({local, user, *v});
    return v;
  };

  std::optional<eta2::truth::ExpertiseStore> store_at_alloc;
  std::optional<eta2::truth::TrustLedger> ledger_at_alloc;
  bounds_ = Boundaries{};
  if (trace) {
    bounds_.on_identified = [&] {
      store_at_alloc.emplace(server_.expertise_store());
      if (server_.trust_ledger() != nullptr) {
        ledger_at_alloc.emplace(*server_.trust_ledger());
      }
    };
  }

  StepRecord rec;
  rec.tasks = m;
  const Clock::time_point call = Clock::now();
  try {
    result = server_.step(batch, capacities, collect, rng);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: step %lld failed: %s\n",
                 static_cast<long long>(id), e.what());
    rec.failed = true;
  }
  const Clock::time_point done = Clock::now();
  bounds_.finish();

  rec.wall_ms = ms_between(call, done);
  rec.ack_ms = bounds_.count >= 4 ? ms_between(call, bounds_.at[3]) : rec.wall_ms;
  if (rec.failed || bounds_.count != 4 || result.truth.size() != m ||
      result.health.identifier_failed || result.health.truth_fallback ||
      result.health.rejected_nonfinite > 0) {
    rec.failed = true;
    return rec;
  }
  rec.health = result.health;
  rec.mle_iterations = result.mle_iterations;
  rec.data_iterations = result.data_iterations;
  rec.pairs = result.allocation.pair_count();
  if (!trace || !store_at_alloc) return rec;

  rec.traced = true;
  const Clock::time_point* b = bounds_.at;
  const double* obs = bounds_.observe_ms;
  rec.capture_ms = ms_between(b[1], bounds_.resume_at);
  for (int k = 0; k < 5; ++k) rec.observe_ms += obs[k];
  rec.identify_ms = ms_between(b[0], b[1]) - obs[1];
  rec.allocate_ms = ms_between(bounds_.resume_at, b[2]) - obs[2];
  rec.collect_ms = ms_between(b[2], b[3]) - obs[3];
  rec.truth_ms = ms_between(b[3], done) - obs[4];
  const Clock::time_point order[] = {call, b[0], b[1], bounds_.resume_at,
                                     b[2], b[3], done};
  rec.spans_ordered = std::is_sorted(std::begin(order), std::end(order)) &&
                      rec.identify_ms >= 0.0 && rec.allocate_ms >= 0.0 &&
                      rec.collect_ms >= 0.0 && rec.truth_ms >= 0.0;
  if (spans != nullptr) {
    const std::int64_t root = spans->add("core.step", call, done, -1, id);
    spans->add("core.identify", b[0], b[1], root, id);
    spans->add("bench.capture", b[1], bounds_.resume_at, root, id);
    spans->add("core.allocate", bounds_.resume_at, b[2], root, id);
    spans->add("core.collect", b[2], b[3], root, id);
    spans->add("core.truth", b[3], done, root, id);
  }

  // --- Replays of each layer's public entry point on this step's inputs,
  // outside the timed step. ---
  const eta2::truth::ExpertiseStore& pre = *store_at_alloc;
  eta2::alloc::AllocationProblem problem;
  rec.plane_fill_ms = time_ms(
      [&] { pre.fill_task_expertise(result.task_domains, problem.expertise); });
  if (ledger_at_alloc) ledger_at_alloc->discount_expertise(problem.expertise);
  for (const NewTask& t : batch) {
    problem.task_time.push_back(t.processing_time);
    problem.task_cost.push_back(t.cost);
  }
  problem.user_capacity.assign(capacities.begin(), capacities.end());
  std::vector<double> phi(problem.expertise.data().size());
  rec.phi_ms = time_ms([&] {
    eta2::stats::accuracy_probability_batch(problem.expertise.data(),
                                            config_.epsilon, phi);
  });
  rec.phi_evaluations = static_cast<double>(phi.size());

  eta2::alloc::Allocation replayed;
  if (config_.resolved_allocator() == "min-cost") {
    eta2::truth::ObservationSet lookup(n, m);
    for (const Seen& s : seen) lookup.add(s.task, s.user, s.value);
    const eta2::alloc::MinCostAllocator::CollectFn replay_collect =
        [&](std::size_t j, std::size_t i) -> std::optional<double> {
      for (const auto& o : lookup.for_task(j)) {
        if (o.user == i) return o.value;
      }
      return std::nullopt;
    };
    const eta2::alloc::MinCostAllocator allocator(min_cost_options(config_));
    rec.replay_ms = time_ms([&] {
      replayed = allocator
                     .run(problem, result.task_domains, pre.domain_count(),
                          pre.snapshot(), mle_, replay_collect)
                     .allocation;
    });
  } else {
    const eta2::alloc::MaxQualityAllocator allocator(
        {config_.epsilon, config_.half_approx_pass});
    rec.replay_ms = time_ms([&] { replayed = allocator.allocate(problem); });
  }
  rec.replay_matches = same_allocation(replayed, result.allocation);
  eta2::alloc::GreedyOptions build_only;
  build_only.epsilon = config_.epsilon;
  build_only.cost_cap = 0.0;
  eta2::alloc::Allocation empty(n, m);
  rec.build_ms =
      time_ms([&] { eta2::alloc::greedy_extend(problem, build_only, empty); });

  if (ledger_at_alloc) {
    eta2::truth::ObservationSet raw(n, m);
    for (const Seen& s : seen) raw.add(s.task, s.user, s.value);
    eta2::truth::TrustFilterResult filtered;
    rec.trust_filter_ms = time_ms([&] {
      filtered = ledger_at_alloc->filter(raw, result.task_domains,
                                         pre.snapshot(), mle_);
    });
    eta2::truth::ExpertiseStore sweep_store = pre;
    rec.trusted_sweep_ms = time_ms([&] {
      (void)ledger_at_alloc->trusted_dynamic_update(
          sweep_store, filtered.data, result.task_domains, config_.alpha, mle_);
    });
    rec.trust_end_step_ms = time_ms([&] {
      (void)ledger_at_alloc->end_step(raw, result.task_domains, result.truth,
                                      result.sigma, server_.expertise_store());
    });
  }
  return rec;
}

void set_step_layer_metrics(Result& r,
                            const std::vector<const StepRecord*>& traced) {
  const auto avg = [&](auto field) {
    double sum = 0.0;
    for (const StepRecord* s : traced) sum += static_cast<double>(field(*s));
    return traced.empty() ? 0.0 : sum / static_cast<double>(traced.size());
  };
  bool replays_match = true;
  bool ordered = true;
  double covered = 0.0;
  double wall = 0.0;
  for (const StepRecord* s : traced) {
    replays_match = replays_match && s->replay_matches;
    ordered = ordered && s->spans_ordered;
    covered += s->identify_ms + s->allocate_ms + s->collect_ms + s->truth_ms +
               s->observe_ms + s->capture_ms;
    wall += s->wall_ms;
  }
  const double coverage = wall > 0.0 ? covered / wall : 0.0;
  r.check(!traced.empty(), "traced steps recorded");
  r.check(replays_match, "allocation replay reproduces the step's allocation");
  // Ordered, non-negative spans sum to (return - entry boundary), so the
  // coverage check then only fails when the entry boundary comes late.
  r.check(ordered, "boundary spans ordered and non-negative net of observation");
  r.check(coverage >= 0.9, "boundary spans cover >= 90% of step wall");
  r.notes["span_coverage"] = std::to_string(coverage);

  using S = const StepRecord&;
  const double asked = avg([](S s) { return s.health.pairs_asked; });
  const double accepted = avg([](S s) { return s.health.observations_accepted; });
  const double selections = avg([](S s) { return s.health.greedy_selections; });
  const double gains = avg([](S s) { return s.health.greedy_gain_evaluations; });
  r.set("core.identify_ms", avg([](S s) { return s.identify_ms; }), "ms");
  r.set("core.allocate_ms", avg([](S s) { return s.allocate_ms; }), "ms");
  r.set("core.collect_ms", avg([](S s) { return s.collect_ms; }), "ms");
  r.set("core.truth_ms", avg([](S s) { return s.truth_ms; }), "ms");
  r.set("core.pairs_asked", asked, "count");
  r.set("core.observations_accepted", accepted, "count");
  r.set("core.collect_yield", asked > 0 ? accepted / asked : 0.0, "ratio");
  r.set("core.server_step_ms", avg([](S s) { return s.wall_ms; }), "ms");
  r.set("core.quarantined_batches",
        avg([](S s) { return s.health.quarantined_batches; }), "count");
  r.set("alloc.replay_ms", avg([](S s) { return s.replay_ms; }), "ms");
  r.set("alloc.build_ms", avg([](S s) { return s.build_ms; }), "ms");
  r.set("alloc.gain_evaluations", gains, "count");
  r.set("alloc.heap_pops", avg([](S s) { return s.health.greedy_heap_pops; }),
        "count");
  r.set("alloc.selections", selections, "count");
  r.set("alloc.gain_evaluations_per_selection",
        selections > 0 ? gains / selections : 0.0, "ratio");
  r.set("alloc.pairs", avg([](S s) { return s.pairs; }), "count");
  r.set("alloc.data_iterations", avg([](S s) { return s.data_iterations; }),
        "count");
  r.set("truth.plane_fill_ms", avg([](S s) { return s.plane_fill_ms; }), "ms");
  r.set("truth.mle_iterations", avg([](S s) { return s.mle_iterations; }),
        "count");
  r.set("truth.trust_filter_ms", avg([](S s) { return s.trust_filter_ms; }), "ms");
  r.set("truth.trusted_sweep_ms", avg([](S s) { return s.trusted_sweep_ms; }),
        "ms");
  r.set("truth.trust_end_step_ms", avg([](S s) { return s.trust_end_step_ms; }),
        "ms");
  r.set("truth.trimmed_observations",
        avg([](S s) { return s.health.trimmed_observations; }), "count");
  r.set("truth.dropped_quarantined",
        avg([](S s) { return s.health.dropped_quarantined; }), "count");
  r.set("stats.phi_ms", avg([](S s) { return s.phi_ms; }), "ms");
  r.set("stats.phi_evaluations", avg([](S s) { return s.phi_evaluations; }),
        "count");
  r.set("text.semantic_vector_ms", avg([](S s) { return s.semantic_ms; }), "ms");
  r.set("clustering.add_tasks_ms", avg([](S s) { return s.add_tasks_ms; }), "ms");
  r.set("clustering.history_tasks", avg([](S s) { return s.history_tasks; }),
        "count");
  r.set("clustering.domains", avg([](S s) { return s.domains; }), "count");
  r.set("bench.observe_ms", avg([](S s) { return s.observe_ms; }), "ms");

  // The step's largest-share module.
  const std::pair<const char*, double> layers[] = {
      {"core.identify", r.metrics["core.identify_ms"].value},
      {"core.allocate", r.metrics["core.allocate_ms"].value},
      {"core.collect", r.metrics["core.collect_ms"].value},
      {"core.truth", r.metrics["core.truth_ms"].value}};
  const auto* top = std::max_element(
      std::begin(layers), std::end(layers),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  const double step = r.metrics["core.server_step_ms"].value;
  r.notes["largest_layer"] = top->first;
  r.notes["largest_layer_share"] =
      std::to_string(step > 0 ? top->second / step : 0.0);
}

}  // namespace perfbench
