// The three campaign workloads: an in-process Eta2Server driven step by step
// over a generated dataset, the way `eta2 simulate` drives it.
//
// A run cycles in whole rounds over several campaigns (datasets derived
// from the seed), each on a fresh server, until the time budget is spent.
// Every repeat of a campaign does identical work and must produce a
// bitwise-identical digest; each (dataset, step) costs the median over the
// rounds. In traced mode each campaign runs untraced then traced; traced
// repeats record the step_watchdog boundary spans and replay each layer's
// public entry point on the step's own inputs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "clustering/dynamic_clusterer.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/eta2_server.h"
#include "sim/dataset.h"
#include "sim/experiment.h"
#include "stepper.h"
#include "text/pairword.h"
#include "truth/trust.h"
#include "workloads.h"

namespace perfbench {
namespace {

using eta2::core::Eta2Config;
using eta2::core::Eta2Server;
using eta2::core::NewTask;

struct Spec {
  std::size_t steps = 0;          // campaign length, warm-up step included
  std::size_t variants = 0;       // distinct datasets a run cycles through
  double error_bound = 0.0;       // estimation_error must stay below
  bool described = false;
  bool min_cost = false;
  bool defended = false;
};

Spec spec_for(const std::string& workload) {
  Spec s;
  if (workload == "campaign_known") {
    s.steps = 8;
    s.variants = 8;
    s.error_bound = 0.5;
  } else if (workload == "campaign_described") {
    s.steps = 20;
    s.variants = 4;
    s.error_bound = 0.5;
    s.described = true;
    s.min_cost = true;
  } else if (workload == "campaign_defended") {
    s.steps = 6;
    s.variants = 8;
    s.error_bound = 0.5;
    s.defended = true;
  } else {
    throw std::invalid_argument("unknown campaign workload " + workload);
  }
  return s;
}

// One campaign's inputs. A run cycles through several of these (distinct
// datasets derived from the seed) so its figures average over datasets
// rather than hang on one draw.
struct Setup {
  std::uint64_t seed = 0;  // dataset, adversary and campaign RNG seed
  eta2::sim::Dataset dataset;
  std::shared_ptr<const eta2::text::Embedder> embedder;
  Eta2Config config;
  eta2::fault::AdversaryOptions adversary;
  std::vector<double> capacities;
  std::vector<std::vector<std::size_t>> day_tasks;
  std::vector<std::vector<NewTask>> batches;
};

Setup make_setup(const Spec& spec, std::uint64_t seed,
                 std::shared_ptr<const eta2::text::Embedder> embedder) {
  Setup setup;
  setup.seed = seed;
  if (spec.described) {
    eta2::sim::SurveyOptions options;
    options.users = 200;
    options.days = static_cast<int>(spec.steps);
    options.tasks = 150 * spec.steps;
    setup.dataset = eta2::sim::make_survey_like(options, seed);
    setup.embedder = std::move(embedder);
  } else {
    eta2::sim::SyntheticOptions options;
    options.users = 400;
    options.domains = 16;
    options.days = static_cast<int>(spec.steps);
    options.tasks = 400 * spec.steps;
    options.mean_capacity = spec.defended ? 40.0 : 12.0;
    setup.dataset = eta2::sim::make_synthetic(options, seed);
  }
  if (spec.min_cost) setup.config.allocator = "min-cost";
  if (spec.defended) {
    setup.config.trust.tier = eta2::truth::DefenseTier::kTrimmedV1;
    setup.adversary.seed = seed;
    setup.adversary.sybil_fraction = 0.2;
    setup.adversary.clique_count = 2;
  }
  const eta2::sim::Dataset& d = setup.dataset;
  for (const eta2::sim::User& u : d.users) setup.capacities.push_back(u.capacity);
  for (int day = 0; day < d.day_count(); ++day) {
    std::vector<std::size_t> ids = d.tasks_of_day(day);
    std::vector<NewTask> batch;
    for (const std::size_t j : ids) {
      NewTask t;
      if (d.has_descriptions) {
        t.description = d.tasks[j].description;
      } else {
        t.known_domain = d.tasks[j].true_domain;
      }
      t.processing_time = d.tasks[j].processing_time;
      t.cost = d.tasks[j].cost;
      batch.push_back(std::move(t));
    }
    setup.day_tasks.push_back(std::move(ids));
    setup.batches.push_back(std::move(batch));
  }
  return setup;
}

struct CampaignOutcome {
  std::uint64_t digest = kDigestInit;
  double error_sum = 0.0;
  std::size_t error_count = 0;
  std::size_t failed_steps = 0;
  std::vector<StepRecord> steps;
};

// Runs the whole campaign once on a fresh server.
CampaignOutcome run_once(const Spec& spec, const Setup& setup, bool traced,
                         SpanLog* spans, std::int64_t step_id_base) {
  CampaignOutcome out;
  const eta2::sim::Dataset& d = setup.dataset;
  Stepper stepper(d.user_count(), setup.config, setup.embedder);
  eta2::Rng rng(setup.seed);
  std::optional<eta2::fault::AdversaryPlan> adversary;
  if (setup.adversary.any()) adversary.emplace(setup.adversary);
  std::optional<eta2::clustering::DynamicClusterer> shadow;
  if (traced && spec.described) shadow.emplace(setup.config.gamma);

  for (std::size_t day = 0; day < setup.batches.size(); ++day) {
    const std::vector<std::size_t>& ids = setup.day_tasks[day];
    const std::vector<NewTask>& batch = setup.batches[day];
    if (adversary) adversary->begin_step(day);
    eta2::Rng observe_rng = rng.fork(static_cast<std::uint64_t>(day) + 1);
    eta2::core::CollectFn collect =
        [&](std::size_t local, std::size_t user) -> std::optional<double> {
      return eta2::sim::observe(d, user, ids[local], observe_rng);
    };
    if (adversary) collect = adversary->wrap_collect(std::move(collect));

    // The warm-up step (random allocation, joint-MLE bootstrap) is never
    // traced: it is a different code path from the steady state.
    Eta2Server::StepResult result;
    StepRecord rec = stepper.step(
        batch, setup.capacities, collect, rng, traced && day > 0, spans,
        step_id_base + static_cast<std::int64_t>(day), result);
    if (rec.failed) {
      ++out.failed_steps;
      out.steps.push_back(rec);
      continue;
    }
    digest_step(out.digest, result);
    for (std::size_t j = 0; j < batch.size(); ++j) {
      if (std::isnan(result.truth[j])) continue;
      const eta2::sim::Task& task = d.tasks[ids[j]];
      out.error_sum += std::fabs(result.truth[j] - task.ground_truth) /
                       task.base_number;
      ++out.error_count;
    }
    if (shadow) {
      // The shadow clusterer sees every step (warm-up included) so its
      // history matches the server's identifier.
      std::vector<eta2::text::Embedding> vectors;
      vectors.reserve(batch.size());
      rec.semantic_ms = time_ms([&] {
        for (const NewTask& t : batch) {
          vectors.push_back(
              eta2::text::semantic_vector(t.description, *setup.embedder));
        }
      });
      rec.history_tasks = static_cast<double>(shadow->task_count());
      rec.add_tasks_ms = time_ms([&] { (void)shadow->add_tasks(vectors); });
      rec.domains = static_cast<double>(shadow->domain_count());
    }
    out.steps.push_back(rec);
  }
  return out;
}

}  // namespace

Result run_campaign(const Args& args, SpanLog* spans) {
  const Spec spec = spec_for(args.workload);
  Result r;
  eta2::parallel::set_thread_count(kLanes);

  // Set-up, kSetups times; the median is reported and the last one is kept.
  // It covers embedder training, dataset and batch generation for every
  // variant, and the server's own start-up (construction plus warm-up step)
  // on every variant.
  constexpr int kSetups = 7;
  std::vector<double> setup_s;
  std::vector<Setup> variants;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    variants.clear();
    std::shared_ptr<const eta2::text::Embedder> embedder;
    if (spec.described) embedder = eta2::sim::make_trained_embedder(args.seed);
    for (std::size_t v = 0; v < spec.variants; ++v) {
      variants.push_back(make_setup(spec, args.seed * spec.variants + v, embedder));
    }
    for (const Setup& setup : variants) {
      Eta2Server warm(setup.dataset.user_count(), setup.config, setup.embedder);
      eta2::Rng rng(setup.seed);
      eta2::Rng observe_rng = rng.fork(1);
      (void)warm.step(setup.batches[0], setup.capacities,
                      [&](std::size_t local, std::size_t user) {
                        return std::optional<double>(eta2::sim::observe(
                            setup.dataset, user, setup.day_tasks[0][local],
                            observe_rng));
                      },
                      rng);
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  // Measured loop: whole rounds over all variants, at least three, until
  // the budget is spent, so every dataset weighs the same and each step has
  // a median over repeats. A traced run runs each variant twice in a row,
  // untraced then traced, and need not end on a round.
  const std::size_t k = spec.variants;
  const auto variant_of = [&](std::size_t i) {
    return args.trace ? (i / 2) % k : i % k;
  };
  const auto more = [&](std::size_t done, double elapsed_s) {
    if (args.trace) return done < 2 || elapsed_s < args.seconds;
    return done < 3 * k || elapsed_s < args.seconds || done % k != 0;
  };
  std::vector<CampaignOutcome> runs;
  const Clock::time_point loop_start = Clock::now();
  double elapsed_s = 0.0;
  while (more(runs.size(), elapsed_s)) {
    const std::size_t i = runs.size();
    const bool traced = args.trace && i % 2 == 1;
    runs.push_back(run_once(spec, variants[variant_of(i)], traced, spans,
                            static_cast<std::int64_t>(i * 1000)));
    elapsed_s = ms_between(loop_start, Clock::now()) / 1000.0;
  }

  // Lane check: variant 0 once more on a single lane.
  eta2::parallel::set_thread_count(1);
  const CampaignOutcome one_lane = run_once(spec, variants[0], false, nullptr, 0);
  eta2::parallel::set_thread_count(kLanes);

  // --- checks ---
  std::size_t steps_total = 0, failed_steps = 0;
  bool repeats_identical = true;
  double error_sum = 0.0;
  std::size_t error_count = 0;
  std::vector<const CampaignOutcome*> first_of(k, nullptr);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CampaignOutcome& o = runs[i];
    steps_total += o.steps.size();
    failed_steps += o.failed_steps;
    const CampaignOutcome*& first = first_of[variant_of(i)];
    if (first == nullptr) {
      first = &o;
      error_sum += o.error_sum;
      error_count += o.error_count;
    }
    repeats_identical = repeats_identical && o.digest == first->digest;
  }
  r.attempted += steps_total;
  r.failed += failed_steps;
  r.check(failed_steps == 0, "every step completes without a degraded mode");
  r.check(repeats_identical,
          "campaign digest identical across repeats (traced and untraced)");
  r.check(one_lane.digest == runs[0].digest,
          "campaign digest identical at 1 and 2 lanes");
  const double error = error_count > 0
                           ? error_sum / static_cast<double>(error_count)
                           : std::nan("");
  r.check(std::isfinite(error) && error < spec.error_bound,
          "estimation_error below " + std::to_string(spec.error_bound));

  std::ostringstream digest_hex;
  digest_hex << std::hex << runs[0].digest;
  r.notes["digest"] = digest_hex.str();
  r.notes["repeats"] = std::to_string(runs.size());
  r.notes["steps_per_campaign"] = std::to_string(spec.steps);
  r.notes["variants"] = std::to_string(k);

  // Each (dataset, step) is timed once per repeat; its cost is the median
  // over the untraced repeats, so a repeat disturbed by other load on the
  // machine does not move it. Step quantiles exclude each campaign's warm-up
  // step (random allocation and the joint-MLE bootstrap, a different code
  // path); throughput counts every step.
  std::vector<std::vector<std::vector<double>>> wall_of(k), ack_of(k);
  std::vector<double> wall_untraced, wall_traced;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const std::vector<StepRecord>& steps = runs[i].steps;
    auto& w = wall_of[variant_of(i)];
    auto& a = ack_of[variant_of(i)];
    w.resize(steps.size());
    a.resize(steps.size());
    for (std::size_t j = 0; j < steps.size(); ++j) {
      if (j > 0) (steps[j].traced ? wall_traced : wall_untraced).push_back(steps[j].wall_ms);
      if (steps[j].traced) continue;
      w[j].push_back(steps[j].wall_ms);
      a[j].push_back(steps[j].ack_ms);
    }
  }
  std::vector<double> wall, ack;
  double wall_total_ms = 0.0;
  std::size_t step_count = 0, task_count = 0;
  for (std::size_t v = 0; v < k; ++v) {
    for (std::size_t j = 0; j < wall_of[v].size(); ++j) {
      if (wall_of[v][j].empty()) continue;
      const double w = quantile(wall_of[v][j], 0.5);
      wall_total_ms += w;
      ++step_count;
      task_count += variants[v].batches[j].size();
      if (j == 0) continue;
      wall.push_back(w);
      ack.push_back(quantile(ack_of[v][j], 0.5));
    }
  }
  r.notes["step_samples"] = std::to_string(wall.size());

  if (!args.trace) {
    r.set("setup_s", quantile(setup_s, 0.5), "s");
    r.set("step_ms_p50", hd_quantile(wall, 0.5), "ms");
    r.set("step_ms_p90", hd_quantile(wall, 0.9), "ms");
    r.set("tasks_per_s", 1000.0 * static_cast<double>(task_count) / wall_total_ms,
          "tasks/s");
    r.set("estimation_error", error, "sigma");
    r.set("ack_ms_p50", hd_quantile(ack, 0.5), "ms");
    r.set("ack_ms_p90", hd_quantile(ack, 0.9), "ms");
    r.set("ingest_commit_ms_p50", hd_quantile(wall, 0.5), "ms");
    r.set("ingest_commit_ms_p90", hd_quantile(wall, 0.9), "ms");
    r.set("commits_per_s", 1000.0 * static_cast<double>(step_count) / wall_total_ms,
          "steps/s");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    return r;
  }

  // --- per-layer metrics: means per traced step ---
  std::vector<const StepRecord*> traced;
  for (const CampaignOutcome& o : runs) {
    for (const StepRecord& s : o.steps) {
      if (s.traced) traced.push_back(&s);
    }
  }
  set_step_layer_metrics(r, traced);
  for (const char* io : {"io.ingest_wal_append_ms", "io.wal_begin_ms",
                         "io.wal_commit_ms", "io.snapshot_ms",
                         "io.journal_rotate_prune_ms",
                         "core.durable_capture_ms", "serve.ingest_call_ms",
                         "serve.queue_wait_ms", "serve.generator_lag_ms_p90"}) {
    r.set(io, 0.0, "ms");  // campaigns never touch the durability path
  }
  for (const char* c : {"io.fsyncs_per_batch", "serve.queue_depth_max",
                        "serve.rejected", "serve.shed"}) {
    r.set(c, 0.0, "count");
  }
  const double untraced_p50 = quantile(wall_untraced, 0.5);
  const double traced_p50 = quantile(wall_traced, 0.5);
  r.set("bench.trace_overhead_pct",
        untraced_p50 > 0 ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50 : 0.0,
        "%");

  // Per-step series of the first traced repeat: identification time against
  // the clusterer's history.
  std::ostringstream series;
  series << "[";
  bool first = true;
  for (const CampaignOutcome& o : runs) {
    bool any = false;
    for (std::size_t k = 0; k < o.steps.size(); ++k) {
      const StepRecord& s = o.steps[k];
      if (!s.traced) continue;
      any = true;
      series << (first ? "" : ",") << "{\"step\":" << k
             << ",\"step_ms\":" << json_number(s.wall_ms)
             << ",\"core.identify_ms\":" << json_number(s.identify_ms)
             << ",\"clustering.history_tasks\":" << json_number(s.history_tasks)
             << ",\"clustering.domains\":" << json_number(s.domains) << "}";
      first = false;
    }
    if (any) break;
  }
  series << "]";
  r.series_json = series.str();
  return r;
}

}  // namespace perfbench
