// The serve_ingest workload: an in-process Eta2Service with its step thread
// running, in a fresh directory under the output directory.
//
// A run opens kInstances fresh services one after the other. Each is set up
// the same way (population and batch generation, open, warm-up prefix) and
// then driven from this process in two phases:
//   - open loop: one schedule of Poisson arrivals at kRate batches/s from
//     kClients threads, each request timed from the instant it was due.
//     Every instance replays the same schedule, so batch k of the schedule
//     meets the same queue on each, and its latency is the minimum over the
//     instances: a request disturbed by other load on the machine does not
//     move it;
//   - closed loop: kClients callers, each waiting for its batch to commit
//     before sending the next.
// Protocol instants come from the service's own instrumentation callbacks:
// DurableOptions::attempt_hook and the crash_hook points of both WALs
// ("journal-append-mid/post", "snapshot-post-rename", "journal-rotate",
// "journal-prune", and their "ingest-" twins).
//
// The workload runs with io::set_durable_fsync(false): every WAL record,
// capture, snapshot and rotation is written, but the physical flush is left
// to the kernel. On a shared virtual disk the flush alone varies several
// fold from minute to minute and would swamp every figure here.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "io/snapshot.h"
#include "serve/service.h"
#include "stepper.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using eta2::serve::Admission;
using eta2::serve::Eta2Service;
using eta2::serve::IngestBatch;

constexpr std::size_t kUsers = 200;
constexpr std::size_t kDomains = 16;
constexpr std::size_t kTasks = 20;
constexpr std::size_t kObservers = 10;
constexpr double kRate = 60.0;        // open-loop batches per second
constexpr std::size_t kClients = 2;   // open-loop threads and closed callers
constexpr std::size_t kWarmup = 60;   // warm-up prefix, part of set-up
constexpr std::size_t kInstances = 4;  // fresh services per run
constexpr double kErrorBound = 1.0;
constexpr std::size_t kMaxReplaySteps = 300;
constexpr std::size_t kWindows = 8;  // closed-loop throughput slices

// Latent per-(user, domain) expertise of the simulated population.
using Population = std::vector<std::vector<double>>;

Population make_population(std::uint64_t seed) {
  eta2::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  Population p(kUsers, std::vector<double>(kDomains));
  for (auto& row : p) {
    for (double& u : row) u = rng.uniform(0.2, 3.0);
  }
  return p;
}

struct Batch {
  IngestBatch batch;
  std::vector<double> mu;     // ground truth per task
  std::vector<double> sigma;  // base number per task
};

// Deterministic batch `index`: kTasks known-domain tasks, each observed by
// kObservers distinct users with noise sigma / expertise. Only a batch's
// observers have capacity in its step, enough for every task they observed.
Batch make_batch(const Population& pop, std::uint64_t seed,
                 std::uint64_t index) {
  eta2::Rng rng(seed * 0x2545f4914f6cdd1dULL + index + 1);
  Batch b;
  b.batch.user_capacity.assign(kUsers, 0.0);
  for (std::size_t t = 0; t < kTasks; ++t) {
    const auto domain = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kDomains) - 1));
    const double mu = rng.uniform(0.0, 20.0);
    const double sigma = rng.uniform(0.5, 5.0);
    eta2::core::NewTask task;
    task.known_domain = domain;
    task.processing_time = rng.uniform(0.5, 1.5);
    b.batch.tasks.push_back(task);
    b.mu.push_back(mu);
    b.sigma.push_back(sigma);
    std::vector<std::size_t> picked;
    while (picked.size() < kObservers) {
      const auto u = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kUsers) - 1));
      if (std::find(picked.begin(), picked.end(), u) != picked.end()) continue;
      picked.push_back(u);
      b.batch.user_capacity[u] += task.processing_time;
      const double noise = sigma / std::max(pop[u][domain], 0.05);
      b.batch.observations.push_back({t, u, mu + noise * rng.normal()});
    }
  }
  return b;
}

// The open-loop schedule: due times (seconds after the phase starts) and
// the batch sent at each. Arrivals are Poisson at kRate, with the
// exponential inter-arrival gaps drawn by stratified sampling: one gap from
// each of n equal-probability strata, in a seeded random order. Every seed
// then sees the same mix of short and long gaps, which is what sets the
// queueing tail, while the order of the gaps varies with the seed.
struct Schedule {
  std::vector<double> offsets;
  std::vector<Batch> batches;
};

Schedule make_schedule(const Population& pop, std::uint64_t seed,
                       double seconds) {
  eta2::Rng arrivals(seed * 0x9e3779b97f4a7c15ULL + 3);
  const auto n = static_cast<std::size_t>(std::llround(kRate * seconds));
  std::vector<double> gaps(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + arrivals.uniform01()) /
                     static_cast<double>(n);
    gaps[i] = -std::log(1.0 - u) / kRate;
  }
  arrivals.shuffle(gaps);
  Schedule s;
  double t = 0.0;
  for (const double gap : gaps) {
    t += gap;
    s.offsets.push_back(t);
    s.batches.push_back(make_batch(pop, seed, kWarmup + s.offsets.size()));
  }
  return s;
}

// Protocol instants of one durable step.
struct StepTimes {
  Clock::time_point begin_mid, begin_post, attempt, commit_mid, commit_post;
  bool committed = false;
};

thread_local Clock::time_point tl_ingest_mid;

// Records the service's protocol instants. Hooks arrive from client threads
// (ingest WAL) and the step thread (campaign WAL, attempt hook).
class Probe {
 public:
  Probe(SpanLog* spans, std::int64_t id_base)
      : spans_(spans), id_base_(id_base) {}

  void crash_hook(std::string_view point) {
    const Clock::time_point now = Clock::now();
    if (point == "ingest-journal-append-mid") {
      tl_ingest_mid = now;
      return;
    }
    const std::lock_guard<std::mutex> lock(mu_);
    if (!armed_) return;
    if (point == "ingest-journal-append-post") {
      ingest_append_ms_.push_back(ms_between(tl_ingest_mid, now));
      ++fsyncs_;
    } else if (point == "ingest-journal-rotate") {
      ++fsyncs_;
    } else if (point == "ingest-journal-prune") {
      ++fsyncs_;
      if (rotate_start_) {
        rotate_prune_ms_.push_back(ms_between(*rotate_start_, now));
        rotate_start_.reset();
      }
    } else if (point == "journal-append-mid") {
      if (phase_ == Phase::kExec) {
        cur_.commit_mid = now;
      } else {
        cur_ = StepTimes{};
        cur_.begin_mid = now;
        phase_ = Phase::kBegin;
      }
    } else if (point == "journal-append-post") {
      ++fsyncs_;
      if (phase_ == Phase::kBegin) {
        cur_.begin_post = now;
      } else if (phase_ == Phase::kExec) {
        cur_.commit_post = now;
        cur_.committed = true;
        steps_[cur_step_] = cur_;
        phase_ = Phase::kIdle;
        commit_pending_snapshot_ = true;
        if (spans_ != nullptr && cur_step_ % 2 == 1) record_step_spans();
        cv_.notify_all();
      }
    } else if (point == "snapshot-post-rename") {
      fsyncs_ += 2;  // the snapshot file and its directory
      if (commit_pending_snapshot_) {
        snapshot_ms_.push_back(ms_between(cur_.commit_post, now));
      }
      commit_pending_snapshot_ = false;
    } else if (point == "journal-rotate") {
      ++fsyncs_;
      rotate_start_ = now;
    } else if (point == "journal-prune") {
      ++fsyncs_;
    }
  }

  void attempt_hook(std::uint64_t step, int /*attempt*/) {
    const Clock::time_point now = Clock::now();
    const std::lock_guard<std::mutex> lock(mu_);
    cur_step_ = step;
    cur_.attempt = now;
    phase_ = Phase::kExec;
  }

  // Blocks until step `seq` has committed; false on timeout.
  bool wait_commit(std::uint64_t seq, Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_until(lock, deadline, [&] {
      const auto it = steps_.find(seq);
      return it != steps_.end() && it->second.committed;
    });
  }

  // Starts a fresh measurement window (protocol state is kept).
  void reset_counters() {
    const std::lock_guard<std::mutex> lock(mu_);
    ingest_append_ms_.clear();
    snapshot_ms_.clear();
    rotate_prune_ms_.clear();
    fsyncs_ = 0;
  }
  void disarm() {
    const std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
  }

  // Read after the service stopped.
  [[nodiscard]] const StepTimes* step(std::uint64_t seq) const {
    const auto it = steps_.find(seq);
    return it == steps_.end() || !it->second.committed ? nullptr : &it->second;
  }
  [[nodiscard]] const std::map<std::uint64_t, StepTimes>& steps() const {
    return steps_;
  }
  [[nodiscard]] const std::vector<double>& ingest_append_ms() const {
    return ingest_append_ms_;
  }
  [[nodiscard]] const std::vector<double>& snapshot_ms() const {
    return snapshot_ms_;
  }
  [[nodiscard]] const std::vector<double>& rotate_prune_ms() const {
    return rotate_prune_ms_;
  }
  [[nodiscard]] std::uint64_t fsyncs() const { return fsyncs_; }

 private:
  enum class Phase { kIdle, kBegin, kExec };

  void record_step_spans() {
    const auto id = id_base_ + static_cast<std::int64_t>(cur_step_);
    const std::int64_t root =
        spans_->add("serve.step", cur_.begin_mid, cur_.commit_post, -1, id);
    spans_->add("io.wal_begin", cur_.begin_mid, cur_.begin_post, root, id);
    spans_->add("core.durable_capture", cur_.begin_post, cur_.attempt, root, id);
    spans_->add("core.server_step", cur_.attempt, cur_.commit_mid, root, id);
    spans_->add("io.wal_commit", cur_.commit_mid, cur_.commit_post, root, id);
  }

  SpanLog* spans_;
  std::int64_t id_base_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = true;
  Phase phase_ = Phase::kIdle;
  std::uint64_t cur_step_ = 0;
  StepTimes cur_;
  bool commit_pending_snapshot_ = false;
  std::optional<Clock::time_point> rotate_start_;
  std::map<std::uint64_t, StepTimes> steps_;
  std::vector<double> ingest_append_ms_;
  std::vector<double> snapshot_ms_;
  std::vector<double> rotate_prune_ms_;
  std::uint64_t fsyncs_ = 0;
};

// One client request.
struct Request {
  Clock::time_point due, sent, acked;
  std::uint64_t seq = 0;
  bool accepted = false;
};

// Sends one batch and waits for its commit (the closed-loop call).
bool send_and_wait(Eta2Service& service, Probe& probe, IngestBatch batch,
                   std::uint64_t& seq) {
  const Eta2Service::IngestResult res = service.ingest(std::move(batch));
  if (res.decision != Admission::kAccepted) return false;
  seq = res.seq;
  return probe.wait_commit(res.seq, Clock::now() + std::chrono::seconds(30));
}

// Everything one service instance yields.
struct InstanceRun {
  double setup_s = 0.0;
  bool warmup_ok = true;
  std::unique_ptr<Probe> probe;
  std::vector<Request> open;  // by batch index in the schedule
  std::vector<Request> closed;
  std::vector<std::string> client_errors;
  eta2::serve::ServeHealthSnapshot health;
  bool service_failed = false;
  std::uint64_t offered = 0;  // ingest calls made, warm-up included
  Clock::time_point start{}, closed_start{}, closed_end{};
  double error_sum = 0.0;
  std::size_t error_tasks = 0;
  std::size_t error_batches = 0;
  std::map<std::uint64_t, IngestBatch> kept;  // traced: batches by seq
};

// Opens service `index`, warms it up, drives the open loop on the schedule
// and then the closed loop, and stops it.
InstanceRun run_instance(const Args& args, std::size_t index, double open_s,
                         double closed_s, SpanLog* spans) {
  InstanceRun run;
  const bool traced = spans != nullptr;

  // --- set-up: population and batch generation, open, warm-up prefix ---
  const Clock::time_point t0 = Clock::now();
  const Population pop = make_population(args.seed);
  const Schedule schedule = make_schedule(pop, args.seed, open_s);
  const std::string dir = args.out_dir + "/serve-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(index);
  fs::remove_all(dir);
  run.probe = std::make_unique<Probe>(
      spans, static_cast<std::int64_t>(index) * 1'000'000);
  Probe& probe = *run.probe;
  Eta2Service::Options options;
  options.dir = dir;
  options.user_count = kUsers;
  options.seed = args.seed;
  options.crash_hook = [&probe](std::string_view p) { probe.crash_hook(p); };
  options.durable.attempt_hook = [&probe](std::uint64_t s, int a) {
    probe.attempt_hook(s, a);
  };
  Eta2Service service(std::move(options));
  for (std::size_t k = 0; k < kWarmup; ++k) {
    Batch b = make_batch(pop, args.seed, k);
    if (traced) run.kept[k] = b.batch;
    std::uint64_t seq = 0;
    ++run.offered;
    run.warmup_ok =
        send_and_wait(service, probe, std::move(b.batch), seq) && run.warmup_ok;
  }
  run.setup_s = ms_between(t0, Clock::now()) / 1000.0;
  probe.reset_counters();

  std::mutex mu;  // guards kept, closed, client_errors and the error sums
  const auto keep = [&](std::uint64_t seq, const IngestBatch& b) {
    if (!traced) return;
    const std::lock_guard<std::mutex> lock(mu);
    run.kept[seq] = b;
  };
  // A client thread must not let an exception escape; it is recorded and
  // fails the run.
  const auto client_error = [&](const std::exception& e) {
    const std::lock_guard<std::mutex> lock(mu);
    run.client_errors.push_back(e.what());
  };

  // --- open loop ---
  run.open.resize(schedule.offsets.size());
  {
    std::atomic<std::size_t> next{0};
    run.start = Clock::now() + std::chrono::milliseconds(5);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        try {
          for (std::size_t k = next++; k < run.open.size(); k = next++) {
            Request& req = run.open[k];
            req.due = run.start +
                      std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(schedule.offsets[k]));
            // Sleep to just short of the due instant, then spin: a thread
            // woken from sleep can run late by a scheduler quantum.
            std::this_thread::sleep_until(req.due - std::chrono::microseconds(300));
            while (Clock::now() < req.due) {
            }
            IngestBatch batch = schedule.batches[k].batch;
            req.sent = Clock::now();
            const auto res = service.ingest(std::move(batch));
            req.acked = Clock::now();
            req.accepted = res.decision == Admission::kAccepted;
            req.seq = res.seq;
            if (req.accepted) keep(res.seq, schedule.batches[k].batch);
          }
        } catch (const std::exception& e) {
          client_error(e);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    run.offered += run.open.size();
  }
  std::uint64_t last_open_seq = 0;
  for (const Request& q : run.open) {
    if (q.accepted) last_open_seq = std::max(last_open_seq, q.seq);
  }
  probe.wait_commit(last_open_seq, Clock::now() + std::chrono::seconds(30));

  // --- closed loop ---
  run.closed_start = Clock::now();
  {
    std::atomic<std::uint64_t> batch_index{1'000'000};
    const Clock::time_point stop_at =
        run.closed_start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(closed_s));
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kClients; ++c) {
      callers.emplace_back([&] {
        try {
          while (Clock::now() < stop_at) {
            Batch b = make_batch(pop, args.seed, batch_index++);
            const IngestBatch copy = traced ? b.batch : IngestBatch{};
            Request req;
            req.due = req.sent = Clock::now();
            std::uint64_t seq = 0;
            const bool ok = send_and_wait(service, probe, std::move(b.batch), seq);
            req.acked = Clock::now();
            req.accepted = ok;
            req.seq = seq;
            if (ok) keep(seq, copy);
            // The committed view of this batch, when no later step has
            // replaced it yet.
            double err = 0.0;
            std::size_t tasks = 0;
            bool seen = false;
            for (int spin = 0; ok && spin < 20000; ++spin) {
              const auto view = service.query();
              if (view->steps_completed > seq + 1) break;
              if (view->steps_completed == seq + 1) {
                for (std::size_t j = 0; j < view->truth.size(); ++j) {
                  if (std::isnan(view->truth[j])) continue;
                  err += std::fabs(view->truth[j] - b.mu[j]) / b.sigma[j];
                  ++tasks;
                }
                seen = true;
                break;
              }
              std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
            const std::lock_guard<std::mutex> lock(mu);
            run.closed.push_back(req);
            if (ok) run.closed_end = std::max(run.closed_end, req.acked);
            if (seen) {
              run.error_sum += err;
              run.error_tasks += tasks;
              ++run.error_batches;
            }
          }
        } catch (const std::exception& e) {
          client_error(e);
        }
      });
    }
    for (std::thread& t : callers) t.join();
    run.offered += run.closed.size();
  }

  probe.disarm();
  run.service_failed = service.failed();
  service.stop();
  run.health = service.health().snapshot();
  fs::remove_all(dir);
  return run;
}

}  // namespace

Result run_serve(const Args& args, SpanLog* spans) {
  Result r;
  eta2::parallel::set_thread_count(kLanes);
  eta2::io::set_durable_fsync(false);
  const double open_s = 0.7 * args.seconds / static_cast<double>(kInstances);
  const double closed_s = 0.3 * args.seconds / static_cast<double>(kInstances);

  std::vector<InstanceRun> runs;
  for (std::size_t i = 0; i < kInstances; ++i) {
    runs.push_back(run_instance(args, i, open_s, closed_s, spans));
  }

  // --- checks ---
  std::size_t measured = 0, lost = 0;
  bool ledgers_ok = true, all_committed = true, healthy = true;
  bool clients_ok = true, warmups_ok = true;
  double error_sum = 0.0;
  std::size_t error_tasks = 0, error_batches = 0;
  for (const InstanceRun& run : runs) {
    measured += run.open.size() + run.closed.size();
    for (const Request& q : run.open) {
      if (!q.accepted || run.probe->step(q.seq) == nullptr) ++lost;
    }
    for (const Request& q : run.closed) lost += q.accepted ? 0 : 1;
    const eta2::serve::ServeHealthSnapshot& h = run.health;
    ledgers_ok = ledgers_ok && h.ingests_offered == run.offered &&
                 h.ingests_offered ==
                     h.accepted + h.rejected_overloaded + h.shed + h.malformed;
    all_committed =
        all_committed && h.steps_committed == h.accepted && h.quarantined == 0;
    healthy = healthy && !run.service_failed;
    clients_ok = clients_ok && run.client_errors.empty();
    warmups_ok = warmups_ok && run.warmup_ok;
    error_sum += run.error_sum;
    error_tasks += run.error_tasks;
    error_batches += run.error_batches;
  }
  r.attempted += measured;
  r.failed += lost;
  r.check(lost == 0, "every offered batch accepted and committed");
  r.check(warmups_ok, "warm-up batches committed");
  r.check(healthy, "service step loop healthy");
  r.check(clients_ok, "client calls completed without exceptions");
  r.check(ledgers_ok, "zero-silent-drop ledger reconciles");
  r.check(all_committed, "every accepted batch reached COMMIT");
  const double error =
      error_tasks > 0 ? error_sum / static_cast<double>(error_tasks) : std::nan("");
  r.check(error_batches >= 10 && std::isfinite(error) && error < kErrorBound,
          "estimation_error below " + std::to_string(kErrorBound));
  r.notes["open_loop_rate_per_s"] = std::to_string(kRate);
  r.notes["open_loop_batches_per_instance"] = std::to_string(runs[0].open.size());
  r.notes["instances"] = std::to_string(kInstances);
  r.notes["error_batches"] = std::to_string(error_batches);
  r.notes["warmup_batches"] = std::to_string(kWarmup);
  r.notes["durable_fsync"] = "off";

  // --- samples. Other load on a shared machine only ever adds time, so
  // each figure is taken from the fastest instance: batch k of the schedule
  // costs the minimum over the instances, and throughput is the highest
  // instance's. ---
  std::vector<double> ack, commit, step_ms;
  for (std::size_t k = 0; k < runs[0].open.size(); ++k) {
    std::vector<double> a, c, s;
    for (const InstanceRun& run : runs) {
      const Request& q = run.open[k];
      const StepTimes* st = run.probe->step(q.seq);
      if (!q.accepted || st == nullptr) continue;
      a.push_back(ms_between(q.due, q.acked));
      c.push_back(ms_between(q.due, st->commit_post));
      s.push_back(ms_between(st->begin_mid, st->commit_post));
    }
    if (a.empty()) continue;
    ack.push_back(*std::min_element(a.begin(), a.end()));
    commit.push_back(*std::min_element(c.begin(), c.end()));
    step_ms.push_back(*std::min_element(s.begin(), s.end()));
  }
  // Closed-loop throughput of an instance: the median of its commits per
  // second over kWindows equal slices of the phase. Tasks per second of an
  // instance: every measured batch, open and closed, over both phases.
  double commits_per_s = 0.0;
  double tasks_per_s = 0.0;
  for (const InstanceRun& run : runs) {
    const double wall_s = ms_between(run.closed_start, run.closed_end) / 1000.0;
    const double measured_s = ms_between(run.start, run.closed_end) / 1000.0;
    if (wall_s <= 0.0 || measured_s <= 0.0) continue;
    std::vector<double> counts(kWindows, 0.0);
    std::size_t committed = 0;
    for (const Request& q : run.closed) {
      if (!q.accepted) continue;
      ++committed;
      const double at = ms_between(run.closed_start, q.acked) / 1000.0;
      const auto w = static_cast<std::size_t>(
          at / wall_s * static_cast<double>(kWindows));
      counts[std::min(w, kWindows - 1)] += static_cast<double>(kWindows) / wall_s;
    }
    for (const Request& q : run.open) committed += q.accepted ? 1 : 0;
    commits_per_s = std::max(commits_per_s, hd_quantile(counts, 0.5));
    tasks_per_s = std::max(
        tasks_per_s, static_cast<double>(committed * kTasks) / measured_s);
  }

  if (!args.trace) {
    std::vector<double> setup_s;
    for (const InstanceRun& run : runs) setup_s.push_back(run.setup_s);
    r.set("setup_s", quantile(setup_s, 0.5), "s");
    r.set("step_ms_p50", hd_quantile(step_ms, 0.5), "ms");
    r.set("step_ms_p90", hd_quantile(step_ms, 0.9), "ms");
    r.set("tasks_per_s", tasks_per_s, "tasks/s");
    r.set("estimation_error", error, "sigma");
    r.set("ack_ms_p50", hd_quantile(ack, 0.5), "ms");
    r.set("ack_ms_p90", hd_quantile(ack, 0.9), "ms");
    r.set("ingest_commit_ms_p50", hd_quantile(commit, 0.5), "ms");
    r.set("ingest_commit_ms_p90", hd_quantile(commit, 0.9), "ms");
    r.set("commits_per_s", commits_per_s, "steps/s");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    return r;
  }

  // --- traced: the batch path due -> COMMIT, span by span. The protocol
  // instants of each batch must be causally ordered (sent before its step's
  // BEGIN, the step's instants in protocol order); the parts then cover
  // due -> COMMIT, overlapping only where the client thread saw its ack
  // after the step had begun (it can be preempted between the two). ---
  const char* parts[] = {"serve.generator_lag", "serve.ingest_call",
                         "serve.queue_wait",    "io.wal_begin",
                         "core.durable_capture", "core.server_step",
                         "io.wal_commit"};
  double part_sum[7] = {};
  std::vector<double> lag, ingest_call, queue_wait;
  double covered = 0.0, total = 0.0;
  std::size_t disordered = 0;
  for (const InstanceRun& run : runs) {
    for (const Request& q : run.open) {
      const StepTimes* st = run.probe->step(q.seq);
      if (!q.accepted || st == nullptr) continue;
      const Clock::time_point order[] = {q.due,          q.sent,
                                         st->begin_mid,  st->begin_post,
                                         st->attempt,    st->commit_mid,
                                         st->commit_post};
      if (!std::is_sorted(std::begin(order), std::end(order)) || q.acked < q.sent) {
        ++disordered;
      }
      const double p[7] = {ms_between(q.due, q.sent),
                           ms_between(q.sent, q.acked),
                           std::max(0.0, ms_between(q.acked, st->begin_mid)),
                           ms_between(st->begin_mid, st->begin_post),
                           ms_between(st->begin_post, st->attempt),
                           ms_between(st->attempt, st->commit_mid),
                           ms_between(st->commit_mid, st->commit_post)};
      const auto id = static_cast<std::int64_t>(&run - runs.data()) * 1'000'000 +
                      static_cast<std::int64_t>(q.seq);
      const std::int64_t root = spans->add("serve.batch", q.due, st->commit_post, -1, id);
      spans->add("serve.generator_lag", q.due, q.sent, root, id);
      spans->add("serve.ingest_call", q.sent, q.acked, root, id);
      spans->add("serve.queue_wait", q.acked, std::max(q.acked, st->begin_mid), root, id);
      for (int k = 0; k < 7; ++k) {
        part_sum[k] += p[k];
        covered += p[k];
      }
      total += ms_between(q.due, st->commit_post);
      lag.push_back(p[0]);
      ingest_call.push_back(p[1]);
      queue_wait.push_back(p[2]);
    }
  }
  const double coverage = total > 0 ? covered / total : 0.0;
  r.check(disordered == 0, "protocol instants of every batch causally ordered");
  r.check(coverage >= 0.9 && coverage <= 1.02,
          "spans cover 90-102% of ingest->commit");
  r.notes["ingest_commit_coverage"] = std::to_string(coverage);
  const auto* top = std::max_element(std::begin(part_sum), std::end(part_sum));
  r.notes["ingest_commit_largest_layer"] = parts[top - std::begin(part_sum)];
  r.notes["ingest_commit_largest_layer_share"] =
      std::to_string(total > 0 ? *top / total : 0.0);

  // Shadow replay: the first instance's committed batches, in sequence
  // order, through a fresh Eta2Server with the service's configuration, for
  // the module spans the service's own watchdog hides.
  std::vector<const StepRecord*> traced;
  std::vector<StepRecord> records;
  {
    Stepper stepper(kUsers, eta2::core::Eta2Config{}, nullptr);
    eta2::Rng rng(args.seed);
    records.reserve(std::min(runs[0].kept.size(), kMaxReplaySteps));
    for (const auto& [seq, batch] : runs[0].kept) {
      if (records.size() >= kMaxReplaySteps) break;
      std::map<std::pair<std::size_t, std::size_t>, double> table;
      for (const auto& o : batch.observations) table[{o.task, o.user}] = o.value;
      const eta2::core::CollectFn collect =
          [&table](std::size_t j, std::size_t u) -> std::optional<double> {
        const auto it = table.find({j, u});
        if (it == table.end()) return std::nullopt;
        return it->second;
      };
      eta2::core::Eta2Server::StepResult result;
      records.push_back(stepper.step(batch.tasks, batch.user_capacity, collect, rng,
                                     seq > 0, nullptr,
                                     static_cast<std::int64_t>(seq), result));
      if (records.back().traced) traced.push_back(&records.back());
    }
  }
  set_step_layer_metrics(r, traced);
  r.notes["replayed_steps"] = std::to_string(records.size());
  r.notes["step_largest_layer"] = r.notes["largest_layer"];
  r.notes["step_largest_layer_share"] = r.notes["largest_layer_share"];
  r.notes["largest_layer"] = r.notes["ingest_commit_largest_layer"];
  r.notes["largest_layer_share"] = r.notes["ingest_commit_largest_layer_share"];

  std::vector<double> capture, server_step, wal_begin, wal_commit, step_odd,
      step_even, ingest_append, snapshot, rotate_prune;
  std::uint64_t fsyncs = 0, quarantined = 0, depth_max = 0, rejected = 0, shed = 0;
  for (const InstanceRun& run : runs) {
    for (const auto& [seq, st] : run.probe->steps()) {
      if (seq < kWarmup) continue;
      wal_begin.push_back(ms_between(st.begin_mid, st.begin_post));
      capture.push_back(ms_between(st.begin_post, st.attempt));
      server_step.push_back(ms_between(st.attempt, st.commit_mid));
      wal_commit.push_back(ms_between(st.commit_mid, st.commit_post));
      (seq % 2 == 1 ? step_odd : step_even)
          .push_back(ms_between(st.begin_mid, st.commit_post));
    }
    const Probe& probe = *run.probe;
    ingest_append.insert(ingest_append.end(), probe.ingest_append_ms().begin(),
                         probe.ingest_append_ms().end());
    snapshot.insert(snapshot.end(), probe.snapshot_ms().begin(),
                    probe.snapshot_ms().end());
    rotate_prune.insert(rotate_prune.end(), probe.rotate_prune_ms().begin(),
                        probe.rotate_prune_ms().end());
    fsyncs += probe.fsyncs();
    quarantined += run.health.quarantined;
    depth_max = std::max(depth_max, run.health.queue_depth_high_water);
    rejected += run.health.rejected_overloaded;
    shed += run.health.shed;
  }
  const double measured_steps = static_cast<double>(wal_begin.size());
  r.set("core.durable_capture_ms", mean(capture), "ms");
  r.set("core.server_step_ms", mean(server_step), "ms");
  r.set("core.quarantined_batches", static_cast<double>(quarantined), "count");
  r.set("io.ingest_wal_append_ms", mean(ingest_append), "ms");
  r.set("io.wal_begin_ms", mean(wal_begin), "ms");
  r.set("io.wal_commit_ms", mean(wal_commit), "ms");
  r.set("io.snapshot_ms", mean(snapshot), "ms");
  r.set("io.journal_rotate_prune_ms", mean(rotate_prune), "ms");
  r.set("io.fsyncs_per_batch",
        measured_steps > 0 ? static_cast<double>(fsyncs) / measured_steps : 0.0,
        "count");
  r.set("serve.ingest_call_ms", mean(ingest_call), "ms");
  r.set("serve.queue_wait_ms", mean(queue_wait), "ms");
  r.set("serve.queue_depth_max", static_cast<double>(depth_max), "count");
  r.set("serve.generator_lag_ms_p90", quantile(lag, 0.9), "ms");
  r.set("serve.rejected", static_cast<double>(rejected), "count");
  r.set("serve.shed", static_cast<double>(shed), "count");
  const double odd = quantile(step_odd, 0.5);
  const double even = quantile(step_even, 0.5);
  r.set("bench.trace_overhead_pct", even > 0 ? 100.0 * (odd - even) / even : 0.0, "%");
  for (const char* c : {"text.semantic_vector_ms", "clustering.add_tasks_ms",
                        "truth.trust_filter_ms", "truth.trusted_sweep_ms",
                        "truth.trust_end_step_ms"}) {
    r.set(c, 0.0, "ms");  // known-domain tasks, no defenses
  }
  return r;
}

}  // namespace perfbench
