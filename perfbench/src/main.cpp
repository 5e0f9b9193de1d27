// eta2_perfbench — the repository's end-to-end benchmark program.
//
//   eta2_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                  [--out-dir=DIR] [--git-sha=SHA] [--source-digest=HEX]
//
// Runs one workload for S seconds, checks its outputs, and prints a
// human-readable summary followed, as the last line of standard output, by
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace=0 the metrics are the end-to-end set, with --trace=1 the
// per-layer set. A full report (provenance, notes, per-step series) and,
// for traced runs, the span log are written under --out-dir. Exits 1 when a
// correctness check fails, 2 on bad arguments.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "common/parallel.h"
#include "workloads.h"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "campaign_known", "campaign_described", "campaign_defended",
      "serve_ingest"};
  return names;
}

const std::vector<MetricName>& end_to_end_metrics() {
  static const std::vector<MetricName> names = {
      {"setup_s", "s"},
      {"step_ms_p50", "ms"},
      {"step_ms_p90", "ms"},
      {"tasks_per_s", "tasks/s"},
      {"estimation_error", "sigma"},
      {"ack_ms_p50", "ms"},
      {"ack_ms_p90", "ms"},
      {"ingest_commit_ms_p50", "ms"},
      {"ingest_commit_ms_p90", "ms"},
      {"commits_per_s", "steps/s"},
      {"peak_rss_mb", "MB"},
  };
  return names;
}

const std::vector<MetricName>& per_layer_metrics() {
  static const std::vector<MetricName> names = {
      {"core.identify_ms", "ms"},
      {"core.allocate_ms", "ms"},
      {"core.collect_ms", "ms"},
      {"core.truth_ms", "ms"},
      {"core.pairs_asked", "count"},
      {"core.observations_accepted", "count"},
      {"core.collect_yield", "ratio"},
      {"core.durable_capture_ms", "ms"},
      {"core.server_step_ms", "ms"},
      {"core.quarantined_batches", "count"},
      {"alloc.replay_ms", "ms"},
      {"alloc.build_ms", "ms"},
      {"alloc.gain_evaluations", "count"},
      {"alloc.heap_pops", "count"},
      {"alloc.selections", "count"},
      {"alloc.gain_evaluations_per_selection", "ratio"},
      {"alloc.pairs", "count"},
      {"alloc.data_iterations", "count"},
      {"truth.plane_fill_ms", "ms"},
      {"truth.mle_iterations", "count"},
      {"truth.trust_filter_ms", "ms"},
      {"truth.trusted_sweep_ms", "ms"},
      {"truth.trust_end_step_ms", "ms"},
      {"truth.trimmed_observations", "count"},
      {"truth.dropped_quarantined", "count"},
      {"stats.phi_ms", "ms"},
      {"stats.phi_evaluations", "count"},
      {"text.semantic_vector_ms", "ms"},
      {"clustering.add_tasks_ms", "ms"},
      {"clustering.history_tasks", "count"},
      {"clustering.domains", "count"},
      {"io.ingest_wal_append_ms", "ms"},
      {"io.wal_begin_ms", "ms"},
      {"io.wal_commit_ms", "ms"},
      {"io.snapshot_ms", "ms"},
      {"io.journal_rotate_prune_ms", "ms"},
      {"io.fsyncs_per_batch", "count"},
      {"serve.ingest_call_ms", "ms"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.queue_depth_max", "count"},
      {"serve.generator_lag_ms_p90", "ms"},
      {"serve.rejected", "count"},
      {"serve.shed", "count"},
      {"bench.observe_ms", "ms"},
      {"bench.trace_overhead_pct", "%"},
  };
  return names;
}

namespace {

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = a.substr(2, eq - 2);
    const std::string value = a.substr(eq + 1);
    try {
      if (key == "workload") {
        args.workload = value;
      } else if (key == "seed") {
        args.seed = std::stoull(value);
      } else if (key == "seconds") {
        args.seconds = std::stod(value);
      } else if (key == "trace") {
        args.trace = value == "1";
      } else if (key == "out-dir") {
        args.out_dir = value;
      } else if (key == "git-sha") {
        args.git_sha = value;
      } else if (key == "source-digest") {
        args.source_digest = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  for (const std::string& w : workload_names()) {
    if (w == args.workload) return args.seconds > 0.0;
  }
  return false;
}

std::string metrics_json(const Result& r, const std::vector<MetricName>& set) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const MetricName& m : set) {
    const auto it = r.metrics.find(m.name);
    const double v = it == r.metrics.end() ? 0.0 : it->second.value;
    out << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << json_number(v) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: eta2_perfbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 [--out-dir=DIR]\n");
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");

  SpanLog spans(Clock::now());
  Result r;
  try {
    if (args.workload == "serve_ingest") {
      r = run_serve(args, args.trace ? &spans : nullptr);
    } else {
      r = run_campaign(args, args.trace ? &spans : nullptr);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    r = Result{};
    r.check(false, std::string("workload threw: ") + e.what());
  }
  if (args.trace) spans.write_jsonl(stem + ".spans.jsonl");

  const std::vector<MetricName>& set =
      args.trace ? per_layer_metrics() : end_to_end_metrics();
  const std::size_t lanes = eta2::parallel::thread_count();
  const double failed_fraction =
      r.attempted > 0
          ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
          : 0.0;

  // Provenance and notes, printed and kept in the report.
  std::ostringstream prov;
  prov << "\"git_sha\": \"" << json_escape(args.git_sha)
       << "\", \"source_digest\": \"" << json_escape(args.source_digest)
       << "\", \"seed\": " << args.seed << ", \"seconds\": "
       << json_number(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
       << ", \"lanes_requested\": " << kLanes
       << ", \"lanes_effective\": " << lanes
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
       << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"";
  std::ostringstream notes;
  notes << "{";
  bool first = true;
  for (const auto& [k, v] : r.notes) {
    notes << (first ? "" : ", ") << "\"" << json_escape(k) << "\": \""
          << json_escape(v) << "\"";
    first = false;
  }
  notes << "}";
  std::ostringstream failures;
  failures << "[";
  for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
    failures << (i ? ", " : "") << "\"" << json_escape(r.check_failures[i])
             << "\"";
  }
  failures << "]";

  std::printf("perfbench %s seed=%llu trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::printf("provenance {%s}\n", prov.str().c_str());
  std::printf("notes %s\n", notes.str().c_str());
  for (const MetricName& m : set) {
    const auto it = r.metrics.find(m.name);
    std::printf("  %-40s %14.6g %s\n", m.name,
                it == r.metrics.end() ? 0.0 : it->second.value, m.unit);
  }
  std::printf("  %-40s %14.6g %s\n", "failed_fraction", failed_fraction, "ratio");
  for (const std::string& f : r.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  {
    std::ofstream report(stem + ".report.json");
    report << "{\"workload\": \"" << args.workload << "\", " << prov.str()
           << ", \"correct\": " << (r.correct ? "true" : "false")
           << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
           << ", \"failed_fraction\": " << json_number(failed_fraction)
           << ", \"check_failures\": " << failures.str()
           << ", \"notes\": " << notes.str()
           << ", \"series\": " << r.series_json
           << ", \"metrics\": " << metrics_json(r, set) << "}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(r, set).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
