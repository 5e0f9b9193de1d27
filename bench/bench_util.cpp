#include "bench_util.h"

#include <sched.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/parallel.h"
#include "io/snapshot.h"

namespace eta2::bench {

BenchEnv::BenchEnv(int argc, char** argv) : flags(argc, argv) {
  quick = flags.get_bool("quick", false);
  seeds = flags.seed_count(quick ? 2 : 3);
  // --threads beats ETA2_THREADS beats hardware_concurrency; results are
  // bit-identical at any setting (see src/common/parallel.h).
  if (flags.has("threads")) {
    const std::int64_t threads = flags.get_int("threads", 0);
    if (threads >= 1) {
      parallel::set_thread_count(static_cast<std::size_t>(threads));
    }
  }
}

sim::DatasetFactory synthetic_factory(const BenchEnv& env, double tau,
                                      double nonnormal_fraction) {
  const std::size_t tasks = env.quick ? 250 : 1000;
  return [tau, nonnormal_fraction, tasks](std::uint64_t seed) {
    sim::SyntheticOptions options;
    options.tasks = tasks;
    options.mean_capacity = tau;
    options.nonnormal_fraction = nonnormal_fraction;
    return sim::make_synthetic(options, seed);
  };
}

sim::DatasetFactory survey_factory(const BenchEnv& env, double tau) {
  (void)env;  // the survey dataset is small already (150 tasks)
  return [tau](std::uint64_t seed) {
    sim::SurveyOptions options;
    options.mean_capacity = tau;
    return sim::make_survey_like(options, seed);
  };
}

sim::DatasetFactory sfv_factory(const BenchEnv& env, double tau) {
  const std::size_t properties = env.quick ? 3 : 6;
  return [tau, properties](std::uint64_t seed) {
    sim::SfvOptions options;
    options.properties_per_entity = properties;
    options.mean_capacity = tau;
    return sim::make_sfv_like(options, seed);
  };
}

sim::SimOptions default_options_with_embedder() {
  sim::SimOptions options;
  options.embedder = sim::shared_embedder();
  return options;
}

void print_banner(std::string_view binary, std::string_view reproduces,
                  const BenchEnv& env) {
  std::printf("=== %.*s ===\n", static_cast<int>(binary.size()), binary.data());
  std::printf("reproduces: %.*s\n", static_cast<int>(reproduces.size()),
              reproduces.data());
  std::printf("seeds: %d%s (paper uses 100; raise with --seeds/ETA2_SEEDS)\n",
              env.seeds, env.quick ? ", --quick" : "");
  std::printf("threads: %zu (--threads/ETA2_THREADS)\n\n",
              parallel::thread_count());
}

std::span<const std::string_view> comparison_methods() {
  static constexpr std::string_view kMethods[] = {
      "eta2", "hubs", "avglog", "truthfinder", "em", "baseline"};
  return kMethods;
}

namespace {

// Serializes one curve as a single JSON line (no trailing comma) — the
// unit of the merge in write_robustness_json.
std::string curve_line(const RobustnessCurve& curve,
                       const std::string& provenance) {
  std::string line = "    {\"name\": \"" + curve.name + "\", \"x_label\": \"" +
                     curve.x_label + "\", \"provenance\": " + provenance +
                     ", \"points\": [";
  char buffer[64];
  for (std::size_t i = 0; i < curve.x.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%s[%.6g, %.6g]", i > 0 ? ", " : "",
                  curve.x[i], curve.error[i]);
    line += buffer;
  }
  line += "]}";
  return line;
}

std::string provenance_json(std::string_view bench, const BenchEnv& env) {
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  const int nproc = sched_getaffinity(0, sizeof(affinity), &affinity) == 0
                        ? CPU_COUNT(&affinity)
                        : -1;
  // Seeds run from 1: the robustness benches call sim::sweep_seeds with its
  // default base seed.
  return "{\"bench\": \"" + std::string(bench) + "\", \"mode\": \"" +
         (env.quick ? "quick" : "full") + "\", \"seeds\": " +
         std::to_string(env.seeds) + ", \"base_seed\": 1, \"reps\": 1, " +
         "\"nproc\": " + std::to_string(nproc) + ", \"git_sha\": \"" +
         env.flags.get("git-sha", "unknown") + "\"}";
}

}  // namespace

void write_robustness_json(const std::string& path,
                           const std::vector<RobustnessCurve>& curves,
                           std::string_view bench, const BenchEnv& env) {
  // Keep curve lines already in the file unless this run re-emits them.
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("\"name\": \"") == std::string::npos) continue;
      if (!line.empty() && line.back() == ',') line.pop_back();
      bool replaced = false;
      for (const RobustnessCurve& c : curves) {
        if (line.find("\"name\": \"" + c.name + "\"") != std::string::npos) {
          replaced = true;
          break;
        }
      }
      if (!replaced) lines.push_back(line);
    }
  }
  const std::string provenance = provenance_json(bench, env);
  for (const RobustnessCurve& c : curves) {
    lines.push_back(curve_line(c, provenance));
  }

  std::string payload = "{\n  \"bench\": \"robustness\",\n  \"curves\": [\n";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    payload += lines[i];
    payload += i + 1 < lines.size() ? ",\n" : "\n";
  }
  payload += "  ]\n}\n";
  // Atomic replace: several robustness benches merge into the same file, so
  // a crash mid-write must not destroy the curves already collected.
  try {
    io::atomic_write_file(path, payload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "write_robustness_json: %s\n", e.what());
    return;
  }
  std::printf("\nwrote %s (%zu curves)\n", path.c_str(), lines.size());
}

}  // namespace eta2::bench
