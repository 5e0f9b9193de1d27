// Shared plumbing for the paper-reproduction bench binaries: standard
// dataset factories at the paper's settings, seed handling, and headers.
//
// Every binary accepts:
//   --seeds=N       Monte-Carlo repetitions (default 3; paper uses 100)
//   --quick         cut workload sizes further for smoke runs
//   --threads=N     parallel-runtime lanes (default ETA2_THREADS, then
//                   hardware concurrency); output is bit-identical at any N
// plus bench-specific flags documented in each file.
#ifndef ETA2_BENCH_BENCH_UTIL_H
#define ETA2_BENCH_BENCH_UTIL_H

#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "sim/dataset.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace eta2::bench {

struct BenchEnv {
  Flags flags;
  int seeds = 3;
  bool quick = false;

  BenchEnv(int argc, char** argv);
};

// Dataset factories at the paper's §6.1/§6.2 settings. `tau` is the average
// processing capability; task counts shrink under --quick.
[[nodiscard]] sim::DatasetFactory synthetic_factory(
    const BenchEnv& env, double tau = 12.0, double nonnormal_fraction = 0.0);
[[nodiscard]] sim::DatasetFactory survey_factory(const BenchEnv& env,
                                                 double tau = 12.0);
// SFV ships 18 "system" users, so its capacity scale differs (see
// SfvOptions::mean_capacity); tau here is that higher-scale knob.
[[nodiscard]] sim::DatasetFactory sfv_factory(const BenchEnv& env,
                                              double tau = 40.0);

// SimOptions with the shared trained embedder attached (needed whenever a
// factory produces described tasks).
[[nodiscard]] sim::SimOptions default_options_with_embedder();

// Prints the bench banner: what figure/table of the paper this regenerates.
void print_banner(std::string_view binary, std::string_view reproduces,
                  const BenchEnv& env);

// The comparison methods of §6.3 in the paper's presentation order, plus
// the extra Gaussian-EM (CRH-style) baseline this library adds. Names are
// sim::method_registry keys.
[[nodiscard]] std::span<const std::string_view> comparison_methods();

// One degradation curve of a robustness bench: estimation error as a
// function of a fault knob (response rate, fabricator fraction, ...).
struct RobustnessCurve {
  std::string name;     // unique key, e.g. "dropout:eta2"
  std::string x_label;  // the swept fault knob, e.g. "response_rate"
  std::vector<double> x;
  std::vector<double> error;
};

// Writes/merges degradation curves into BENCH_robustness.json. Each curve
// is one JSON line keyed by `name`; existing curves from OTHER benches are
// kept, same-name curves are replaced — so the dropout and adversarial
// benches accumulate into one file regardless of run order. Every line
// carries the provenance of the run that wrote it: the bench binary, the
// mode (quick or full), the seed count and base seed, reps (runs per seed
// and cell: 1, the simulation is deterministic), the processors available
// to the process, and the commit passed as --git-sha (`unknown` when
// omitted).
void write_robustness_json(const std::string& path,
                           const std::vector<RobustnessCurve>& curves,
                           std::string_view bench, const BenchEnv& env);

}  // namespace eta2::bench

#endif  // ETA2_BENCH_BENCH_UTIL_H
