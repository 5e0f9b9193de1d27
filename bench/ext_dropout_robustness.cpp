// Extension bench (no paper counterpart): availability-fault injection
// through the deterministic FaultPlan (common/fault.h). A fraction of
// allocated users never responds (abandoned tasks, dead connections); the
// pipeline must degrade gracefully since fewer observations simply widen
// the MLE's effective noise. Reports estimation error vs response rate for
// ETA² and the mean baseline on the synthetic dataset, and appends the
// degradation curves to BENCH_robustness.json.
#include <cstdio>
#include <string>

#include "bench_util.h"

int main(int argc, char** argv) {
  const eta2::bench::BenchEnv env(argc, argv);
  eta2::bench::print_banner(
      "ext_dropout_robustness",
      "extension — estimation error under user no-response (FaultPlan "
      "injection), synthetic dataset",
      env);

  eta2::bench::RobustnessCurve eta2_curve{"dropout:eta2", "response_rate",
                                          {}, {}};
  eta2::bench::RobustnessCurve base_curve{"dropout:baseline", "response_rate",
                                          {}, {}};
  eta2::Table table({"response rate", "ETA2 error", "Baseline error"});
  for (const double rate : {1.0, 0.9, 0.75, 0.5, 0.25}) {
    eta2::sim::SimOptions options;
    options.fault.response_rate = rate;
    const auto factory = eta2::bench::synthetic_factory(env);
    const auto eta2_run = eta2::sim::sweep_seeds(
        factory, "eta2", options, env.seeds);
    const auto baseline_run = eta2::sim::sweep_seeds(
        factory, "baseline", options, env.seeds);
    table.add_numeric_row({rate, eta2_run.overall_error.mean,
                           baseline_run.overall_error.mean});
    eta2_curve.x.push_back(rate);
    eta2_curve.error.push_back(eta2_run.overall_error.mean);
    base_curve.x.push_back(rate);
    base_curve.error.push_back(baseline_run.overall_error.mean);
  }
  table.print();
  std::printf("\nexpected shape: both errors grow smoothly as responses "
              "thin out; ETA2 keeps its lead at every response rate.\n");
  eta2::bench::write_robustness_json(
      env.flags.get("out", "BENCH_robustness.json"),
      {eta2_curve, base_curve}, "ext_dropout_robustness", env);
  return 0;
}
