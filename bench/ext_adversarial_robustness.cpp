// Extension bench (no paper counterpart; motivated by the paper's §1
// remark that users "may intentionally generate data instead of performing
// the task"): a fraction of users fabricates persistently biased reports,
// injected through the deterministic FaultPlan (common/fault.h) rather
// than baked into the dataset. ETA² should learn their low expertise and
// discount them; the plain mean absorbs the bias and the median resists it
// only while fabricators stay a minority per task. Appends the degradation
// curves to BENCH_robustness.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  const eta2::bench::BenchEnv env(argc, argv);
  eta2::bench::print_banner(
      "ext_adversarial_robustness",
      "extension — estimation error vs fraction of data-fabricating users "
      "(FaultPlan injection, synthetic dataset)",
      env);

  const char* methods[] = {"eta2", "em", "median", "baseline"};
  std::vector<eta2::bench::RobustnessCurve> curves;
  for (const char* method : methods) {
    curves.push_back({std::string("adversarial:") + method,
                      "fabricator_fraction", {}, {}});
  }

  eta2::Table table({"adversarial fraction", "ETA2", "Gaussian EM", "Median",
                     "Baseline (mean)"});
  const auto factory = eta2::bench::synthetic_factory(env);
  for (const double fraction : {0.0, 0.1, 0.2, 0.3}) {
    eta2::sim::SimOptions options;
    options.fault.fabricator_fraction = fraction;
    std::vector<double> row = {fraction};
    for (std::size_t k = 0; k < std::size(methods); ++k) {
      const double error =
          eta2::sim::sweep_seeds(factory, methods[k], options, env.seeds)
              .overall_error.mean;
      row.push_back(error);
      curves[k].x.push_back(fraction);
      curves[k].error.push_back(error);
    }
    table.add_numeric_row(row);
  }
  table.print();
  std::printf("\nexpected shape: the mean degrades linearly with the "
              "fabricator fraction; ETA2 (and to a lesser degree the EM and "
              "median baselines) stay close to their clean-data error.\n");
  eta2::bench::write_robustness_json(
      env.flags.get("out", "BENCH_robustness.json"), curves,
      "ext_adversarial_robustness", env);
  return 0;
}
