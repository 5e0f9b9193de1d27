// Extension bench (no paper counterpart; DESIGN.md §14): accuracy under
// coordinated attacks, with the trust-ledger defenses off vs on.
//
// Three attack families from common/fault.h's AdversaryPlan sweep their
// strength knob against ETA² twice — DefenseTier::kOff (the plain Eq. 5/6
// pipeline the paper describes) and DefenseTier::kTrimmedV1 (quarantine
// filter + per-task residual trim + influence-capped trust-weighted
// sweeps + agreement-graph collusion detection):
//
//   clique      colluding sybil fraction, one coordinated clique agreeing
//               on a shared wrong value per task — the attack the plain
//               MLE amplifies (the clique earns expertise for agreeing
//               with the truth it dragged).
//   camouflage  sleeper fraction: accurate through the warm-up, then a
//               persistent per-user bias once expertise is established.
//   burst       review-bombing: on a fraction of steps, a step-wide
//               coordinated offset from half the population.
//   drift       slow poisoning: zero-mean noise whose amplitude grows
//               with the step index (competence decay).
//
// Each (attack, tier) pair appends one degradation curve to
// BENCH_robustness.json, named "attack:<kind>:<off|trimmed_v1>", with the
// run's provenance (quick or full mode, seeds, reps, nproc, and the commit
// given as --git-sha). The committed file is a quick-mode run at one seed:
//
//   ext_adversarial_attacks --quick --seeds=1 --git-sha="$(git rev-parse HEAD)"
//
// The CI gate: at the strongest clique attack, defenses-on must beat
// defenses-off strictly — exit 1 otherwise (a defense that does not defend
// is a broken build, not a shrug).
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "truth/trust.h"

namespace {

struct AttackSweep {
  const char* kind;     // curve-name segment and table header
  const char* x_label;  // the swept adversary knob
  std::vector<double> strengths;
  // Applies one strength setting to the sim options' adversary knobs.
  std::function<void(eta2::fault::AdversaryOptions&, double)> apply;
};

const char* tier_name(eta2::truth::DefenseTier tier) {
  return tier == eta2::truth::DefenseTier::kOff ? "off" : "trimmed_v1";
}

}  // namespace

int main(int argc, char** argv) {
  const eta2::bench::BenchEnv env(argc, argv);
  eta2::bench::print_banner(
      "ext_adversarial_attacks",
      "extension — estimation error vs attack strength, trust-ledger "
      "defenses off vs on (AdversaryPlan injection, synthetic dataset)",
      env);

  const std::vector<AttackSweep> attacks = {
      {"clique", "sybil_fraction", {0.0, 0.1, 0.2, 0.3},
       [](eta2::fault::AdversaryOptions& a, double s) {
         a.sybil_fraction = s;
         a.clique_count = 1;
       }},
      {"camouflage", "camouflage_fraction", {0.0, 0.1, 0.2, 0.3},
       [](eta2::fault::AdversaryOptions& a, double s) {
         a.camouflage_fraction = s;
       }},
      {"burst", "burst_step_rate", {0.0, 0.3, 0.6},
       [](eta2::fault::AdversaryOptions& a, double s) {
         a.burst_step_rate = s;
       }},
      {"drift", "drift_fraction", {0.0, 0.2, 0.4},
       [](eta2::fault::AdversaryOptions& a, double s) {
         a.drift_fraction = s;
       }},
  };
  const eta2::truth::DefenseTier tiers[] = {
      eta2::truth::DefenseTier::kOff, eta2::truth::DefenseTier::kTrimmedV1};

  const auto factory = eta2::bench::synthetic_factory(env);
  std::vector<eta2::bench::RobustnessCurve> curves;
  double clique_worst_off = 0.0;
  double clique_worst_on = 0.0;
  for (const AttackSweep& attack : attacks) {
    eta2::Table table({std::string(attack.x_label), "defenses off",
                       "kTrimmedV1"});
    for (const eta2::truth::DefenseTier tier : tiers) {
      curves.push_back({std::string("attack:") + attack.kind + ":" +
                            tier_name(tier),
                        attack.x_label, {}, {}});
    }
    eta2::bench::RobustnessCurve& off_curve = curves[curves.size() - 2];
    eta2::bench::RobustnessCurve& on_curve = curves[curves.size() - 1];
    for (const double strength : attack.strengths) {
      std::vector<double> row = {strength};
      for (const eta2::truth::DefenseTier tier : tiers) {
        eta2::sim::SimOptions options;
        options.config.trust.tier = tier;
        options.config.trust.trim_fraction = env.flags.get_double(
            "trim_fraction", options.config.trust.trim_fraction);
        options.config.trust.trim_min_z = env.flags.get_double(
            "trim_min_z", options.config.trust.trim_min_z);
        options.config.trust.influence_cap = env.flags.get_double(
            "influence_cap", options.config.trust.influence_cap);
        options.config.trust.temperature = env.flags.get_double(
            "temperature", options.config.trust.temperature);
        attack.apply(options.adversary, strength);
        const double error =
            eta2::sim::sweep_seeds(factory, "eta2", options, env.seeds)
                .overall_error.mean;
        row.push_back(error);
        eta2::bench::RobustnessCurve& curve =
            tier == eta2::truth::DefenseTier::kOff ? off_curve : on_curve;
        curve.x.push_back(strength);
        curve.error.push_back(error);
      }
      table.add_numeric_row(row);
    }
    std::printf("attack: %s\n", attack.kind);
    table.print();
    std::printf("\n");
    if (std::string(attack.kind) == "clique") {
      clique_worst_off = off_curve.error.back();
      clique_worst_on = on_curve.error.back();
    }
  }

  std::printf("expected shape: under kOff the clique attack degrades "
              "superlinearly (the colluders earn expertise for agreeing "
              "with the truth they corrupted); kTrimmedV1 lowers the "
              "strongest-clique error but costs accuracy on clean data and "
              "under most other attacks (EXPERIMENTS.md).\n");
  eta2::bench::write_robustness_json(
      env.flags.get("out", "BENCH_robustness.json"), curves,
      "ext_adversarial_attacks", env);

  // The domination gate CI runs in quick mode: a defense tier that does
  // not strictly beat the undefended pipeline under the baseline clique
  // attack is a regression, and this binary is the tripwire.
  if (!(clique_worst_on < clique_worst_off)) {
    std::fprintf(stderr,
                 "FAIL: kTrimmedV1 error %.6g is not strictly below kOff "
                 "error %.6g at the strongest clique attack\n",
                 clique_worst_on, clique_worst_off);
    return 1;
  }
  std::printf("\ndomination gate: kTrimmedV1 %.6g < kOff %.6g at the "
              "strongest clique attack — OK\n",
              clique_worst_on, clique_worst_off);
  return 0;
}
