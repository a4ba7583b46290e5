// Ablation B: strength of the Beta prior (α+β) in the Bayesian confidence
// estimator, eq. (2). Strength 0 degenerates to the MLE of eq. (1); large
// strengths pull every confidence toward the class prior. Probes the
// paper's claim that prior knowledge should guide confidence estimation
// when d is small.
//
//   ./ablation_prior [--seed N] [--quick]

#include <cstdio>

#include "baselines/method.h"
#include "baselines/rll_method.h"
#include "bench/bench_common.h"
#include "common/strings.h"

namespace rll::bench {
namespace {

int Run(const BenchArgs& args) {
  const auto datasets = MakePaperDatasets(args.seed);
  size_t folds = args.quick ? 3 : 5;
  const int epochs = args.quick ? 4 : 15;
  const size_t groups = args.quick ? 256 : 1024;

  std::printf("ABLATION B: CONFIDENCE ESTIMATOR PRIOR STRENGTH (alpha+beta)\n");
  std::printf("(seed=%llu, %zu-fold CV%s; strength 0 = MLE)\n\n",
              static_cast<unsigned long long>(args.seed), folds,
              args.quick ? ", quick mode" : "");
  std::printf("%-9s | %-9s %-9s | %-9s %-9s\n", "strength", "oral Acc",
              "oral F1", "class Acc", "class F1");
  PrintRule(56);

  BenchReporter reporter("ablation_prior", args);
  for (double strength : {0.0, 1.0, 2.0, 5.0, 10.0, 20.0}) {
    core::RllPipelineOptions options;
    options.trainer.model.hidden_dims = {64, 32};
    options.trainer.epochs = epochs;
    options.trainer.groups_per_epoch = groups;
    if (strength == 0.0) {
      options.trainer.confidence_mode = crowd::ConfidenceMode::kMle;
    } else {
      options.trainer.confidence_mode = crowd::ConfidenceMode::kBayesian;
      options.trainer.prior_strength = strength;
    }
    baselines::RllVariantMethod method(options);

    std::printf("%-9.1f |", strength);
    for (const BenchDataset& bd : datasets) {
      Rng rng(args.seed + 7);
      ScopedTimer cell = reporter.Time(
          StrFormat("strength=%g/%s", strength, bd.name.c_str()),
          static_cast<double>(bd.dataset.size()));
      auto outcome =
          baselines::CrossValidateMethod(bd.dataset, method, folds, &rng);
      if (!outcome.ok()) {
        cell.Cancel();
        std::printf("   error: %s", outcome.status().ToString().c_str());
        continue;
      }
      std::printf(" %-9.3f %-9.3f %s", outcome->mean.accuracy,
                  outcome->mean.f1, bd.name == "oral" ? "|" : "");
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  PrintRule(56);
  return reporter.Finish();
}

}  // namespace
}  // namespace rll::bench

int main(int argc, char** argv) {
  return rll::bench::RunHarness(argc, argv, rll::bench::Run);
}
