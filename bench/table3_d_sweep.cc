// Reproduces Table III: RLL-Bayesian accuracy/F1 as the number of crowd
// workers per example d sweeps over {1, 3, 5}.
//
//   ./table3_d_sweep [--seed N] [--quick]
//
// Paper reference (real data): performance increases consistently with d —
// more votes per example make the confidence estimates more trustworthy.

#include <cstdio>

#include "baselines/method.h"
#include "baselines/rll_method.h"
#include "bench/bench_common.h"

namespace rll::bench {
namespace {

int Run(const BenchArgs& args) {
  size_t folds = 5;
  int epochs = 15;
  size_t groups = 1024;
  if (args.quick) {
    folds = 3;
    epochs = 4;
    groups = 256;
  }

  std::printf("TABLE III: RLL-BAYESIAN RESULTS WITH DIFFERENT d\n");
  std::printf("(seed=%llu, %zu-fold CV%s)\n\n",
              static_cast<unsigned long long>(args.seed), folds,
              args.quick ? ", quick mode" : "");
  std::printf("%-4s | %-9s %-9s | %-9s %-9s\n", "d", "oral Acc", "oral F1",
              "class Acc", "class F1");
  PrintRule(52);

  BenchReporter reporter("table3_d_sweep", args);
  for (size_t d : {1u, 3u, 5u}) {
    // Re-annotate the same underlying data with d votes per example.
    const auto datasets = MakePaperDatasets(args.seed, d);

    core::RllPipelineOptions options;
    options.trainer.model.hidden_dims = {64, 32};
    options.trainer.epochs = epochs;
    options.trainer.groups_per_epoch = groups;
    options.trainer.confidence_mode = crowd::ConfidenceMode::kBayesian;
    options.folds = folds;
    baselines::RllVariantMethod method(options);

    std::printf("%-4zu |", d);
    for (const BenchDataset& bd : datasets) {
      Rng rng(args.seed + 7);
      ScopedTimer cell =
          reporter.Time("d=" + std::to_string(d) + "/" + bd.name,
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
  PrintRule(52);
  return reporter.Finish();
}

}  // namespace
}  // namespace rll::bench

int main(int argc, char** argv) {
  return rll::bench::RunHarness(argc, argv, rll::bench::Run);
}
