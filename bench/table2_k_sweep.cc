// Reproduces Table II: RLL-Bayesian accuracy/F1 as the number of negatives
// per group k sweeps over {2, 3, 4, 5}.
//
//   ./table2_k_sweep [--seed N] [--quick]
//
// Paper reference (real data): performance peaks at k = 3 and degrades at
// k = 4, 5 — more groups help until the extra negatives add noise.

#include <cstdio>

#include "baselines/method.h"
#include "baselines/rll_method.h"
#include "bench/bench_common.h"

namespace rll::bench {
namespace {

int Run(const BenchArgs& args) {
  const auto datasets = MakePaperDatasets(args.seed);
  size_t folds = 5;
  int epochs = 15;
  size_t groups = 1024;
  if (args.quick) {
    folds = 3;
    epochs = 4;
    groups = 256;
  }

  std::printf("TABLE II: RLL-BAYESIAN RESULTS WITH DIFFERENT k\n");
  std::printf("(seed=%llu, %zu-fold CV%s)\n\n",
              static_cast<unsigned long long>(args.seed), folds,
              args.quick ? ", quick mode" : "");
  std::printf("%-4s | %-9s %-9s | %-9s %-9s\n", "k", "oral Acc", "oral F1",
              "class Acc", "class F1");
  PrintRule(52);

  BenchReporter reporter("table2_k_sweep", args);
  for (size_t k : {2u, 3u, 4u, 5u}) {
    core::RllPipelineOptions options;
    options.trainer.model.hidden_dims = {64, 32};
    options.trainer.epochs = epochs;
    options.trainer.groups_per_epoch = groups;
    options.trainer.negatives_per_group = k;
    options.trainer.confidence_mode = crowd::ConfidenceMode::kBayesian;
    options.folds = folds;
    baselines::RllVariantMethod method(options);

    std::printf("%-4zu |", k);
    for (const BenchDataset& bd : datasets) {
      Rng rng(args.seed + 7);
      ScopedTimer cell =
          reporter.Time("k=" + std::to_string(k) + "/" + bd.name,
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
