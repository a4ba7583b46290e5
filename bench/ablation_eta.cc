// Ablation A: sensitivity of RLL-Bayesian to the softmax temperature η.
// The paper sets η "empirically on a held-out dataset" (§III-A) without
// reporting the sweep; this harness fills that gap.
//
//   ./ablation_eta [--seed N] [--quick]

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

  std::printf("ABLATION A: RLL-BAYESIAN vs SOFTMAX TEMPERATURE eta\n");
  std::printf("(seed=%llu, %zu-fold CV%s)\n\n",
              static_cast<unsigned long long>(args.seed), folds,
              args.quick ? ", quick mode" : "");
  std::printf("%-6s | %-9s %-9s | %-9s %-9s\n", "eta", "oral Acc", "oral F1",
              "class Acc", "class F1");
  PrintRule(54);

  BenchReporter reporter("ablation_eta", args);
  for (double eta : {1.0, 2.0, 5.0, 10.0, 20.0}) {
    core::RllPipelineOptions options;
    options.trainer.model.hidden_dims = {64, 32};
    options.trainer.epochs = epochs;
    options.trainer.groups_per_epoch = groups;
    options.trainer.eta = eta;
    options.trainer.confidence_mode = crowd::ConfidenceMode::kBayesian;
    baselines::RllVariantMethod method(options);

    std::printf("%-6.1f |", eta);
    for (const BenchDataset& bd : datasets) {
      Rng rng(args.seed + 7);
      ScopedTimer cell =
          reporter.Time(StrFormat("eta=%g/%s", eta, bd.name.c_str()),
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
  PrintRule(54);
  return reporter.Finish();
}

}  // namespace
}  // namespace rll::bench

int main(int argc, char** argv) {
  return rll::bench::RunHarness(argc, argv, rll::bench::Run);
}
