// Ablation C: embedding dimensionality of the RLL encoder. The paper fixes
// an architecture without reporting sensitivity; this sweep shows the
// robustness plateau and the under-capacity cliff.
//
//   ./ablation_dim [--seed N] [--quick]

#include <cstdio>

#include "baselines/method.h"
#include "baselines/rll_method.h"
#include "bench/bench_common.h"

namespace rll::bench {
namespace {

int Run(const BenchArgs& args) {
  const auto datasets = MakePaperDatasets(args.seed);
  size_t folds = args.quick ? 3 : 5;
  const int epochs = args.quick ? 4 : 15;
  const size_t groups = args.quick ? 256 : 1024;

  std::printf("ABLATION C: RLL-BAYESIAN vs EMBEDDING DIMENSION\n");
  std::printf("(seed=%llu, %zu-fold CV%s; encoder input→64→dim)\n\n",
              static_cast<unsigned long long>(args.seed), folds,
              args.quick ? ", quick mode" : "");
  std::printf("%-6s | %-9s %-9s | %-9s %-9s\n", "dim", "oral Acc", "oral F1",
              "class Acc", "class F1");
  PrintRule(54);

  BenchReporter reporter("ablation_dim", args);
  for (size_t dim : {2u, 4u, 8u, 16u, 32u, 64u}) {
    core::RllPipelineOptions options;
    options.trainer.model.hidden_dims = {64, dim};
    options.trainer.epochs = epochs;
    options.trainer.groups_per_epoch = groups;
    options.trainer.confidence_mode = crowd::ConfidenceMode::kBayesian;
    baselines::RllVariantMethod method(options);

    std::printf("%-6zu |", dim);
    for (const BenchDataset& bd : datasets) {
      Rng rng(args.seed + 7);
      ScopedTimer cell =
          reporter.Time("dim=" + std::to_string(dim) + "/" + bd.name,
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
