// Ablation F: encoder regularization — the levers the paper's architecture
// leaves implicit. Compares the plain tanh encoder against dropout,
// LayerNorm, both, and an early-stopping configuration, all under the
// RLL-Bayesian pipeline.
//
//   ./ablation_regularization [--seed N] [--quick]

#include <cstdio>

#include "baselines/method.h"
#include "baselines/rll_method.h"
#include "bench/bench_common.h"

namespace rll::bench {
namespace {

int Run(const BenchArgs& args) {
  const auto datasets = MakePaperDatasets(args.seed);
  const size_t folds = args.quick ? 3 : 5;
  const int epochs = args.quick ? 4 : 15;
  const size_t groups = args.quick ? 256 : 1024;

  std::printf("ABLATION F: ENCODER REGULARIZATION UNDER RLL-BAYESIAN\n");
  std::printf("(seed=%llu, %zu-fold CV%s)\n\n",
              static_cast<unsigned long long>(args.seed), folds,
              args.quick ? ", quick mode" : "");
  std::printf("%-22s | %-9s %-9s | %-9s %-9s\n", "variant", "oral Acc",
              "oral F1", "class Acc", "class F1");
  PrintRule(68);

  struct Variant {
    const char* name;
    double dropout;
    bool layer_norm;
    double validation_fraction;
  };
  const Variant variants[] = {
      {"plain (paper)", 0.0, false, 0.0},
      {"dropout 0.2", 0.2, false, 0.0},
      {"layer norm", 0.0, true, 0.0},
      {"dropout + layer norm", 0.2, true, 0.0},
      {"early stopping", 0.0, false, 0.2},
  };

  BenchReporter reporter("ablation_regularization", args);
  for (const Variant& variant : variants) {
    core::RllPipelineOptions options;
    options.trainer.model.hidden_dims = {64, 32};
    options.trainer.model.dropout = variant.dropout;
    options.trainer.model.layer_norm = variant.layer_norm;
    options.trainer.epochs =
        variant.validation_fraction > 0.0 ? 2 * epochs : epochs;
    options.trainer.groups_per_epoch = groups;
    options.trainer.confidence_mode = crowd::ConfidenceMode::kBayesian;
    options.trainer.validation_fraction = variant.validation_fraction;
    baselines::RllVariantMethod method(options);

    std::printf("%-22s |", variant.name);
    for (const BenchDataset& bd : datasets) {
      Rng rng(args.seed + 7);
      ScopedTimer cell =
          reporter.Time(std::string(variant.name) + "/" + bd.name,
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
  PrintRule(68);
  return reporter.Finish();
}

}  // namespace
}  // namespace rll::bench

int main(int argc, char** argv) {
  return rll::bench::RunHarness(argc, argv, rll::bench::Run);
}
