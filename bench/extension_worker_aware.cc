// Extension experiment (the paper's §V future work): "our current model does
// not make use of any information about individual crowd workers". This
// harness adds that information — the confidence δ becomes the Dawid–Skene
// posterior, which weights each vote by the worker's estimated reliability —
// and compares it against the paper's three variants, including a
// low-vote (d = 3) regime where worker identity matters most.
//
//   ./extension_worker_aware [--seed N] [--quick]

#include <cstdio>

#include "baselines/method.h"
#include "baselines/rll_method.h"
#include "bench/bench_common.h"

namespace rll::bench {
namespace {

int Run(const BenchArgs& args) {
  size_t folds = args.quick ? 3 : 5;
  const int epochs = args.quick ? 4 : 15;
  const size_t groups = args.quick ? 256 : 1024;

  std::printf("EXTENSION: WORKER-AWARE CONFIDENCE (Dawid-Skene posterior "
              "as delta)\n");
  std::printf("(seed=%llu, %zu-fold CV%s)\n\n",
              static_cast<unsigned long long>(args.seed), folds,
              args.quick ? ", quick mode" : "");

  BenchReporter reporter("extension_worker_aware", args);
  for (size_t d : {3u, 5u}) {
    const auto datasets = MakePaperDatasets(args.seed, d);
    std::printf("votes per example d = %zu:\n", d);
    std::printf("%-17s | %-9s %-9s | %-9s %-9s\n", "variant", "oral Acc",
                "oral F1", "class Acc", "class F1");
    PrintRule(64);
    for (auto mode :
         {crowd::ConfidenceMode::kNone, crowd::ConfidenceMode::kMle,
          crowd::ConfidenceMode::kBayesian,
          crowd::ConfidenceMode::kWorkerAware}) {
      core::RllPipelineOptions options;
      options.trainer.model.hidden_dims = {64, 32};
      options.trainer.epochs = epochs;
      options.trainer.groups_per_epoch = groups;
      options.trainer.confidence_mode = mode;
      baselines::RllVariantMethod method(options);

      std::printf("%-17s |", method.name().c_str());
      for (const BenchDataset& bd : datasets) {
        Rng rng(args.seed + 7);
        ScopedTimer cell = reporter.Time(
            "d=" + std::to_string(d) + "/" + method.name() + "/" + bd.name,
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
    PrintRule(64);
    std::printf("\n");
  }
  return reporter.Finish();
}

}  // namespace
}  // namespace rll::bench

int main(int argc, char** argv) {
  return rll::bench::RunHarness(argc, argv, rll::bench::Run);
}
