// Reproduces Table I: prediction accuracy and F1 of all 15 methods (groups
// 1–4) on the simulated oral and class datasets, 5-fold cross-validated.
//
//   ./table1_methods [--seed N] [--quick]
//
// Paper reference values (real proprietary data):
//   oral : SoftProb .815/.869 … TripletNet .847/.889 … RLL+Bayesian .888/.915
//   class: SoftProb .758/.810 … EM .606/.698 … RLL+Bayesian .879/.920
// The reproduction targets the *shape* (group 4 > group 3 ≥ groups 1–2;
// Bayesian > MLE > plain RLL), not the absolute numbers.

#include <cstdio>
#include <vector>

#include "baselines/registry.h"
#include "bench/bench_common.h"
#include "common/threading.h"

namespace rll::bench {
namespace {

int Run(const BenchArgs& args) {
  baselines::RegistryOptions options = baselines::DefaultRegistryOptions();
  size_t folds = 5;
  if (args.quick) {
    options.deep.epochs = 4;
    options.deep.samples_per_epoch = 256;
    options.rll.trainer.epochs = 4;
    options.rll.trainer.groups_per_epoch = 256;
    folds = 3;
  }
  const auto methods = baselines::BuildTableOneMethods(options);
  const auto datasets = MakePaperDatasets(args.seed);

  std::printf("TABLE I: PREDICTION RESULTS ON SIMULATED ORAL AND CLASS "
              "DATASETS\n");
  std::printf("(seed=%llu, %zu-fold CV%s)\n\n",
              static_cast<unsigned long long>(args.seed), folds,
              args.quick ? ", quick mode" : "");
  std::printf("%-18s %-8s | %-9s %-9s | %-9s %-9s\n", "Method", "Group",
              "oral Acc", "oral F1", "class Acc", "class F1");
  PrintRule(72);

  BenchReporter reporter("table1_methods", args);
  // Every method × dataset cell is an independent pool task: each seeds a
  // private Rng from (args.seed + 7), so the table is identical at any
  // --threads value. Results land in per-cell slots and print in the
  // historical serial order afterwards.
  struct CellResult {
    Result<core::CvOutcome> outcome{Status::Internal("cell not run")};
    double wall_ms = 0.0;
  };
  std::vector<CellResult> cells(methods.size() * datasets.size());
  ParallelFor(0, cells.size(), 1, [&](size_t lo, size_t hi) {
    for (size_t c = lo; c < hi; ++c) {
      const auto& method = methods[c / datasets.size()];
      const BenchDataset& bd = datasets[c % datasets.size()];
      Rng rng(args.seed + 7);
      Stopwatch watch;
      cells[c].outcome =
          baselines::CrossValidateMethod(bd.dataset, *method, folds, &rng);
      cells[c].wall_ms = watch.ElapsedMillis();
    }
  });

  std::string last_group;
  for (size_t m = 0; m < methods.size(); ++m) {
    const auto& method = methods[m];
    if (method->group() != last_group && !last_group.empty()) PrintRule(72);
    last_group = method->group();
    std::printf("%-18s %-8s |", method->name().c_str(),
                method->group().c_str());
    for (size_t d = 0; d < datasets.size(); ++d) {
      const BenchDataset& bd = datasets[d];
      const CellResult& cell = cells[m * datasets.size() + d];
      if (!cell.outcome.ok()) {
        std::printf("   error: %s",
                    cell.outcome.status().ToString().c_str());
        continue;
      }
      const double units = static_cast<double>(bd.dataset.size());
      reporter.Record(method->name() + "/" + bd.name, cell.wall_ms,
                      cell.wall_ms > 0.0 ? units / (cell.wall_ms / 1e3)
                                         : 0.0);
      std::printf(" %-9.3f %-9.3f %s", cell.outcome->mean.accuracy,
                  cell.outcome->mean.f1, bd.name == "oral" ? "|" : "");
    }
    std::printf("\n");
  }
  PrintRule(72);
  std::printf("total wall time: %.1fs\n", reporter.TotalWallSeconds());
  return reporter.Finish();
}

}  // namespace
}  // namespace rll::bench

int main(int argc, char** argv) {
  return rll::bench::RunHarness(argc, argv, rll::bench::Run);
}
