// Appendix experiment: key Table I rows regenerated on the *mechanistic*
// oral dataset (simulated transcripts → linguistic features) instead of the
// Gaussian generator — a robustness check that the method ordering is not
// an artifact of one synthetic feature distribution. Also reports 95%
// bootstrap CIs over folds and a paired permutation test of RLL-Bayesian
// against the strongest baseline row.
//
//   ./appendix_text_pipeline [--seed N] [--quick]

#include <cstdio>

#include "baselines/method.h"
#include "baselines/registry.h"
#include "baselines/rll_method.h"
#include "baselines/softprob.h"
#include "baselines/triplet.h"
#include "bench/bench_common.h"
#include "classify/stats.h"
#include "crowd/worker_pool.h"
#include "text/text_dataset.h"

namespace rll::bench {
namespace {

int Run(const BenchArgs& args) {
  const size_t folds = args.quick ? 3 : 5;
  const int epochs = args.quick ? 4 : 15;
  const size_t samples = args.quick ? 256 : 1024;

  Rng rng(args.seed);
  text::TextSimConfig config;
  text::TextDatasetResult generated =
      text::GenerateOralTextDataset(config, &rng);
  data::Dataset& dataset = generated.dataset;
  crowd::WorkerPool workers({.num_workers = 25}, &rng);
  workers.Annotate(&dataset, 5, &rng);

  std::printf("APPENDIX: METHOD COMPARISON ON THE TRANSCRIPT-DERIVED ORAL "
              "DATASET\n");
  std::printf("(seed=%llu, %zu-fold CV%s, %zu linguistic features)\n\n",
              static_cast<unsigned long long>(args.seed), folds,
              args.quick ? ", quick mode" : "", dataset.dim());
  std::printf("%-14s | %-9s %-9s %-22s\n", "Method", "Acc", "F1",
              "Acc 95%% bootstrap CI");
  PrintRule(60);

  baselines::DeepBaselineOptions deep;
  deep.hidden_dims = {64, 32};
  deep.epochs = epochs;
  deep.samples_per_epoch = samples;

  core::RllPipelineOptions rll;
  rll.trainer.model.hidden_dims = {64, 32};
  rll.trainer.epochs = epochs;
  rll.trainer.groups_per_epoch = samples;
  rll.trainer.confidence_mode = crowd::ConfidenceMode::kBayesian;

  baselines::SoftProbMethod softprob;
  baselines::TripletMethod triplet(deep);
  baselines::RllVariantMethod rll_bayes(rll);
  const std::vector<const baselines::Method*> methods = {
      &softprob, &triplet, &rll_bayes};

  BenchReporter reporter("appendix_text_pipeline", args);
  std::vector<std::vector<double>> fold_accuracies;
  for (const baselines::Method* method : methods) {
    Rng eval_rng(args.seed + 7);
    ScopedTimer cell = reporter.Time(
        method->name(), static_cast<double>(dataset.size()));
    auto outcome =
        baselines::CrossValidateMethod(dataset, *method, folds, &eval_rng);
    if (!outcome.ok()) {
      cell.Cancel();
      std::printf("%-14s | error: %s\n", method->name().c_str(),
                  outcome.status().ToString().c_str());
      fold_accuracies.emplace_back();
      continue;
    }
    std::vector<double> per_fold;
    for (const auto& fold : outcome->per_fold) {
      per_fold.push_back(fold.accuracy);
    }
    fold_accuracies.push_back(per_fold);
    Rng boot_rng(args.seed + 11);
    auto ci = classify::BootstrapMeanCi(per_fold, &boot_rng);
    std::printf("%-14s | %-9.3f %-9.3f [%.3f, %.3f]\n",
                method->name().c_str(), outcome->mean.accuracy,
                outcome->mean.f1, ci.ok() ? ci->lower : 0.0,
                ci.ok() ? ci->upper : 0.0);
    std::fflush(stdout);
  }
  PrintRule(60);

  // Paired test: RLL-Bayesian vs the stronger of the two baselines, on
  // identical folds (same eval seed → same splits).
  if (fold_accuracies.size() == 3 && !fold_accuracies[2].empty()) {
    size_t rival = 0;
    double rival_mean = -1.0;
    for (size_t m = 0; m < 2; ++m) {
      if (fold_accuracies[m].empty()) continue;
      double mean = 0.0;
      for (double a : fold_accuracies[m]) mean += a;
      mean /= static_cast<double>(fold_accuracies[m].size());
      if (mean > rival_mean) {
        rival_mean = mean;
        rival = m;
      }
    }
    Rng test_rng(args.seed + 13);
    auto test = classify::PairedPermutationTest(
        fold_accuracies[2], fold_accuracies[rival], &test_rng);
    if (test.ok()) {
      std::printf(
          "paired permutation test, RLL+Bayesian vs %s over %zu folds:\n"
          "  mean accuracy difference %+.3f, p = %.3f\n",
          methods[rival]->name().c_str(), fold_accuracies[2].size(),
          test->mean_difference, test->p_value);
    }
  }
  return reporter.Finish();
}

}  // namespace
}  // namespace rll::bench

int main(int argc, char** argv) {
  return rll::bench::RunHarness(argc, argv, rll::bench::Run);
}
