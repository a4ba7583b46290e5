// Ablation E: annotation-budget allocation. The paper's Table III asks
// "how many workers per example?"; this ablation asks the sharper practical
// question — given a FIXED total vote budget, is it better to spread votes
// uniformly (the paper's fixed-d protocol) or to allocate them adaptively
// to the most uncertain items (crowd::AnnotateAdaptively)? Reported as
// majority-vote label recovery and end-to-end RLL-Bayesian accuracy.
//
//   ./ablation_budget [--seed N] [--quick]

#include <cstdio>

#include "baselines/method.h"
#include "baselines/rll_method.h"
#include "bench/bench_common.h"
#include "crowd/adaptive_annotation.h"

namespace rll::bench {
namespace {

double MajorityRecovery(const data::Dataset& d) {
  size_t correct = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    correct += (d.MajorityVote(i) == d.true_label(i));
  }
  return static_cast<double>(correct) / static_cast<double>(d.size());
}

int Run(const BenchArgs& args) {
  const size_t folds = args.quick ? 3 : 5;
  const int epochs = args.quick ? 4 : 15;
  const size_t groups = args.quick ? 256 : 1024;

  std::printf("ABLATION E: UNIFORM vs ADAPTIVE VOTE ALLOCATION "
              "(oral-sim, fixed budget)\n");
  std::printf("(seed=%llu, %zu-fold CV%s; budget = factor x 880 votes)\n\n",
              static_cast<unsigned long long>(args.seed), folds,
              args.quick ? ", quick mode" : "");
  std::printf("%-7s %-9s | %-9s %-11s | %-9s %-11s\n", "budget", "scheme",
              "MV recov", "RLL-B acc", "MV recov", "RLL-B acc");
  std::printf("%-17s | %-21s | %-21s\n", "", "(uniform)", "(adaptive)");
  PrintRule(66);

  BenchReporter reporter("ablation_budget", args);
  for (size_t factor : {3u, 5u}) {
    double recovery[2] = {0, 0};
    double accuracy[2] = {0, 0};
    for (int adaptive = 0; adaptive < 2; ++adaptive) {
      ScopedTimer cell = reporter.Time(
          "budget=" + std::to_string(factor) +
              (adaptive ? "/adaptive" : "/uniform"),
          880.0);
      Rng rng(args.seed);
      data::Dataset d = GenerateSynthetic(data::OralSimConfig(), &rng);
      crowd::WorkerPool pool({.num_workers = 25}, &rng);
      if (adaptive) {
        crowd::AdaptiveAnnotationOptions opts;
        opts.base_votes = 1;
        opts.total_budget = factor * d.size();
        opts.votes_per_round = 2;
        auto report = crowd::AnnotateAdaptively(&d, pool, opts, &rng);
        if (!report.ok()) {
          std::printf("error: %s\n", report.status().ToString().c_str());
          return 1;
        }
      } else {
        pool.Annotate(&d, factor, &rng);
      }
      recovery[adaptive] = MajorityRecovery(d);

      core::RllPipelineOptions options;
      options.trainer.model.hidden_dims = {64, 32};
      options.trainer.epochs = epochs;
      options.trainer.groups_per_epoch = groups;
      options.trainer.confidence_mode = crowd::ConfidenceMode::kBayesian;
      baselines::RllVariantMethod method(options);
      Rng eval_rng(args.seed + 7);
      auto outcome =
          baselines::CrossValidateMethod(d, method, folds, &eval_rng);
      accuracy[adaptive] = outcome.ok() ? outcome->mean.accuracy : 0.0;
    }
    std::printf("%-7zu %-9s | %-9.3f %-11.3f | %-9.3f %-11.3f\n", factor,
                "", recovery[0], accuracy[0], recovery[1], accuracy[1]);
    std::fflush(stdout);
  }
  PrintRule(66);
  return reporter.Finish();
}

}  // namespace
}  // namespace rll::bench

int main(int argc, char** argv) {
  return rll::bench::RunHarness(argc, argv, rll::bench::Run);
}
