// Robustness experiment: aggregator and RLL degradation as a colluding
// ring replaces honest votes. All the inference models here assume
// independent worker errors; the ring violates that assumption, so this
// quantifies a failure mode the paper's evaluation never probes.
//
//   ./robustness_collusion [--seed N] [--quick]

#include <cstdio>

#include "baselines/method.h"
#include "baselines/rll_method.h"
#include "bench/bench_common.h"
#include "crowd/collusion.h"
#include "crowd/dawid_skene.h"
#include "crowd/glad.h"
#include "crowd/iwmv.h"
#include "crowd/majority_vote.h"

namespace rll::bench {
namespace {

double Recovery(const crowd::Aggregator& aggregator,
                const data::Dataset& dataset) {
  auto result = aggregator.Run(dataset);
  if (!result.ok()) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < dataset.size(); ++i) {
    correct += (result->labels[i] == dataset.true_label(i));
  }
  return static_cast<double>(correct) / static_cast<double>(dataset.size());
}

int Run(const BenchArgs& args) {
  const size_t folds = args.quick ? 3 : 5;
  const int epochs = args.quick ? 4 : 15;
  const size_t groups = args.quick ? 256 : 1024;
  const size_t total_votes = 5;

  std::printf("ROBUSTNESS: COLLUDING RING REPLACING HONEST VOTES "
              "(oral-sim, d = %zu)\n", total_votes);
  std::printf("(seed=%llu%s; ring leader accuracy 0.55, follow prob 0.9)\n\n",
              static_cast<unsigned long long>(args.seed),
              args.quick ? ", quick mode" : "");
  std::printf("%-10s | %-7s %-7s %-7s %-7s | %-9s\n", "colluders", "MV",
              "DS-EM", "GLAD", "IWMV", "RLL-B acc");
  PrintRule(62);

  BenchReporter reporter("robustness_collusion", args);
  for (size_t colluders : {0u, 1u, 2u, 3u, 4u}) {
    ScopedTimer row =
        reporter.Time("colluders=" + std::to_string(colluders), 880.0);
    Rng rng(args.seed);
    data::Dataset d = GenerateSynthetic(data::OralSimConfig(), &rng);
    crowd::WorkerPool pool({.num_workers = 25}, &rng);
    crowd::CollusionOptions collusion;
    const Status status = crowd::AnnotateWithCollusion(
        &d, pool, total_votes - colluders, collusion, colluders, &rng);
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      return 1;
    }

    core::RllPipelineOptions options;
    options.trainer.model.hidden_dims = {64, 32};
    options.trainer.epochs = epochs;
    options.trainer.groups_per_epoch = groups;
    options.trainer.confidence_mode = crowd::ConfidenceMode::kBayesian;
    baselines::RllVariantMethod method(options);
    Rng eval_rng(args.seed + 7);
    auto outcome =
        baselines::CrossValidateMethod(d, method, folds, &eval_rng);

    std::printf("%-10zu | %-7.3f %-7.3f %-7.3f %-7.3f | %-9.3f\n", colluders,
                Recovery(crowd::MajorityVote(), d),
                Recovery(crowd::DawidSkene(), d),
                Recovery(crowd::Glad(), d), Recovery(crowd::Iwmv(), d),
                outcome.ok() ? outcome->mean.accuracy : 0.0);
    std::fflush(stdout);
  }
  PrintRule(62);
  return reporter.Finish();
}

}  // namespace
}  // namespace rll::bench

int main(int argc, char** argv) {
  return rll::bench::RunHarness(argc, argv, rll::bench::Run);
}
