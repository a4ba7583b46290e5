// Ablation D: validation of the crowd substrate — label-recovery accuracy
// of the three aggregators (majority vote, Dawid–Skene EM, GLAD) as mean
// worker ability degrades from expert-like to near-random, at d = 5 votes.
// This grounds the simulated annotators the other benchmarks rely on.
//
//   ./ablation_workers [--seed N]

#include <cstdio>

#include "bench/bench_common.h"
#include "common/strings.h"
#include "crowd/dawid_skene.h"
#include "crowd/glad.h"
#include "crowd/majority_vote.h"

namespace rll::bench {
namespace {

double RecoveryAccuracy(const crowd::Aggregator& aggregator,
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
  std::printf("ABLATION D: AGGREGATOR LABEL RECOVERY vs WORKER QUALITY\n");
  std::printf("(seed=%llu, n=880, 25 workers, d=5, two-coin + item "
              "difficulty)\n\n",
              static_cast<unsigned long long>(args.seed));
  std::printf("%-14s | %-9s %-9s %-9s\n", "mean ability", "MV", "DS-EM",
              "GLAD");
  PrintRule(48);

  BenchReporter reporter("ablation_workers", args);
  for (double ability : {0.95, 0.85, 0.75, 0.65, 0.55}) {
    ScopedTimer row = reporter.Time(StrFormat("ability=%.2f", ability),
                                    880.0 * 3);
    Rng rng(args.seed);
    data::Dataset d = GenerateSynthetic(data::OralSimConfig(), &rng);
    // Beta(c·a, c·(1−a)) has mean a; concentration 20 keeps workers near
    // the target ability.
    const double c = 20.0;
    crowd::WorkerPool pool({.num_workers = 25,
                            .sensitivity_alpha = c * ability,
                            .sensitivity_beta = c * (1.0 - ability),
                            .specificity_alpha = c * ability,
                            .specificity_beta = c * (1.0 - ability)},
                           &rng);
    pool.Annotate(&d, 5, &rng);

    std::printf("%-14.2f | %-9.3f %-9.3f %-9.3f\n", ability,
                RecoveryAccuracy(crowd::MajorityVote(), d),
                RecoveryAccuracy(crowd::DawidSkene(), d),
                RecoveryAccuracy(crowd::Glad(), d));
    std::fflush(stdout);
  }
  PrintRule(48);
  return reporter.Finish();
}

}  // namespace
}  // namespace rll::bench

int main(int argc, char** argv) {
  return rll::bench::RunHarness(argc, argv, rll::bench::Run);
}
