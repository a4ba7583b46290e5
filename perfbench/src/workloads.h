// The benchmark's workloads and what they share: the run arguments and the
// paper-scale inputs made from the seed.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "data/dataset.h"
#include "report.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  /// How long the measured phase runs.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
};

/// The paper's two simulated datasets ("oral-sim" 880 rows, "class-sim"
/// 472 rows), each annotated with five votes per example by a 25-worker
/// crowd — the same construction as the table harnesses in bench/.
struct PaperDatasets {
  rll::data::Dataset oral;
  rll::data::Dataset cls;
};
PaperDatasets MakePaperDatasets(uint64_t seed);

/// The data seed every workload uses (the table harnesses' default). The
/// run seed varies everything else — folds, model initialisation, request
/// streams, arrival times — so accuracy and F1 differ across seeds only by
/// what the method itself makes of a fixed dataset.
constexpr uint64_t kDataSeed = 42;

/// train_cv: the paper's 5-fold RLL+Bayesian protocol on both datasets.
void RunTrainCv(const RunArgs& args, Report* report);

/// serve_hot: closed loop with a hot set against an in-process
/// EventServer; its traced run adds the cold phase (open loop, unique rows,
/// hot reloads and metric scrapes).
void RunServe(const RunArgs& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
