// train_cv: the paper's end-to-end task. RLL+Bayesian under the registry's
// paper protocol (5 folds, 15 epochs, 1024 groups per epoch, k = 3,
// η = 10) via core::RunRllCrossValidation on oral-sim and then class-sim.
//
// Untraced run: after one warm-up pass, repeats whole passes (both
// datasets) for the run length and reports the median pass time, training
// throughput, per-call latency and the CV accuracy/F1, checking that every
// pass is bitwise-equal to the warm-up pass.
//
// Traced run: two untraced passes (a warm-up that is also the reference
// result, then the base), then one pass with the existing spans and the
// sampling profiler on (traced ÷ base is the tracing overhead),
// then a pass that rebuilds each fold from its public parts with the
// benchmark timing every stage — that pass must reproduce
// RunRllCrossValidation's per-fold results exactly, and its stages must
// add up to the fold time. Last, a GEMM probe at the trainer's shapes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include "baselines/registry.h"
#include "classify/logistic_regression.h"
#include "classify/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/threading.h"
#include "core/pipeline.h"
#include "core/rll_trainer.h"
#include "crowd/confidence.h"
#include "crowd/worker_pool.h"
#include "data/kfold.h"
#include "data/standardize.h"
#include "data/synthetic.h"
#include "obs/alloc_count.h"
#include "obs/json_util.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "stats.h"
#include "tensor/ops.h"
#include "workloads.h"

namespace perfbench {

using rll::Matrix;
using rll::Rng;
using rll::Stopwatch;

PaperDatasets MakePaperDatasets(uint64_t seed) {
  const auto make = [](const rll::data::SyntheticConfig& config,
                       uint64_t stream) {
    Rng rng(stream);
    rll::data::Dataset d = rll::data::GenerateSynthetic(config, &rng);
    rll::crowd::WorkerPool pool({.num_workers = 25}, &rng);
    pool.Annotate(&d, 5, &rng);
    return d;
  };
  return {make(rll::data::OralSimConfig(), seed),
          make(rll::data::ClassSimConfig(), seed + 1)};
}

namespace {

/// Stage-sum bound: the timed fold stages must cover the fold's wall time
/// to within this share.
constexpr double kTrainStageBound = 0.05;

/// Leaf-first layer grouping of profiler stacks for the training layers.
const std::vector<FrameGroup>& TrainFrameGroups() {
  static const std::vector<FrameGroup> kGroups = {
      {"gemm", {"MulInto", "MulTransposeAInto", "MulTransposeBInto",
                "Matmul"}},
      {"map", {"rll::Map", "tanh", "::exp", "exp@", "Hadamard",
               "AddRowBroadcast"}},
      {"adam", {"Adam"}},
      {"autograd", {"rll::ag::", "autograd"}},
  };
  return kGroups;
}

struct DatasetRef {
  const char* name;
  const rll::data::Dataset* data;
};

/// The CV stream for dataset `d` under the run seed: fixed per seed, so
/// every pass (and the rebuilt pass) sees the same folds and inits.
uint64_t CvSeed(uint64_t seed, size_t d) { return rll::SplitSeed(seed, 100 + d); }

bool SameMetrics(const rll::core::CvOutcome& a, const rll::core::CvOutcome& b) {
  if (a.per_fold.size() != b.per_fold.size()) return false;
  for (size_t f = 0; f < a.per_fold.size(); ++f) {
    if (std::memcmp(&a.per_fold[f], &b.per_fold[f],
                    sizeof(rll::classify::EvalMetrics)) != 0) {
      return false;
    }
  }
  return true;
}

/// One pass: RunRllCrossValidation on each dataset. Appends each call's
/// wall time (ms) to *call_ms and returns the outcomes (empty on failure).
std::vector<rll::core::CvOutcome> RunPass(
    const std::vector<DatasetRef>& datasets,
    const rll::core::RllPipelineOptions& options, uint64_t seed,
    std::vector<double>* call_ms, Report* report) {
  std::vector<rll::core::CvOutcome> outcomes;
  for (size_t d = 0; d < datasets.size(); ++d) {
    Rng rng(CvSeed(seed, d));
    Stopwatch timer;
    auto outcome =
        rll::core::RunRllCrossValidation(*datasets[d].data, options, &rng);
    call_ms->push_back(timer.ElapsedMillis());
    report->CountOperations(1, outcome.ok() ? 0 : 1);
    report->Check(outcome.ok(), std::string("RunRllCrossValidation on ") +
                                    datasets[d].name + ": " +
                                    outcome.status().ToString());
    if (!outcome.ok()) return {};
    outcomes.push_back(*std::move(outcome));
  }
  return outcomes;
}

/// Stage times of one rebuilt fold, in ms.
struct FoldStages {
  double prep = 0, confidence = 0, train = 0, embed = 0, lr_fit = 0,
         predict = 0, total = 0;
  size_t groups = 0;
  rll::classify::EvalMetrics metrics;
  bool ok = false;
};

/// Rebuilds RunRllCrossValidation from its public parts (same split, same
/// per-fold seeds, same stage order), timing every stage. Folds run as
/// pool tasks exactly like the pipeline's.
std::vector<FoldStages> RebuildCv(const rll::data::Dataset& dataset,
                                  const rll::core::RllPipelineOptions& options,
                                  uint64_t cv_seed) {
  Rng rng(cv_seed);
  const std::vector<rll::data::Split> splits =
      rll::data::StratifiedKFold(dataset.true_labels(), options.folds, &rng);
  const uint64_t base_seed = rng.Next();
  std::vector<FoldStages> stages(splits.size());
  rll::ParallelFor(0, splits.size(), 1, [&](size_t lo, size_t hi) {
    for (size_t fold = lo; fold < hi; ++fold) {
      FoldStages& s = stages[fold];
      const rll::data::Split& split = splits[fold];
      Stopwatch fold_timer;
      Stopwatch t;
      rll::data::Dataset train = dataset.Subset(split.train);
      rll::data::Dataset test = dataset.Subset(split.test);
      Matrix train_features = train.features();
      Matrix test_features = test.features();
      if (options.standardize) {
        rll::data::Standardizer standardizer;
        train_features = standardizer.FitTransform(train_features);
        test_features = standardizer.Transform(test_features);
      }
      rll::data::Dataset train_std(train_features, train.true_labels());
      for (size_t i = 0; i < train.size(); ++i) {
        for (const rll::data::Annotation& a : train.annotations(i)) {
          train_std.AddAnnotation(i, a);
        }
      }
      s.prep = t.ElapsedMillis();

      t.Restart();
      const std::vector<int> labels = train_std.MajorityVoteLabels();
      const std::vector<double> confidence = rll::crowd::LabelConfidence(
          train_std, labels, options.trainer.confidence_mode,
          options.trainer.prior_strength);
      s.confidence = t.ElapsedMillis();

      t.Restart();
      Rng fold_rng(rll::SplitSeed(base_seed, fold));
      rll::core::RllTrainer trainer(options.trainer, &fold_rng);
      auto summary = trainer.Train(train_std.features(), labels, confidence);
      s.train = t.ElapsedMillis();
      if (!summary.ok()) continue;
      s.groups = summary->groups_trained;

      t.Restart();
      const Matrix train_emb = trainer.model().Embed(train_std.features());
      const Matrix test_emb = trainer.model().Embed(test_features);
      s.embed = t.ElapsedMillis();

      t.Restart();
      rll::classify::LogisticRegression lr(options.classifier);
      const rll::Status fit = lr.Fit(train_emb, labels);
      s.lr_fit = t.ElapsedMillis();
      if (!fit.ok()) continue;

      t.Restart();
      const std::vector<int> predicted = lr.Predict(test_emb);
      s.predict = t.ElapsedMillis();

      s.metrics = rll::classify::Evaluate(test.true_labels(), predicted);
      s.total = fold_timer.ElapsedMillis();
      s.ok = true;
    }
  });
  return stages;
}

/// MulInto throughput at one shape, FLOPs computed as 2·m·k·n per call
/// (not counted by the program). Runs for about `budget_s`.
double GemmGflops(size_t m, size_t k, size_t n, double budget_s) {
  Rng rng(7);
  Matrix a(m, k), b(k, n), out(m, n);
  for (size_t i = 0; i < a.size(); ++i) a[i] = rng.Normal();
  for (size_t i = 0; i < b.size(); ++i) b[i] = rng.Normal();
  rll::MulInto(a, b, out);  // Warm.
  std::vector<double> rates;
  Stopwatch total;
  while (total.ElapsedSeconds() < budget_s) {
    Stopwatch t;
    for (int rep = 0; rep < 200; ++rep) rll::MulInto(a, b, out);
    rates.push_back(200.0 * 2.0 * static_cast<double>(m * k * n) /
                    t.ElapsedSeconds() / 1e9);
  }
  return Median(rates);
}

void TracedRun(const std::vector<DatasetRef>& datasets,
               const rll::core::RllPipelineOptions& options,
               const RunArgs& args, Report* report) {
  // The first pass warms the process (pool, arenas, page faults) and is
  // the reference result; the second, warm, is the untraced base.
  std::vector<double> call_ms;
  const auto reference = RunPass(datasets, options, args.seed, &call_ms, report);
  if (reference.empty()) return;
  Stopwatch untraced_timer;
  const auto untraced = RunPass(datasets, options, args.seed, &call_ms, report);
  const double untraced_s = untraced_timer.ElapsedSeconds();
  if (untraced.empty()) return;

  // Traced pass: the existing spans plus the sampling profiler.
  rll::obs::ClearTraceEvents();
  rll::obs::ClearProfile();
  rll::obs::SetTracingEnabled(true);
  const rll::Status profiling = rll::obs::StartCpuProfiler({.hz = 250});
  Stopwatch traced_timer;
  const auto traced = RunPass(datasets, options, args.seed, &call_ms, report);
  const double traced_s = traced_timer.ElapsedSeconds();
  rll::obs::StopCpuProfiler();
  rll::obs::SetTracingEnabled(false);
  report->Check(profiling.ok(), "profiler start: " + profiling.ToString());
  if (traced.empty()) return;
  for (size_t d = 0; d < datasets.size(); ++d) {
    report->Check(SameMetrics(reference[d], traced[d]),
                  std::string("traced pass differs from untraced on ") +
                      datasets[d].name);
  }
  report->Set("bench.tracing_overhead_ratio", traced_s / untraced_s, 2);
  report->InfoNumber("tracing_overhead_base_s", untraced_s);

  std::vector<SpanRecord> spans;
  for (const auto& e : rll::obs::SnapshotTraceEvents()) {
    spans.push_back({e.name, e.start_us, e.dur_us, e.tid});
  }
  const std::vector<int64_t> self = SelfTimes(spans);
  std::vector<double> epoch_ms, batch_ms;
  std::map<std::string, double> self_ms_by_span;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = spans[i].name;
    const std::string base = name.substr(0, name.find(':'));
    if (base == "epoch") epoch_ms.push_back(spans[i].dur_us / 1e3);
    if (base == "batch") batch_ms.push_back(spans[i].dur_us / 1e3);
    self_ms_by_span[base] += self[i] / 1e3;
  }
  report->Set("core.epoch_ms", Median(epoch_ms), epoch_ms.size());
  report->Set("core.batch_ms", Median(batch_ms), batch_ms.size());
  std::string self_json = "{";
  for (const auto& [name, ms] : self_ms_by_span) {
    self_json += std::string(self_json.size() > 1 ? ", " : "") + "\"" +
                 name + "\": " + rll::obs::JsonNumber(ms);
  }
  report->Info("span_self_ms", self_json + "}");

  const auto groups =
      GroupFoldedStacks(rll::obs::ProfileToFolded(), TrainFrameGroups());
  const double total = std::max<double>(1.0, groups.at("total"));
  const auto frac = [&](const char* g) {
    const auto it = groups.find(g);
    return it == groups.end() ? 0.0 : it->second / total;
  };
  const uint64_t samples = groups.at("total");
  report->Set("tensor.gemm_cpu_frac", frac("gemm"), samples);
  report->Set("tensor.map_cpu_frac", frac("map"), samples);
  report->Set("autograd.cpu_frac", frac("autograd"), samples);
  report->Set("nn.adam_cpu_frac", frac("adam"), samples);
  report->InfoNumber("profile_other_frac", frac("other"));

  // Rebuilt pass: stage-by-stage timing from outside the pipeline.
  std::vector<FoldStages> folds;
  double wall_ms = 0.0;
  const uint64_t allocs_before = rll::obs::AllocationCount();
  for (size_t d = 0; d < datasets.size(); ++d) {
    Stopwatch wall;
    std::vector<FoldStages> rebuilt =
        RebuildCv(*datasets[d].data, options, CvSeed(args.seed, d));
    wall_ms += wall.ElapsedMillis();
    bool equal = rebuilt.size() == reference[d].per_fold.size();
    for (size_t f = 0; equal && f < rebuilt.size(); ++f) {
      equal = rebuilt[f].ok &&
              std::memcmp(&rebuilt[f].metrics, &reference[d].per_fold[f],
                          sizeof(rll::classify::EvalMetrics)) == 0;
    }
    report->Check(equal, std::string("rebuilt folds differ from "
                                     "RunRllCrossValidation on ") +
                             datasets[d].name);
    folds.insert(folds.end(), rebuilt.begin(), rebuilt.end());
  }
  const uint64_t allocs = rll::obs::AllocationCount() - allocs_before;

  FoldStages sum;
  for (const FoldStages& f : folds) {
    sum.prep += f.prep;
    sum.confidence += f.confidence;
    sum.train += f.train;
    sum.embed += f.embed;
    sum.lr_fit += f.lr_fit;
    sum.predict += f.predict;
    sum.total += f.total;
    sum.groups += f.groups;
  }
  const double n = static_cast<double>(std::max<size_t>(folds.size(), 1));
  report->Set("data.fold_prep_ms", sum.prep / n, folds.size());
  report->Set("crowd.confidence_ms", sum.confidence / n, folds.size());
  report->Set("core.train_ms", sum.train / n, folds.size());
  report->Set("nn.embed_ms", sum.embed / n, folds.size());
  report->Set("classify.lr_fit_ms", sum.lr_fit / n, folds.size());
  report->Set("classify.predict_ms", sum.predict / n, folds.size());
  report->Set("core.groups_per_s", sum.groups / (sum.train / 1e3),
              folds.size());
  report->Set("obs.allocs_per_group",
              static_cast<double>(allocs) / std::max<size_t>(sum.groups, 1),
              sum.groups);
  report->Set("common.pool_busy_frac",
              sum.total / (wall_ms * rll::GlobalThreadCount()), folds.size());
  const double staged = sum.prep + sum.confidence + sum.train + sum.embed +
                        sum.lr_fit + sum.predict;
  const double unattributed = (sum.total - staged) / sum.total;
  report->Set("train.unattributed_frac", unattributed, folds.size());
  report->InfoNumber("train_stage_bound", kTrainStageBound);
  report->Check(std::fabs(unattributed) <= kTrainStageBound,
                "fold stages cover " + std::to_string(1 - unattributed) +
                    " of the fold time (bound " +
                    std::to_string(kTrainStageBound) + ")");

  // The trainer's forward GEMMs: a batch of 64 groups embeds 64 rows per
  // call through input→64 and 64→32.
  const size_t dim = datasets[0].data->dim();
  const double g1 = GemmGflops(64, dim, 64, 0.4);
  const double g2 = GemmGflops(64, 64, 32, 0.4);
  report->Set("tensor.gemm_gflops", std::sqrt(g1 * g2), 2);
  report->Info("gemm_note",
               "\"MulInto at 64x" + std::to_string(dim) +
                   "x64 and 64x64x32; FLOPs computed as 2mkn from the "
                   "shapes, not counted; geometric mean of the two\"");
}

}  // namespace

void RunTrainCv(const RunArgs& args, Report* report) {
  // Set-up: making and annotating both datasets. It takes a millisecond or
  // two, so it is timed kSetupRepeats times before every pass and after the
  // last (setup_s samples the host across the whole run, not only at its
  // start); the median is setup_s and the first copy is used.
  constexpr int kSetupRepeats = 5;
  std::vector<double> setup_s;
  const auto time_setup = [&setup_s] {
    Stopwatch t;
    PaperDatasets made = MakePaperDatasets(kDataSeed);
    setup_s.push_back(t.ElapsedSeconds());
    return made;
  };
  const auto time_setups = [&time_setup] {
    for (int rep = 0; rep < kSetupRepeats; ++rep) time_setup();
  };
  const PaperDatasets data = time_setup();
  time_setups();
  const std::vector<DatasetRef> datasets = {{"oral", &data.oral},
                                            {"class", &data.cls}};
  const rll::core::RllPipelineOptions options =
      rll::baselines::DefaultRegistryOptions().rll;

  if (args.trace) {
    TracedRun(datasets, options, args, report);
    return;
  }

  // A first, untimed pass warms the process (pool, arenas, page faults)
  // and gives the reference result every timed pass must equal bitwise.
  std::vector<double> pass_s, call_ms, warmup_ms;
  const std::vector<rll::core::CvOutcome> first =
      RunPass(datasets, options, args.seed, &warmup_ms, report);
  if (first.empty()) return;
  Stopwatch run;
  while (run.ElapsedSeconds() < args.seconds || pass_s.size() < 2) {
    time_setups();
    Stopwatch t;
    const auto outcomes = RunPass(datasets, options, args.seed, &call_ms, report);
    pass_s.push_back(t.ElapsedSeconds());
    if (outcomes.empty()) return;
    for (size_t d = 0; d < datasets.size(); ++d) {
      report->Check(SameMetrics(first[d], outcomes[d]),
                    "timed pass " + std::to_string(pass_s.size()) +
                        " differs from the warm-up pass on " +
                        datasets[d].name);
    }
  }

  time_setups();

  const double groups_per_pass =
      static_cast<double>(datasets.size() * options.folds *
                          options.trainer.epochs *
                          options.trainer.groups_per_epoch);
  const double pass_median = Median(pass_s);
  const auto& oral = first[0].mean;
  const auto& cls = first[1].mean;
  report->Set("setup_s", Median(setup_s), setup_s.size());
  report->Set("train_s", pass_median, pass_s.size());
  report->Set("throughput_per_s", groups_per_pass / pass_median,
              pass_s.size());
  report->Set("latency_p50_ms", Quantile(call_ms, 0.5), call_ms.size());
  report->Set("latency_p99_ms", Quantile(call_ms, 0.99), call_ms.size());
  report->Set("accuracy", (oral.accuracy + cls.accuracy) / 2, 10);
  report->Set("f1", (oral.f1 + cls.f1) / 2, 10);
  report->Set("success_frac", 1.0, call_ms.size());
  report->InfoNumber("acc_oral", oral.accuracy);
  report->InfoNumber("f1_oral", oral.f1);
  report->InfoNumber("acc_class", cls.accuracy);
  report->InfoNumber("f1_class", cls.f1);
  report->Info("pass_s", JsonArray(pass_s));
  report->Info("call_ms", JsonArray(call_ms));
  report->InfoNumber("latency_p99_supported_q",
                     HighestSupportedQuantile(call_ms.size()));
  report->Info("latency_op", "\"one RunRllCrossValidation call (one dataset)\"");
  report->Info("throughput_op",
               "\"RLL training groups per second over a pass (" +
                   std::to_string(static_cast<long long>(groups_per_pass)) +
                   " groups)\"");
}

}  // namespace perfbench
