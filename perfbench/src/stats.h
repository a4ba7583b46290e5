// The benchmark's own arithmetic: percentiles and their support, the
// open-loop arrival schedule, span self time, and the grouping of profiler
// stacks into layers. Kept apart from the workloads so that
// tests/stats_test.cc can pin each rule on hand-made inputs.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `values` (need not be sorted): the smallest
/// sample with at least q·n samples at or below it. q in [0, 1]; 0 for an
/// empty sample.
double Quantile(std::vector<double> values, double q);

double Median(const std::vector<double>& values);

/// Interquartile mean: the mean of the values between the nearest-rank
/// first and third quartiles (inclusive), a location estimate that, like
/// the median, ignores the outer quarters but keeps every digit.
double InterquartileMean(std::vector<double> values);

/// Samples strictly above the nearest-rank q-quantile's rank: n − ⌈q·n⌉.
size_t SamplesBeyond(size_t n, double q);

/// The highest of the percentiles 99.99, 99.9, 99, 90, 75 and 50 that has
/// at least `min_beyond` samples beyond its rank in a sample of n, as a
/// fraction (0.999 for p99.9). Returns 0.5 when even the median lacks that
/// support — the median is always reported.
double HighestSupportedQuantile(size_t n, size_t min_beyond = 10);

/// Arrival offsets in seconds, from 0 up to `duration_s`, of a Poisson
/// process at `rate_per_s`, drawn from one stream seeded with `seed`. The
/// same seed gives the same schedule.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s);

/// One closed span as the tracer records it.
struct SpanRecord {
  std::string name;
  int64_t start_us = 0;
  int64_t dur_us = 0;
  uint32_t tid = 0;
};

/// Self time of every span, in input order: its duration minus the part of
/// its interval covered by its direct children (spans on the same thread
/// that start inside it). Children are clipped to the parent.
std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans);

/// A layer and the substrings that identify its frames.
struct FrameGroup {
  std::string name;
  std::vector<std::string> patterns;
};

/// Groups folded stacks ("frame;frame;...;leaf count" lines, root first)
/// by layer. Each stack goes to the group of the frame nearest its leaf
/// that matches any pattern (groups tried in order); "span:" pseudo-frames
/// are skipped, and a stack with no matching frame counts as "other". The
/// result also holds "total".
std::map<std::string, uint64_t> GroupFoldedStacks(
    const std::string& folded, const std::vector<FrameGroup>& groups);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
