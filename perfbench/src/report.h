// One run's result: the metric catalogue (every end-to-end and per-layer
// metric the benchmark defines, with its unit), the values a workload
// measured, the output checks, and the printing of the result line.
//
// Stdout carries human-readable detail lines ("# ..."), one "info" JSON
// line per run (host stamp, sample counts, percentile ranks, per-dataset
// figures), and last the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// An untraced run reports every end-to-end metric, a traced run every
// per-layer metric.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};

/// Every metric, in the order BENCHMARK.json lists it.
const std::vector<MetricDef>& MetricCatalogue();

/// A JSON array of numbers, for Report::Info.
std::string JsonArray(const std::vector<double>& values);

class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// Records a metric from the catalogue (aborts on an unknown name: a
  /// typo must not silently drop a metric). `samples` is the number of
  /// observations behind the value, stated in the info line.
  void Set(const std::string& name, double value, uint64_t samples);

  /// Free-form context for the info line (already-encoded JSON value).
  void Info(const std::string& key, const std::string& json_value);
  void InfoNumber(const std::string& key, double value);
  void InfoString(const std::string& key, const std::string& value);

  /// Records one output check; a failed check makes the run incorrect and
  /// prints its detail.
  void Check(bool ok, const std::string& what);

  void CountOperations(uint64_t attempted, uint64_t failed);

  /// Prints the info line and the result line. Per-layer metrics a
  /// workload does not exercise read 0 and are listed under
  /// "not_exercised", as do end-to-end metrics a failed run never got to.
  /// Returns false (printing nothing) if an end-to-end metric is missing
  /// from an untraced run whose checks passed, which is a harness bug.
  bool Print() const;

 private:
  struct Value {
    double value = 0.0;
    uint64_t samples = 0;
  };

  bool trace_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, Value> values_;
  std::vector<std::pair<std::string, std::string>> info_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
