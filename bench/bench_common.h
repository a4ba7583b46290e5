// Shared setup for the table-reproduction harnesses: paper-scale simulated
// datasets ("oral-sim" 880×16, "class-sim" 472×14, five crowd votes each),
// default method options, and table-printing helpers.

#ifndef RLL_BENCH_BENCH_COMMON_H_
#define RLL_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_registry.h"
#include "common/threading.h"
#include "crowd/worker_pool.h"
#include "data/synthetic.h"
#include "obs/json_util.h"
#include "obs/profiler.h"

namespace rll::bench {

struct BenchDataset {
  std::string name;
  data::Dataset dataset;
};

/// Fixed seed for regenerable tables; vary with --seed to probe stability.
constexpr uint64_t kDefaultSeed = 42;

/// Both simulated paper datasets, annotated by a 25-worker pool with
/// `votes_per_example` votes each (the paper uses 5).
inline std::vector<BenchDataset> MakePaperDatasets(
    uint64_t seed, size_t votes_per_example = 5) {
  std::vector<BenchDataset> out;
  {
    Rng rng(seed);
    data::Dataset d = GenerateSynthetic(data::OralSimConfig(), &rng);
    crowd::WorkerPool pool({.num_workers = 25}, &rng);
    pool.Annotate(&d, votes_per_example, &rng);
    out.push_back({"oral", std::move(d)});
  }
  {
    Rng rng(seed + 1);
    data::Dataset d = GenerateSynthetic(data::ClassSimConfig(), &rng);
    crowd::WorkerPool pool({.num_workers = 25}, &rng);
    pool.Annotate(&d, votes_per_example, &rng);
    out.push_back({"class", std::move(d)});
  }
  return out;
}

/// RunHarness parses --seed N, --quick, --threads N, --json PATH,
/// --profile-out PATH and --profile-hz N from argv, applies them, and calls
/// the harness. Quick mode shrinks training budgets so a full table
/// regenerates in seconds (for smoke runs); --threads sizes the global
/// thread pool (results are identical at any value — see
/// common/threading.h); --json writes a machine-readable record of the run
/// (see BenchReporter) alongside the human-readable table on stdout;
/// --profile-out arms the sampling CPU profiler for the whole run and
/// writes collapsed stacks (or the JSON report, for a .json path) at
/// Finish().
///
/// `own_flags` names the value-taking flags a harness parses itself from
/// argv; they are skipped here. --help prints usage and returns 0; any
/// other flag, or a flag without its value, prints usage to stderr and
/// returns 2 without running, so a typo never runs the benchmark under
/// default settings.
struct BenchArgs {
  uint64_t seed = kDefaultSeed;
  bool quick = false;
  /// 0 keeps the RLL_THREADS / serial default.
  size_t threads = 0;
  std::string json_path;
  std::string profile_path;
  int profile_hz = 99;
};

inline int RunHarness(int argc, char** argv,
                      const std::function<int(const BenchArgs&)>& run,
                      std::initializer_list<const char*> own_flags = {}) {
  const auto usage = [&](std::FILE* out) {
    std::fprintf(out,
                 "usage: %s [--quick] [--seed N] [--threads N] [--json PATH]"
                 " [--profile-out PATH] [--profile-hz N]",
                 argv[0]);
    for (const char* flag : own_flags) std::fprintf(out, " [%s VALUE]", flag);
    std::fprintf(out, "\n");
  };
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help") {
      usage(stdout);
      return 0;
    }
    if (flag == "--quick") {
      args.quick = true;
      continue;
    }
    const bool own = std::find(own_flags.begin(), own_flags.end(), flag) !=
                     own_flags.end();
    const bool known = own || flag == "--seed" || flag == "--threads" ||
                       flag == "--json" || flag == "--profile-out" ||
                       flag == "--profile-hz";
    if (!known || i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s\n", known ? "missing value for flag"
                                             : "unknown flag",
                   flag.c_str());
      usage(stderr);
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--seed") {
      args.seed = static_cast<uint64_t>(std::strtoull(value, nullptr, 10));
    } else if (flag == "--threads") {
      args.threads = static_cast<size_t>(std::strtoull(value, nullptr, 10));
    } else if (flag == "--json") {
      args.json_path = value;
    } else if (flag == "--profile-out") {
      args.profile_path = value;
    } else if (flag == "--profile-hz") {
      args.profile_hz = static_cast<int>(std::strtol(value, nullptr, 10));
    }
  }
  if (args.threads > 0) SetGlobalThreads(args.threads);
  // Keep stdout clean for the tables.
  SetLogLevel(LogLevel::kWarning);
  SetCurrentThreadName("rll-bench-main");
  if (!args.profile_path.empty()) {
    obs::ProfilerOptions options;
    if (args.profile_hz > 0) options.hz = args.profile_hz;
    const Status started = obs::StartCpuProfiler(options);
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      args.profile_path.clear();  // Nothing to write at Finish().
    }
  }
  return run(args);
}

/// Stops the profiler (if RunHarness armed it) and writes the profile to
/// `args.profile_path` — collapsed stacks, or the aggregated JSON report
/// when the path ends in ".json". Returns 0, or 1 on a write failure.
inline int FinishProfile(const BenchArgs& args) {
  if (args.profile_path.empty()) return 0;
  obs::StopCpuProfiler();
  std::FILE* f = std::fopen(args.profile_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for write\n",
                 args.profile_path.c_str());
    return 1;
  }
  const std::string& path = args.profile_path;
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  const std::string profile =
      json ? obs::ProfileToJson() + "\n" : obs::ProfileToFolded();
  std::fwrite(profile.data(), 1, profile.size(), f);
  const bool write_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!write_ok) {
    std::fprintf(stderr, "write failed: %s\n", args.profile_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "profile written to %s\n", args.profile_path.c_str());
  return 0;
}

inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Collects one timing record per unit of bench work (a method × dataset
/// cell, a sweep point) and, when --json was given, writes the run as
///
///   {"bench": "table1_methods", "seed": 42, "quick": false, "threads": 1,
///    "total_wall_ms": ..., "records": [
///      {"name": "RLL+Bayesian/oral", "wall_ms": ..., "throughput": ...},
///      ...]}
///
/// so CI can diff regenerated tables without scraping stdout. Throughput
/// is units/sec for whatever unit the harness passed to Time() (examples,
/// groups), or null when no unit count was supplied.
class BenchReporter {
 public:
  BenchReporter(std::string bench_name, const BenchArgs& args)
      : bench_name_(std::move(bench_name)), args_(args) {}

  /// Times one unit of work: destroy the returned timer (leave scope) to
  /// record it. `units` is the work size for the throughput column.
  ScopedTimer Time(std::string name, double units = 0.0) {
    return ScopedTimer([this, name = std::move(name), units](double ms) {
      Record(name, ms, units > 0.0 && ms > 0.0 ? units / (ms / 1e3) : 0.0);
    });
  }

  void Record(const std::string& name, double wall_ms,
              double throughput = 0.0) {
    records_.push_back({name, wall_ms, throughput});
  }

  double TotalWallSeconds() const { return total_.ElapsedSeconds(); }

  /// Writes the JSON record if --json was given. Returns the process exit
  /// code: 0, or 1 when the file cannot be written.
  int Finish() {
    if (args_.json_path.empty()) return 0;
    std::FILE* f = std::fopen(args_.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for write\n",
                   args_.json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"seed\":%llu,\"quick\":%s,"
                 "\"threads\":%zu,",
                 obs::JsonEscape(bench_name_).c_str(),
                 static_cast<unsigned long long>(args_.seed),
                 args_.quick ? "true" : "false", GlobalThreadCount());
    std::fprintf(f, "\"total_wall_ms\":%s,\"records\":[",
                 obs::JsonNumber(total_.ElapsedMillis()).c_str());
    for (size_t i = 0; i < records_.size(); ++i) {
      const RecordRow& r = records_[i];
      std::fprintf(f, "%s\n{\"name\":\"%s\",\"wall_ms\":%s,\"throughput\":%s}",
                   i == 0 ? "" : ",", obs::JsonEscape(r.name).c_str(),
                   obs::JsonNumber(r.wall_ms).c_str(),
                   r.throughput > 0.0 ? obs::JsonNumber(r.throughput).c_str()
                                      : "null");
    }
    std::fprintf(f, "\n]}\n");
    const bool write_ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!write_ok) {
      std::fprintf(stderr, "write failed: %s\n", args_.json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "bench json written to %s\n",
                 args_.json_path.c_str());
    return 0;
  }

 private:
  struct RecordRow {
    std::string name;
    double wall_ms = 0.0;
    double throughput = 0.0;
  };

  std::string bench_name_;
  BenchArgs args_;
  Stopwatch total_;
  std::vector<RecordRow> records_;
};

}  // namespace rll::bench

#endif  // RLL_BENCH_BENCH_COMMON_H_
