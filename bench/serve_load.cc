// Closed-loop load generator for the inference server (src/serve/).
//
// Drives an in-process ServerCore — the identical request path the TCP
// transport uses, minus the sockets — with N client threads issuing
// newline-delimited JSON through HandleLine. Each client draws features
// from a hot set (to exercise the LRU cache) mixed with uniform corpus
// rows (to keep the batcher fed with misses), across all three request
// types. Afterwards the harness:
//
//   * reads p50/p95/p99 request latency and the batch-size distribution
//     out of the obs metric registry (the same numbers an operator sees),
//   * checks that dynamic batching actually engaged (max batch > 1), and
//   * re-embeds a sample of rows one-at-a-time and compares them bitwise
//     against the concurrently micro-batched answers — the determinism
//     claim in serve/batcher.h, checked end to end under real contention.
//
// A second, open-loop phase replays a Poisson arrival process against the
// same core: request start times are drawn from seeded exponential
// inter-arrivals at a configured offered rate, and latency is measured
// from the *scheduled* arrival — so when the server falls behind, queueing
// delay shows up in the percentiles instead of silently throttling the
// generator (the closed-loop coordinated-omission trap). The sweep's top
// rate is chosen past saturation on purpose: goodput should plateau at
// capacity while tail latency grows, and both are recorded per rate.
//
// Usage: serve_load [--quick] [--seed N] [--threads N] [--json OUT.json]
//                   [--offered-qps Q1,Q2,...]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/model_bundle.h"
#include "core/rll_model.h"
#include "data/standardize.h"
#include "obs/alloc_count.h"
#include "obs/metrics.h"
#include "serve/server_core.h"

namespace rll::bench {
namespace {

struct ClientStats {
  uint64_t requests = 0;
  uint64_t failures = 0;
};

// One client's closed loop: build a request line, hand it to the core,
// count the outcome, repeat. `hot` rows repeat often enough to hit the
// cache; the rest sweep the corpus so misses keep batches forming.
ClientStats RunClient(serve::ServerCore* core, const data::Dataset& dataset,
                      const std::vector<std::string>& request_lines,
                      size_t hot_rows, size_t iterations, uint64_t seed) {
  Rng rng(seed);
  ClientStats stats;
  for (size_t i = 0; i < iterations; ++i) {
    const size_t row = rng.Bernoulli(0.5)
                           ? rng.UniformInt(hot_rows)
                           : rng.UniformInt(dataset.size());
    const std::string& line = request_lines[row];
    const std::string response = core->HandleLine(line);
    ++stats.requests;
    if (response.find("\"ok\":true") == std::string::npos) ++stats.failures;
  }
  return stats;
}

struct OpenLoopResult {
  uint64_t issued = 0;
  uint64_t succeeded = 0;
  double wall_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

double PercentileOf(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Replays `count` requests whose start times follow a Poisson process at
/// `offered_qps`. A pool of dispatcher threads pulls scheduled arrivals
/// off a shared index: each sleeps until its arrival time, issues the
/// request, and charges the full scheduled-arrival-to-response interval as
/// latency. Past saturation the pool runs behind schedule, so queueing
/// delay accumulates into the measured tails — exactly what an open-loop
/// client would see.
OpenLoopResult RunOpenLoop(serve::ServerCore* core,
                           const std::vector<std::string>& request_lines,
                           double offered_qps, size_t count, size_t pool,
                           uint64_t seed) {
  // The arrival schedule is drawn up front from one seeded stream, so the
  // offered process is identical no matter how the pool gets scheduled.
  Rng rng(seed);
  std::vector<double> arrival_s(count);
  double clock_s = 0.0;
  for (size_t i = 0; i < count; ++i) {
    clock_s += -std::log(1.0 - rng.Uniform()) / offered_qps;
    arrival_s[i] = clock_s;
  }

  std::atomic<size_t> next{0};
  std::atomic<uint64_t> succeeded{0};
  std::vector<std::vector<double>> latencies(pool);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> dispatchers;
  dispatchers.reserve(pool);
  for (size_t d = 0; d < pool; ++d) {
    dispatchers.emplace_back([&, d] {
      std::vector<double>& local = latencies[d];
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        const auto scheduled =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(arrival_s[i]));
        std::this_thread::sleep_until(scheduled);
        const std::string& line = request_lines[i % request_lines.size()];
        const std::string response = core->HandleLine(line);
        const auto done = std::chrono::steady_clock::now();
        if (response.find("\"ok\":true") != std::string::npos) {
          succeeded.fetch_add(1, std::memory_order_relaxed);
        }
        local.push_back(
            std::chrono::duration<double, std::milli>(done - scheduled)
                .count());
      }
    });
  }
  for (std::thread& t : dispatchers) t.join();

  OpenLoopResult result;
  result.issued = count;
  result.succeeded = succeeded.load();
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  std::vector<double> merged;
  merged.reserve(count);
  for (const std::vector<double>& local : latencies) {
    merged.insert(merged.end(), local.begin(), local.end());
  }
  std::sort(merged.begin(), merged.end());
  result.p50_ms = PercentileOf(merged, 0.50);
  result.p95_ms = PercentileOf(merged, 0.95);
  result.p99_ms = PercentileOf(merged, 0.99);
  return result;
}

/// Parses "--offered-qps Q1,Q2,..." out of argv (RunHarness skips it as
/// one of this harness's own flags). The default sweep straddles
/// saturation; it is the same list in --quick mode so the recorded metric
/// names stay stable for the bench gate, only the per-rate request budget
/// shrinks.
std::vector<double> ParseOfferedQps(int argc, char** argv) {
  std::vector<double> sweep = {4000.0, 16000.0, 64000.0};
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--offered-qps") != 0) continue;
    sweep.clear();
    const char* cursor = argv[i + 1];
    while (*cursor != '\0') {
      char* end = nullptr;
      const double qps = std::strtod(cursor, &end);
      if (end == cursor) break;
      if (qps > 0.0) sweep.push_back(qps);
      cursor = *end == ',' ? end + 1 : end;
    }
  }
  return sweep;
}

int Run(const BenchArgs& args, const std::vector<double>& offered_qps) {
  BenchReporter reporter("serve_load", args);

  // Serving needs a bundle, not a good one: a randomly initialized encoder
  // exercises the identical compute path in a fraction of the setup time.
  Rng rng(args.seed);
  data::Dataset dataset =
      GenerateSynthetic(data::OralSimConfig(), &rng);
  data::Standardizer standardizer;
  standardizer.Fit(dataset.features());
  core::RllModelConfig model_config;
  model_config.input_dim = dataset.dim();
  core::RllModel model(model_config, &rng);
  auto bundle = core::ModelBundle::Create(standardizer, model, &rng);
  if (!bundle.ok()) {
    std::fprintf(stderr, "%s\n", bundle.status().ToString().c_str());
    return 1;
  }

  serve::ServerCoreOptions options;
  options.batcher.max_batch = 32;
  options.batcher.max_queue = 1024;  // Sized to the offered load: the
  // harness measures latency under batching, not rejection behavior.
  options.cache_capacity = 256;  // Below the corpus size, so uniform
  // traffic keeps missing while the hot set stays resident.
  options.window.intervals = 120;  // 120s window: covers the whole run,
  // so the windowed percentiles below must agree with the lifetime ones.
  auto core = serve::ServerCore::Create(std::move(*bundle), &dataset,
                                        options);
  if (!core.ok()) {
    std::fprintf(stderr, "%s\n", core.status().ToString().c_str());
    return 1;
  }

  // Pre-serialize one request line per corpus row (round-robin over the
  // three types) so the measured loop is serving, not string building.
  std::vector<std::string> request_lines;
  request_lines.reserve(dataset.size());
  for (size_t r = 0; r < dataset.size(); ++r) {
    std::string features;
    for (size_t c = 0; c < dataset.dim(); ++c) {
      if (c > 0) features += ",";
      features += obs::JsonNumber(dataset.features()(r, c));
    }
    const char* type =
        r % 4 == 3 ? "neighbors" : (r % 4 == 2 ? "predict" : "embed");
    request_lines.push_back(StrFormat(
        "{\"id\":%zu,\"type\":\"%s\",\"features\":[%s]}", r, type,
        features.c_str()));
  }

  const size_t clients = args.quick ? 4 : 16;
  const size_t iterations = args.quick ? 250 : 2000;
  const size_t hot_rows = 64;

  std::vector<ClientStats> stats(clients);
  // Allocation accounting over the whole closed loop (all client threads
  // plus the batcher worker). The request path cannot be literally
  // allocation-free — promises, result rows, and response JSON cross
  // threads and so own their storage — but the per-request count must not
  // grow: the checked-in baseline pins it and tools/gate fails a rise.
  const uint64_t allocs_before = obs::AllocationCount();
  {
    auto timer = reporter.Time("closed_loop",
                               static_cast<double>(clients * iterations));
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        stats[c] = RunClient(core->get(), dataset, request_lines, hot_rows,
                             iterations, SplitSeed(args.seed, c));
      });
    }
    for (std::thread& t : threads) t.join();
  }

  const uint64_t closed_loop_allocs = obs::AllocationCount() - allocs_before;

  uint64_t total_requests = 0, total_failures = 0;
  for (const ClientStats& s : stats) {
    total_requests += s.requests;
    total_failures += s.failures;
  }

  // Bitwise determinism check: embed a sample of raw rows directly through
  // the bundle (one at a time, no batcher) and through the typed server
  // path while the cache is warm. Any difference fails the bench.
  size_t mismatches = 0;
  const size_t sample = 32;
  for (size_t r = 0; r < sample; ++r) {
    const size_t row = (r * 7919) % dataset.size();
    serve::Request request;
    request.type = serve::RequestType::kEmbed;
    const Matrix raw = dataset.features().Row(row);
    request.features.assign(raw.data(), raw.data() + raw.size());
    const serve::Response served = core->get()->Handle(request);
    auto direct = core->get()->bundle().Embed(raw);
    if (!served.ok || !direct.ok() ||
        served.embedding.size() != direct->size()) {
      ++mismatches;
      continue;
    }
    for (size_t i = 0; i < direct->size(); ++i) {
      // Bitwise: exact representational equality, not a tolerance.
      if (served.embedding[i] != (*direct)[i]) {
        ++mismatches;
        break;
      }
    }
  }

  // metricsz scrape RTT: the per-refresh cost an operator's `rll_cli top`
  // pays, measured over the same HandleLine path the transport uses.
  const size_t scrapes = 20;
  double scrape_total_ms = 0.0;
  size_t scrape_failures = 0;
  for (size_t s = 0; s < scrapes; ++s) {
    Stopwatch scrape_timer;
    const std::string response =
        core->get()->HandleLine("{\"id\":\"bench\",\"type\":\"metricsz\"}");
    scrape_total_ms += scrape_timer.ElapsedMillis();
    if (response.find("\"ok\":true") == std::string::npos) ++scrape_failures;
  }

  // Profiler overhead on the serve path: the same single-threaded request
  // burst unprofiled then profiled at the default 99 Hz, interleaved per
  // round so machine drift cancels. Skipped when --profile-out already
  // armed the profiler for the whole run.
  double profiler_overhead = 0.0;
  if (!obs::CpuProfilerRunning()) {
    const size_t burst = args.quick ? 500 : 4000;
    const auto run_burst = [&] {
      for (size_t i = 0; i < burst; ++i) {
        core->get()->HandleLine(request_lines[i % hot_rows]);
      }
    };
    run_burst();  // Warm the burst path itself out of the measurement.
    double base_ms = 0.0;
    double profiled_ms = 0.0;
    for (int round = 0; round < 8; ++round) {
      // Alternate which leg runs first so one-directional drift (cache
      // warming, frequency scaling) cancels instead of biasing the ratio.
      const bool profiled_first = (round % 2) == 1;
      for (int leg = 0; leg < 2; ++leg) {
        const bool profiled_leg = (leg == 1) != profiled_first;
        if (profiled_leg &&
            !obs::StartCpuProfiler({.hz = 99}).ok()) {
          break;
        }
        Stopwatch timer;
        run_burst();
        (profiled_leg ? profiled_ms : base_ms) += timer.ElapsedMillis();
        if (profiled_leg) {
          obs::StopCpuProfiler();
          obs::ClearProfile();
        }
      }
    }
    if (base_ms > 0.0 && profiled_ms > 0.0) {
      profiler_overhead = profiled_ms / base_ms;
      reporter.Record("profiler_overhead_ratio", profiler_overhead);
    }
  }

  // Windowed snapshot before Shutdown, while the run is still inside the
  // 120s window configured above.
  const obs::WindowedHistogram::Snapshot windowed =
      core->get()->windowed_latency(serve::RequestType::kEmbed).GetSnapshot();

  auto& registry = obs::MetricRegistry::Global();
  const obs::Histogram* latency = registry.GetHistogram(
      "serve_request_latency_ms", {{"type", "embed"}});
  const obs::Histogram* batch_size =
      registry.GetHistogram("serve_batch_size");
  const serve::MicroBatcher& batcher = core->get()->batcher();
  const serve::EmbeddingCache& cache = core->get()->cache();

  // Read once: the open-loop sweep below keeps moving the batcher and
  // cache counters, and stdout must print what the JSON records.
  const double p50 = latency->Percentile(0.50);
  const double p95 = latency->Percentile(0.95);
  const double p99 = latency->Percentile(0.99);
  const uint64_t batches = batcher.batches_run();
  const double mean_batch =
      batches > 0 ? static_cast<double>(batcher.rows_batched()) /
                        static_cast<double>(batches)
                  : 0.0;
  const uint64_t max_batch = batcher.max_batch_observed();
  const double batch_histogram_max = batch_size->max();
  const double hit_rate = cache.HitRate();
  const uint64_t hits = cache.hits();
  const uint64_t misses = cache.misses();
  reporter.Record("latency_p50_ms", p50);
  reporter.Record("latency_p95_ms", p95);
  reporter.Record("latency_p99_ms", p99);
  reporter.Record("cache_hit_rate", hit_rate);
  reporter.Record("mean_batch_size", mean_batch);
  reporter.Record("max_batch_observed", static_cast<double>(max_batch));
  if (obs::AllocCountingActive() && total_requests > 0) {
    reporter.Record("allocs_per_op",
                    static_cast<double>(closed_loop_allocs) /
                        static_cast<double>(total_requests));
  }

  // Windowed-vs-lifetime agreement: both views observe the identical
  // request stream through the same bucket math, so with the window
  // covering the whole run the percentiles must coincide (epoch-boundary
  // slot recycling may shave a handful of observations, hence a ratio
  // rather than an equality check). 1.0 = identical.
  const auto agreement = [](double a, double b) {
    if (a <= 0.0 || b <= 0.0) return a == b ? 1.0 : 0.0;
    return a < b ? a / b : b / a;
  };
  reporter.Record("windowed_p50_agreement", agreement(windowed.p50, p50));
  reporter.Record("windowed_p99_agreement", agreement(windowed.p99, p99));
  reporter.Record("metricsz_scrape_rtt_ms",
                  scrape_total_ms / static_cast<double>(scrapes));

  // Open-loop sweep: fixed offered rates, Poisson arrivals, latency from
  // the scheduled arrival. Runs last — after every closed-loop metric has
  // been read — so the lifetime histograms above keep describing the
  // closed loop alone, while the open-loop numbers are measured
  // client-side from the arrival schedule.
  std::vector<OpenLoopResult> open_loop(offered_qps.size());
  const size_t pool = 32;
  for (size_t p = 0; p < offered_qps.size(); ++p) {
    const double qps = offered_qps[p];
    // Budget ~0.75s (0.25s quick) of offered traffic per rate; enough for
    // stable tails at the low rates without letting the past-saturation
    // point queue unboundedly.
    const size_t count = std::max<size_t>(
        200, static_cast<size_t>(qps * (args.quick ? 0.25 : 0.75)));
    open_loop[p] = RunOpenLoop(core->get(), request_lines, qps, count, pool,
                               SplitSeed(args.seed, 1000 + p));
    const std::string prefix = StrFormat("open_loop_%.0f", qps);
    const OpenLoopResult& r = open_loop[p];
    reporter.Record(prefix + "_goodput_per_sec",
                    r.wall_s > 0.0
                        ? static_cast<double>(r.succeeded) / r.wall_s
                        : 0.0);
    reporter.Record(prefix + "_p50_ms", r.p50_ms);
    reporter.Record(prefix + "_p95_ms", r.p95_ms);
    reporter.Record(prefix + "_p99_ms", r.p99_ms);
  }

  core->get()->Shutdown();

  std::printf("serve_load: %zu clients x %zu requests (%llu total, "
              "%llu failed)\n",
              clients, iterations,
              static_cast<unsigned long long>(total_requests),
              static_cast<unsigned long long>(total_failures));
  PrintRule(64);
  std::printf("  embed latency ms    p50 %.4f  p95 %.4f  p99 %.4f\n", p50,
              p95, p99);
  std::printf("  batches %llu, mean size %.2f, max observed %llu "
              "(histogram max %.0f)\n",
              static_cast<unsigned long long>(batches), mean_batch,
              static_cast<unsigned long long>(max_batch),
              batch_histogram_max);
  std::printf("  cache hit rate %.3f (%llu hits / %llu misses)\n", hit_rate,
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses));
  std::printf("  batched-vs-direct bitwise mismatches: %zu / %zu\n",
              mismatches, sample);
  for (size_t p = 0; p < offered_qps.size(); ++p) {
    const OpenLoopResult& r = open_loop[p];
    std::printf("  open loop @%7.0f qps: goodput %8.0f/s  "
                "p50 %.3f  p95 %.3f  p99 %.3f ms  (%llu/%llu ok)\n",
                offered_qps[p],
                r.wall_s > 0.0
                    ? static_cast<double>(r.succeeded) / r.wall_s
                    : 0.0,
                r.p50_ms, r.p95_ms, r.p99_ms,
                static_cast<unsigned long long>(r.succeeded),
                static_cast<unsigned long long>(r.issued));
  }
  std::printf("  windowed p50 %.4f p99 %.4f (agreement %.3f / %.3f), "
              "metricsz rtt %.4f ms\n",
              windowed.p50, windowed.p99, agreement(windowed.p50, p50),
              agreement(windowed.p99, p99),
              scrape_total_ms / static_cast<double>(scrapes));
  if (profiler_overhead > 0.0) {
    std::printf("  profiler overhead ratio %.4f (99 Hz, single client)\n",
                profiler_overhead);
  }

  int rc = reporter.Finish();
  if (rc == 0) rc = FinishProfile(args);
  if (total_failures > 0) {
    std::fprintf(stderr, "FAIL: %llu requests failed\n",
                 static_cast<unsigned long long>(total_failures));
    rc = 1;
  }
  for (size_t p = 0; p < offered_qps.size(); ++p) {
    if (open_loop[p].succeeded != open_loop[p].issued) {
      std::fprintf(stderr,
                   "FAIL: open loop @%.0f qps: %llu of %llu requests "
                   "failed\n",
                   offered_qps[p],
                   static_cast<unsigned long long>(open_loop[p].issued -
                                                   open_loop[p].succeeded),
                   static_cast<unsigned long long>(open_loop[p].issued));
      rc = 1;
    }
  }
  if (batcher.max_batch_observed() < 2) {
    std::fprintf(stderr,
                 "FAIL: batching never engaged (max batch %llu)\n",
                 static_cast<unsigned long long>(
                     batcher.max_batch_observed()));
    rc = 1;
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "FAIL: batched embeddings differ from direct\n");
    rc = 1;
  }
  if (scrape_failures > 0) {
    std::fprintf(stderr, "FAIL: %zu metricsz scrapes failed\n",
                 scrape_failures);
    rc = 1;
  }
  if (agreement(windowed.p99, p99) < 0.9) {
    std::fprintf(stderr,
                 "FAIL: windowed p99 %.4f disagrees with lifetime %.4f\n",
                 windowed.p99, p99);
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace rll::bench

int main(int argc, char** argv) {
  const std::vector<double> offered_qps =
      rll::bench::ParseOfferedQps(argc, argv);
  return rll::bench::RunHarness(
      argc, argv,
      [&](const rll::bench::BenchArgs& args) {
        return rll::bench::Run(args, offered_qps);
      },
      {"--offered-qps"});
}
