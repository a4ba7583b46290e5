#include "report.h"

#include <cstdio>
#include <cstdlib>

#include "obs/json_util.h"

namespace perfbench {

const std::vector<MetricDef>& MetricCatalogue() {
  static const std::vector<MetricDef> kCatalogue = {
      // End to end: what a caller of the library or the server sees.
      {"setup_s", "s", true},
      {"train_s", "s", true},
      {"accuracy", "ratio", true},
      {"f1", "ratio", true},
      {"throughput_per_s", "1/s", true},
      {"latency_p50_ms", "ms", true},
      {"latency_p99_ms", "ms", true},
      {"success_frac", "ratio", true},
      // Training layers (train_cv).
      {"tensor.gemm_cpu_frac", "ratio", false},
      {"tensor.map_cpu_frac", "ratio", false},
      {"autograd.cpu_frac", "ratio", false},
      {"nn.adam_cpu_frac", "ratio", false},
      {"tensor.gemm_gflops", "GFLOP/s", false},
      {"core.train_ms", "ms", false},
      {"core.groups_per_s", "1/s", false},
      {"core.epoch_ms", "ms", false},
      {"core.batch_ms", "ms", false},
      {"crowd.confidence_ms", "ms", false},
      {"data.fold_prep_ms", "ms", false},
      {"nn.embed_ms", "ms", false},
      {"classify.lr_fit_ms", "ms", false},
      {"classify.predict_ms", "ms", false},
      {"common.pool_busy_frac", "ratio", false},
      {"obs.allocs_per_group", "count", false},
      {"train.unattributed_frac", "ratio", false},
      // Serving layers (serve_hot).
      {"serve.handle_line_us.embed", "us", false},
      {"serve.handle_line_us.predict", "us", false},
      {"serve.handle_line_us.neighbors", "us", false},
      {"serve.parse_us", "us", false},
      {"serve.standardize_us", "us", false},
      {"serve.serialize_us", "us", false},
      {"serve.cache_hit_frac", "ratio", false},
      {"serve.cache_lookup_us", "us", false},
      {"serve.batch_rows_mean", "count", false},
      {"serve.batcher_rejected", "count", false},
      {"serve.batcher_wait_us", "us", false},
      {"nn.embed_row_us", "us", false},
      {"core.index_query_us", "us", false},
      {"classify.predict_us", "us", false},
      {"event.transport_us", "us", false},
      {"event.shard_line_imbalance", "ratio", false},
      {"obs.allocs_per_request", "count", false},
      {"serve.unattributed_frac", "ratio", false},
      // Model swaps and admin reads next to the data path (the cold phase
      // of serve_hot's traced run).
      {"serve.cold_latency_p50_ms", "ms", false},
      {"serve.cold_latency_p99_ms", "ms", false},
      {"serve.reload_ms", "ms", false},
      {"core.bundle_load_ms", "ms", false},
      {"nn.corpus_embed_ms", "ms", false},
      {"classify.head_fit_ms", "ms", false},
      {"core.index_build_ms", "ms", false},
      {"obs.metricsz_us", "us", false},
      {"serve.p99_in_reload_ms", "ms", false},
      {"serve.p99_outside_reload_ms", "ms", false},
      // Validity of the measurement itself: reported, never gated.
      {"bench.generator_lag_p99_ms", "ms", false},
      {"bench.generator_lag_max_ms", "ms", false},
      {"bench.timer_overshoot_p999_ms", "ms", false},
      {"bench.tracing_overhead_ratio", "ratio", false},
  };
  return kCatalogue;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + rll::obs::JsonNumber(values[i]);
  }
  return out + "]";
}

void Report::Set(const std::string& name, double value, uint64_t samples) {
  for (const MetricDef& def : MetricCatalogue()) {
    if (name == def.name) {
      values_[name] = {value, samples};
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
  std::abort();
}

void Report::Info(const std::string& key, const std::string& json_value) {
  info_.emplace_back(key, json_value);
}

void Report::InfoNumber(const std::string& key, double value) {
  Info(key, rll::obs::JsonNumber(value));
}

void Report::InfoString(const std::string& key, const std::string& value) {
  Info(key, "\"" + rll::obs::JsonEscape(value) + "\"");
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::printf("# CHECK FAILED: %s\n", what.c_str());
}

void Report::CountOperations(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Report::Print() const {
  if (attempted_ == 0) {
    std::fprintf(stderr, "perfbench: the run attempted no operation\n");
    return false;
  }
  std::string metrics;
  std::string samples;
  std::string not_exercised;
  for (const MetricDef& def : MetricCatalogue()) {
    if (def.end_to_end == trace_) continue;
    const auto it = values_.find(def.name);
    Value v;
    if (it != values_.end()) {
      v = it->second;
    } else if (def.end_to_end && correct_) {
      // A run whose checks passed must have measured everything.
      std::fprintf(stderr, "perfbench: end-to-end metric %s not measured\n",
                   def.name);
      return false;
    } else {
      not_exercised += std::string(not_exercised.empty() ? "" : ",") + "\"" +
                       def.name + "\"";
    }
    const std::string sep = metrics.empty() ? "" : ", ";
    metrics += sep + "\"" + def.name + "\": {\"value\": " +
               rll::obs::JsonNumber(v.value) + ", \"unit\": \"" + def.unit +
               "\"}";
    samples += sep + "\"" + def.name + "\": " + std::to_string(v.samples);
  }

  std::string info = "{\"samples\": {" + samples + "}, \"not_exercised\": [" +
                     not_exercised + "]";
  for (const auto& [key, value] : info_) {
    info += ", \"" + key + "\": " + value;
  }
  info += "}";
  std::printf("info %s\n", info.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct_ ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace perfbench
