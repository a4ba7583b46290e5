// serve_hot: the trained embedding served over loopback TCP.
//
// Set-up trains models on oral-sim with the paper options, one at a time
// on one thread, then — repeated, the median being setup_s — saves and
// reloads two bundles, creates the ServerCore with the first and the
// corpus, starts a ReloadManager and an EventServer with 2 shards, and
// connects 4 non-blocking client connections. Every other server option
// keeps its library default (batch 32, 200 µs linger, cache 1024), so a
// change of default shows in the numbers.
//
// One generator thread drives the 4 connections in a closed loop; half of
// the requests repeat a 64-row hot set, the rest are unique jittered
// corpus rows; latency is send → response. The untraced run splits the
// loop into segments, sets the server up afresh before each and trains
// models after each (the median training is train_s). The traced run ends
// with the
// cold phase (RunColdPhase): open loop at a fixed Poisson rate, every row
// unique, latency from the scheduled arrival, with reloads and metric
// scrapes next to the reads. Both use the mix 50% embed / 25% predict /
// 25% neighbors.
//
// Every answer is checked afterwards: embed bitwise against
// ModelBundle::Embed of the generation that served it, predict bitwise
// against a head fit the same way the server fits it, neighbors against a
// brute-force cosine scan done here.

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "baselines/registry.h"
#include "classify/logistic_regression.h"
#include "classify/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/threading.h"
#include "core/model_bundle.h"
#include "core/rll_trainer.h"
#include "core/sharded_index.h"
#include "crowd/confidence.h"
#include "data/standardize.h"
#include "obs/alloc_count.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "serve/batcher.h"
#include "serve/cache.h"
#include "serve/event/event_server.h"
#include "serve/event/reload_manager.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server_core.h"
#include "stats.h"
#include "wire_client.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rll::Matrix;
using rll::Rng;
using rll::Stopwatch;
namespace serve = rll::serve;

constexpr size_t kConnections = 4;
constexpr size_t kShards = 2;
constexpr size_t kHotRows = 64;
constexpr double kHotShare = 0.5;
/// The cold phase's offered rate: about half the cold-path capacity of the
/// commit that introduced the benchmark on a 4-core host.
constexpr double kColdRatePerS = 2000.0;
constexpr double kReloadEveryS = 5.0;
constexpr double kMetricszEveryS = 0.5;
/// Jitter of a unique row, as a share of each column's standard deviation.
constexpr double kJitter = 0.05;
/// The untraced run's closed loop is split into this many segments, each
/// on a freshly set-up server, with models trained between them: set-up
/// and training are then timed across the whole run (as train_cv's passes
/// are), not only at its start. The host's speed drifts over seconds, and
/// samples taken in one burst followed that drift.
constexpr size_t kSegments = 8;
/// Server set-ups timed before each segment (setup_s is their median).
constexpr int kSetupRepeats = 3;
/// Latency percentiles are taken per window of this length, then the
/// median over windows is reported.
constexpr double kWindowS = 0.5;
/// Stage-sum bound for serve_hot: in-process HandleLine minus its
/// separately timed parts, as a share of HandleLine.
constexpr double kServeStageBound = 0.30;
constexpr size_t kMicroRows = 200;
constexpr double kNeighborTolerance = 1e-12;
/// The open-loop generator stops sleeping this long before a request is
/// due and polls instead.
constexpr double kSpinBeforeDueS = 100e-6;
/// Every kCheckStride-th answer is checked in full (and every predict).
constexpr int64_t kCheckStride = 8;
/// Request records reserved per second of closed-loop load (about twice
/// the closed-loop rate on a 4-core host): growing the log mid-run would
/// copy it on the generator thread and show as latency.
constexpr double kClosedReservePerS = 16000.0;

enum RequestKind : uint8_t { kEmbed = 0, kPredict = 1, kNeighbors = 2 };
constexpr const char* kKindNames[] = {"embed", "predict", "neighbors"};

double NowS(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ------------------------------------------------------------ requests

struct Planned {
  RequestKind kind = kEmbed;
  bool hot = false;
  uint32_t row = 0;
  std::vector<double> features;
};

/// Deterministic request sequence for one seed: kind mix, hot/unique draw
/// and jitter all come from one stream.
class RequestStream {
 public:
  RequestStream(const rll::data::Dataset& corpus, uint64_t seed, bool hot)
      : corpus_(corpus), rng_(seed), hot_(hot) {
    Rng pick(rll::SplitSeed(seed, 1));
    hot_rows_ = pick.SampleWithoutReplacement(corpus.size(), kHotRows);
    const Matrix& x = corpus.features();
    col_sd_.assign(x.cols(), 0.0);
    for (size_t c = 0; c < x.cols(); ++c) {
      double mean = 0, sq = 0;
      for (size_t r = 0; r < x.rows(); ++r) mean += x(r, c);
      mean /= x.rows();
      for (size_t r = 0; r < x.rows(); ++r) sq += (x(r, c) - mean) * (x(r, c) - mean);
      col_sd_[c] = std::sqrt(sq / x.rows());
    }
  }

  Planned Next() {
    Planned p;
    const double u = rng_.Uniform();
    p.kind = u < 0.5 ? kEmbed : (u < 0.75 ? kPredict : kNeighbors);
    const Matrix& x = corpus_.features();
    if (hot_ && rng_.Bernoulli(kHotShare)) {
      p.hot = true;
      p.row = static_cast<uint32_t>(hot_rows_[rng_.UniformInt(kHotRows)]);
      p.features.assign(x.row_data(p.row), x.row_data(p.row) + x.cols());
    } else {
      p.row = static_cast<uint32_t>(rng_.UniformInt(corpus_.size()));
      p.features.resize(x.cols());
      for (size_t c = 0; c < x.cols(); ++c) {
        p.features[c] = x(p.row, c) + rng_.Normal(0.0, kJitter * col_sd_[c]);
      }
    }
    return p;
  }

  const std::vector<size_t>& hot_rows() const { return hot_rows_; }

 private:
  const rll::data::Dataset& corpus_;
  Rng rng_;
  bool hot_;
  std::vector<size_t> hot_rows_;
  std::vector<double> col_sd_;
};

std::string RequestLine(uint64_t id, const Planned& p) {
  std::string line = "{\"id\":" + std::to_string(id) + ",\"type\":\"" +
                     kKindNames[p.kind] + "\",\"features\":[";
  for (size_t c = 0; c < p.features.size(); ++c) {
    if (c > 0) line += ',';
    line += rll::obs::JsonNumber(p.features[c]);
  }
  return line + "]}";
}

// --------------------------------------------------------------- server

/// Bundles saved in set-up: the first is served, the cold phase of the
/// traced run reloads between the two. They are trained first, after one
/// untimed warm-up training (the process's first training pays for arena
/// growth and page faults).
constexpr size_t kServedBundles = 2;
/// Trainings timed after each segment of the untraced run. train_s is the
/// interquartile mean of all timed trainings: one-thread trainings of the
/// same model took 0.5 s to 0.95 s within one run as the host's speed
/// moved in phases of seconds, and the mean over phases is steadier than
/// the median of a few of them.
constexpr size_t kTrainingsPerSegment = 1;

/// Trains models on the whole corpus with the paper options, one after
/// another on one pool thread. Four concurrent trainings measured how a
/// shared 4-vCPU host splits its cores (0.58 s to 4.1 s per model from one
/// run to the next), not the trainer. The first `warmup` trainings are not
/// timed; train_s holds the wall time of each timed one.
class BundleTrainer {
 public:
  BundleTrainer(const rll::data::Dataset& corpus, uint64_t seed)
      : options_(rll::baselines::DefaultRegistryOptions().rll.trainer),
        seed_(seed) {
    x_ = standardizer_.FitTransform(corpus.features());
    rll::data::Dataset std_corpus(x_, corpus.true_labels());
    for (size_t i = 0; i < corpus.size(); ++i) {
      for (const rll::data::Annotation& a : corpus.annotations(i)) {
        std_corpus.AddAnnotation(i, a);
      }
    }
    labels_ = std_corpus.MajorityVoteLabels();
    confidence_ = rll::crowd::LabelConfidence(
        std_corpus, labels_, options_.confidence_mode, options_.prior_strength);
  }

  rll::Status Train(size_t warmup, size_t timed) {
    const size_t threads = rll::GlobalThreadCount();
    rll::SetGlobalThreads(1);
    rll::Status status;
    for (size_t b = 0; b < warmup + timed && status.ok(); ++b) {
      Stopwatch t;
      Rng rng(rll::SplitSeed(seed_, 200 + trained_++));
      rll::core::RllTrainer trainer(options_, &rng);
      status = trainer.Train(x_, labels_, confidence_).status();
      if (!status.ok()) break;
      auto bundle =
          rll::core::ModelBundle::Create(standardizer_, trainer.model(), &rng);
      status = bundle.status();
      if (!status.ok() || b < warmup) continue;
      train_s.push_back(t.ElapsedSeconds());
      bundles.push_back(*std::move(bundle));
    }
    rll::SetGlobalThreads(threads);
    return status;
  }

  std::vector<rll::core::ModelBundle> bundles;
  std::vector<double> train_s;

 private:
  const rll::core::RllTrainerOptions options_;
  const uint64_t seed_;
  rll::data::Standardizer standardizer_;
  Matrix x_;
  std::vector<int> labels_;
  std::vector<double> confidence_;
  uint64_t trained_ = 0;
};

/// A running server and the client's connections to it. Stop() tears it
/// down in reverse order and waits for every thread.
struct Server {
  std::unique_ptr<serve::ServerCore> core;
  std::unique_ptr<serve::ReloadManager> reloads;
  std::unique_ptr<serve::EventServer> events;
  std::thread accept_thread;
  std::vector<std::unique_ptr<LineConnection>> conns;

  ~Server() { Stop(); }

  void Stop() {
    conns.clear();
    if (events != nullptr) events->Stop();
    if (accept_thread.joinable()) accept_thread.join();
    events.reset();
    if (reloads != nullptr) reloads->Stop();
    if (core != nullptr) core->Shutdown();
    reloads.reset();
    core.reset();
  }
};

/// The set-up being timed: Save→Load of every bundle, ServerCore::Create,
/// ReloadManager and EventServer start, and the client connections.
rll::Result<std::unique_ptr<Server>> StartServer(
    const std::vector<rll::core::ModelBundle>& bundles,
    const std::vector<std::string>& paths,
    const rll::data::Dataset& corpus) {
  auto server = std::make_unique<Server>();
  std::vector<rll::core::ModelBundle> loaded;
  for (size_t b = 0; b < paths.size(); ++b) {
    RLL_RETURN_IF_ERROR(bundles[b].Save(paths[b]));
    RLL_ASSIGN_OR_RETURN(rll::core::ModelBundle bundle,
                         rll::core::ModelBundle::Load(paths[b]));
    loaded.push_back(std::move(bundle));
  }
  serve::ServerCoreOptions core_options;
  core_options.shards = kShards;  // One index shard per event worker.
  RLL_ASSIGN_OR_RETURN(server->core,
                       serve::ServerCore::Create(std::move(loaded[0]), &corpus,
                                                 core_options, paths[0]));
  server->reloads = std::make_unique<serve::ReloadManager>(
      server->core.get(), serve::ReloadManagerOptions{});
  server->reloads->Start();
  serve::ReloadManager* reloads = server->reloads.get();
  server->core->SetReloadRequestHandler(
      [reloads](const std::string& path) { return reloads->RequestReload(path); });
  serve::EventServerOptions event_options;
  event_options.shards = kShards;
  server->events =
      std::make_unique<serve::EventServer>(event_options, server->core.get());
  RLL_RETURN_IF_ERROR(server->events->Start());
  serve::EventServer* events = server->events.get();
  server->accept_thread = std::thread([events] { (void)events->Serve(); });
  for (size_t c = 0; c < kConnections; ++c) {
    auto conn = std::make_unique<LineConnection>();
    RLL_RETURN_IF_ERROR(conn->Connect(events->port()));
    server->conns.push_back(std::move(conn));
  }
  return server;
}

// ------------------------------------------------------------ generator

struct Record {
  Planned plan;  // Features kept only for checked requests.
  double due_s = 0;   // Scheduled arrival (open loop) or send time.
  double send_s = 0;
  double recv_s = -1;  // -1: unanswered.
  bool ok = false;
  /// Answer kept and checked in full: every predict (short, and needed for
  /// accuracy) and every kCheckStride-th request; the others are checked
  /// for "ok" only, which keeps the run's memory small.
  bool checked = false;
  std::string response;
};

struct AdminRecord {
  bool reload = false;
  double send_s = 0;
  double recv_s = -1;
  double swapped_s = -1;  // Reloads: when generation() advanced.
  std::string response;
};

struct LoadLog {
  std::vector<Record> records;
  std::vector<AdminRecord> admin;
  /// [reloadz sent, new generation visible] per completed reload.
  std::vector<std::pair<double, double>> reload_windows;
  std::vector<double> lag_ms;  // Open loop: send − due.
  double seconds = 0;
  /// Generation serving when the load began (earlier loads may have
  /// reloaded).
  uint64_t start_generation = 1;
  std::string error;
};

/// Pending FIFO entries: data records are >= 0, admin records are
/// -(index + 1).
using Pending = std::deque<int64_t>;

class Generator {
 public:
  Generator(Server* server, RequestStream* stream,
            const std::vector<std::string>& bundle_paths)
      : server_(server), stream_(stream), paths_(bundle_paths),
        pending_(kConnections) {}

  /// Closed loop: every connection keeps one request in flight.
  LoadLog RunClosed(double seconds) {
    log_ = LoadLog{};
    log_.records.reserve(static_cast<size_t>(seconds * kClosedReservePerS));
    log_.seconds = seconds;
    log_.start_generation = server_->core->generation();
    start_ = std::chrono::steady_clock::now();
    for (size_t c = 0; c < kConnections; ++c) IssueData(c, NowS(start_));
    while (log_.error.empty()) {
      const double now = NowS(start_);
      const bool done = now >= seconds;
      if (done && InFlight() == 0) break;
      if (done && now > seconds + 5.0) break;  // Unanswered stay -1.
      Poll(10 * 1000 * 1000L, [&](size_t c) {
        if (NowS(start_) < seconds) IssueData(c, NowS(start_));
      });
    }
    return std::move(log_);
  }

  /// Open loop at `schedule`, with reloads and scrapes on their cadences.
  LoadLog RunOpen(const std::vector<double>& schedule, double seconds) {
    log_ = LoadLog{};
    log_.records.reserve(schedule.size());
    log_.lag_ms.reserve(schedule.size());
    log_.seconds = seconds;
    log_.start_generation = server_->core->generation();
    start_ = std::chrono::steady_clock::now();
    size_t next = 0;
    double next_reload = kReloadEveryS / 2;
    double next_scrape = kMetricszEveryS / 4;
    int64_t reload_in_flight = -1;
    uint64_t want_generation = 0;
    while (log_.error.empty()) {
      double now = NowS(start_);
      while (next < schedule.size() && schedule[next] <= now) {
        IssueData(next % kConnections, schedule[next]);
        log_.lag_ms.push_back((NowS(start_) - schedule[next]) * 1e3);
        ++next;
      }
      if (reload_in_flight < 0 && now >= next_reload && now < seconds) {
        // Generation g serves bundle (g − 1) mod 2, across loads too.
        want_generation = server_->core->generation() + 1;
        const std::string& path =
            paths_[(want_generation - 1) % paths_.size()];
        reload_in_flight = IssueAdmin(
            0, true, "{\"id\":\"reload\",\"type\":\"reloadz\",\"action\":"
                     "\"reload\",\"path\":\"" +
                         rll::obs::JsonEscape(path) + "\"}");
        next_reload += kReloadEveryS;
      }
      if (reload_in_flight >= 0 &&
          server_->core->generation() >= want_generation) {
        AdminRecord& r = log_.admin[reload_in_flight];
        r.swapped_s = NowS(start_);
        log_.reload_windows.emplace_back(r.send_s, r.swapped_s);
        reload_in_flight = -1;
      }
      if (now >= next_scrape && now < seconds) {
        IssueAdmin(1, false, "{\"id\":\"scrape\",\"type\":\"metricsz\"}");
        next_scrape += kMetricszEveryS;
      }
      const bool done = next == schedule.size();
      if (done && InFlight() == 0 && reload_in_flight < 0) break;
      if (done && now > seconds + 5.0) break;
      // Sleep until shortly before the next due event, then poll the
      // sockets without sleeping until it is due, so the generator's own
      // wake-up lateness stays out of the latencies. The generation is
      // polled every 200 µs while a reload is being built.
      double wake = seconds + 5.0;
      if (next < schedule.size()) wake = schedule[next];
      if (now < seconds) wake = std::min({wake, next_reload, next_scrape});
      if (reload_in_flight >= 0) wake = std::min(wake, now + 200e-6);
      now = NowS(start_);
      const long wait_ns = std::clamp<long>(
          static_cast<long>((wake - now - kSpinBeforeDueS) * 1e9), 0,
          10000000L);
      Poll(wait_ns, nullptr);
    }
    return std::move(log_);
  }

 private:
  size_t InFlight() const {
    size_t n = 0;
    for (const Pending& p : pending_) n += p.size();
    return n;
  }

  void IssueData(size_t c, double due_s) {
    Record r;
    r.plan = stream_->Next();
    r.due_s = due_s;
    const int64_t id = static_cast<int64_t>(log_.records.size());
    const std::string line = RequestLine(static_cast<uint64_t>(id), r.plan);
    r.checked = id % kCheckStride == 0 || r.plan.kind == kPredict;
    if (!r.checked) std::vector<double>().swap(r.plan.features);
    r.send_s = NowS(start_);
    log_.records.push_back(std::move(r));
    pending_[c].push_back(id);
    const rll::Status sent = server_->conns[c]->Send(line);
    if (!sent.ok()) log_.error = sent.ToString();
  }

  int64_t IssueAdmin(size_t c, bool reload, const std::string& line) {
    AdminRecord r;
    r.reload = reload;
    r.send_s = NowS(start_);
    log_.admin.push_back(r);
    const int64_t index = static_cast<int64_t>(log_.admin.size()) - 1;
    pending_[c].push_back(-(index + 1));
    const rll::Status sent = server_->conns[c]->Send(line);
    if (!sent.ok()) log_.error = sent.ToString();
    return index;
  }

  /// Waits up to `wait_ns` for responses, matches them to the pending
  /// requests of their connection (responses on one connection come back
  /// in order), and calls on_data(c) after each data response.
  template <typename OnData>
  void Poll(long wait_ns, OnData on_data) {
    pollfd fds[kConnections];
    for (size_t c = 0; c < kConnections; ++c) {
      fds[c] = {server_->conns[c]->fd(),
                static_cast<short>(POLLIN | (server_->conns[c]->wants_write()
                                                 ? POLLOUT
                                                 : 0)),
                0};
    }
    const timespec wait{wait_ns / 1000000000L, wait_ns % 1000000000L};
    if (::ppoll(fds, kConnections, &wait, nullptr) <= 0) return;
    for (size_t c = 0; c < kConnections; ++c) {
      if (fds[c].revents == 0) continue;
      LineConnection& conn = *server_->conns[c];
      rll::Status st = conn.Flush();
      std::vector<std::string> lines;
      if (st.ok() && (fds[c].revents & (POLLIN | POLLHUP | POLLERR))) {
        st = conn.ReadLines(&lines);
      }
      const double now = NowS(start_);
      for (std::string& line : lines) {
        if (pending_[c].empty()) {
          log_.error = "response with no request pending";
          return;
        }
        const int64_t id = pending_[c].front();
        pending_[c].pop_front();
        if (id >= 0) {
          Record& r = log_.records[id];
          r.recv_s = now;
          r.ok = line.find("\"ok\":true") != std::string::npos;
          if (r.checked) r.response = std::move(line);
          if constexpr (!std::is_same_v<OnData, std::nullptr_t>) on_data(c);
        } else {
          AdminRecord& a = log_.admin[-id - 1];
          a.recv_s = now;
          a.response = std::move(line);
        }
      }
      if (!st.ok()) log_.error = st.ToString();
    }
  }

  Server* server_;
  RequestStream* stream_;
  std::vector<std::string> paths_;
  std::vector<Pending> pending_;
  std::chrono::steady_clock::time_point start_;
  LoadLog log_;
};

// --------------------------------------------------------------- checks

/// What a bundle generation must answer.
struct Expectation {
  rll::core::ModelBundle bundle;
  Matrix unit_corpus;  // Corpus embeddings, rows scaled to unit norm.
  rll::classify::LogisticRegression head;
};

Matrix UnitRows(const Matrix& m) {
  Matrix out = m;
  for (size_t r = 0; r < out.rows(); ++r) {
    double norm = 0.0;
    for (size_t c = 0; c < out.cols(); ++c) norm += out(r, c) * out(r, c);
    norm = std::max(std::sqrt(norm), 1e-12);
    for (size_t c = 0; c < out.cols(); ++c) out(r, c) /= norm;
  }
  return out;
}

rll::Result<Expectation> MakeExpectation(const std::string& path,
                                         const rll::data::Dataset& corpus) {
  RLL_ASSIGN_OR_RETURN(rll::core::ModelBundle bundle,
                       rll::core::ModelBundle::Load(path));
  RLL_ASSIGN_OR_RETURN(Matrix embeddings, bundle.Embed(corpus.features()));
  Expectation e{std::move(bundle), UnitRows(embeddings),
                rll::classify::LogisticRegression()};
  RLL_RETURN_IF_ERROR(e.head.Fit(embeddings, corpus.true_labels()));
  return e;
}

/// Checks one data answer against one generation; "" when it matches.
std::string CheckAnswer(const Planned& plan, const serve::JsonValue& resp,
                        const Expectation& e,
                        const rll::data::Dataset& corpus) {
  auto embedded = e.bundle.Embed(Matrix::RowVector(plan.features));
  if (!embedded.ok()) return "reference embed failed";
  const Matrix& emb = *embedded;
  switch (plan.kind) {
    case kEmbed: {
      const serve::JsonValue* v = resp.Find("embedding");
      if (v == nullptr || !v->is_array() || v->array.size() != emb.size()) {
        return "embedding missing or of the wrong size";
      }
      for (size_t i = 0; i < emb.size(); ++i) {
        if (v->array[i].number != emb[i]) return "embedding differs";
      }
      return "";
    }
    case kPredict: {
      const double score = e.head.PredictProba(emb)[0];
      const serve::JsonValue* s = resp.Find("score");
      const serve::JsonValue* l = resp.Find("label");
      if (s == nullptr || l == nullptr) return "score or label missing";
      if (s->number != score) return "score differs";
      if (static_cast<int>(l->number) != (score >= 0.5 ? 1 : 0)) {
        return "label differs";
      }
      return "";
    }
    case kNeighbors: {
      const Matrix q = UnitRows(emb);
      std::vector<std::pair<double, size_t>> scan(e.unit_corpus.rows());
      for (size_t r = 0; r < e.unit_corpus.rows(); ++r) {
        double dot = 0.0;
        for (size_t c = 0; c < q.cols(); ++c) dot += q[c] * e.unit_corpus(r, c);
        scan[r] = {dot, r};
      }
      std::sort(scan.begin(), scan.end(), [](const auto& a, const auto& b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
      });
      const serve::JsonValue* v = resp.Find("neighbors");
      if (v == nullptr || !v->is_array()) return "neighbors missing";
      const size_t k = std::min<size_t>(5, scan.size());
      if (v->array.size() != k) return "wrong neighbor count";
      for (size_t j = 0; j < k; ++j) {
        const serve::JsonValue* idx = v->array[j].Find("index");
        const serve::JsonValue* sim = v->array[j].Find("similarity");
        const serve::JsonValue* lab = v->array[j].Find("label");
        if (idx == nullptr || sim == nullptr || lab == nullptr) {
          return "neighbor fields missing";
        }
        const size_t index = static_cast<size_t>(idx->number);
        if (index >= scan.size()) return "neighbor index out of range";
        // The j-th answer must have the j-th best similarity, and its own
        // similarity must be what the scan computes for that row.
        double own = 0.0;
        for (size_t c = 0; c < q.cols(); ++c) own += q[c] * e.unit_corpus(index, c);
        if (std::fabs(sim->number - scan[j].first) > kNeighborTolerance ||
            std::fabs(sim->number - own) > kNeighborTolerance) {
          return "neighbor similarity differs from the scan";
        }
        if (static_cast<int>(lab->number) != corpus.true_label(index)) {
          return "neighbor label differs";
        }
      }
      return "";
    }
  }
  return "unknown kind";
}

struct LoadSummary {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t checked = 0;
  uint64_t check_failures = 0;
  std::string first_failure;
  std::vector<double> window_p50, window_p99, window_count;
  std::vector<double> latencies_ms;
  size_t latency_samples = 0;
  std::vector<int> truth, predicted;  // Unique-row predict answers.
};

/// Adds one segment's summary to the run's.
void Append(LoadSummary part, LoadSummary* run) {
  run->attempted += part.attempted;
  run->ok += part.ok;
  run->checked += part.checked;
  run->check_failures += part.check_failures;
  if (run->first_failure.empty()) run->first_failure = part.first_failure;
  const auto append = [](auto& from, auto* to) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(part.window_p50, &run->window_p50);
  append(part.window_p99, &run->window_p99);
  append(part.window_count, &run->window_count);
  append(part.latencies_ms, &run->latencies_ms);
  run->latency_samples += part.latency_samples;
  append(part.truth, &run->truth);
  append(part.predicted, &run->predicted);
}

/// Parses and checks every answer, and reduces latencies to per-window
/// percentiles. `expect[g]` is the bundle that generation g+1 serves
/// (generations alternate between the bundles).
LoadSummary Summarize(const LoadLog& log,
                      const std::vector<Expectation>& expect,
                      const rll::data::Dataset& corpus) {
  LoadSummary s;
  const size_t windows = static_cast<size_t>(log.seconds / kWindowS);
  std::vector<std::vector<double>> per_window(std::max<size_t>(windows, 1));
  for (const Record& r : log.records) {
    ++s.attempted;
    if (r.recv_s < 0 || !r.ok) continue;
    ++s.ok;
    const double latency_ms = (r.recv_s - r.due_s) * 1e3;
    s.latencies_ms.push_back(latency_ms);
    const size_t w = static_cast<size_t>(r.due_s / kWindowS);
    if (w < windows) per_window[w].push_back(latency_ms);
    if (!r.checked) continue;
    ++s.checked;
    auto parsed = serve::ParseJson(r.response);
    if (!parsed.ok()) {
      ++s.check_failures;
      continue;
    }

    // Which generation answered: fixed unless a reload overlapped the
    // request, in which case either neighbour generation may have.
    size_t before = log.start_generation - 1;
    bool overlaps = false;
    for (const auto& [from, to] : log.reload_windows) {
      if (to < r.send_s) ++before;
      if (from <= r.recv_s && to >= r.send_s) overlaps = true;
    }
    std::string why = CheckAnswer(r.plan, *parsed,
                                  expect[before % expect.size()], corpus);
    if (!why.empty() && overlaps && expect.size() > 1) {
      const std::string other = CheckAnswer(
          r.plan, *parsed, expect[(before + 1) % expect.size()], corpus);
      if (other.empty()) why.clear();
    }
    if (!why.empty()) {
      ++s.check_failures;
      if (s.first_failure.empty()) {
        s.first_failure = std::string(kKindNames[r.plan.kind]) + " request " +
                          std::to_string(&r - log.records.data()) + ": " + why;
      }
    }
    if (r.plan.kind == kPredict && !r.plan.hot) {
      s.truth.push_back(corpus.true_label(r.plan.row));
      s.predicted.push_back(
          static_cast<int>(parsed->Find("label")->number));
    }
  }
  for (const std::vector<double>& w : per_window) {
    if (w.empty()) continue;
    s.window_p50.push_back(Quantile(w, 0.5));
    s.window_p99.push_back(Quantile(w, 0.99));
    s.window_count.push_back(static_cast<double>(w.size()));
    s.latency_samples += w.size();
  }
  return s;
}

/// Admin answers must all be ok, and every reload must have completed.
void CheckAdmin(const LoadLog& log, Server* server, Report* report) {
  size_t reloads = 0;
  for (const AdminRecord& a : log.admin) {
    report->Check(a.recv_s >= 0 && a.response.find("\"ok\":true") !=
                                       std::string::npos,
                  std::string(a.reload ? "reloadz" : "metricsz") +
                      " answer: " + a.response.substr(0, 200));
    if (a.reload) ++reloads;
  }
  report->Check(log.reload_windows.size() == reloads,
                "a reload did not complete during the run");
  report->Check(server->core->reload_failures() == 0,
                "the server recorded a failed reload");
}

// ------------------------------------------------------- layer probes

template <typename Fn>
double MedianMicros(size_t reps, Fn fn) {
  std::vector<double> us;
  us.reserve(reps);
  for (size_t i = 0; i < reps; ++i) {
    Stopwatch t;
    fn(i);
    us.push_back(t.ElapsedMicros());
  }
  return Median(us);
}

/// Per-type and per-stage costs of one request, measured in process with
/// one caller: the live ServerCore's HandleLine, and each of its parts
/// called through its own public entry point.
void ProbeServingLayers(Server* server, const Expectation& e,
                        const rll::data::Dataset& corpus,
                        const RequestStream& hot_source, uint64_t seed,
                        Report* report) {
  RequestStream unique(corpus, rll::SplitSeed(seed, 77), false);
  std::vector<Planned> plans;
  for (size_t i = 0; i < 3 * kMicroRows; ++i) {
    Planned p = unique.Next();
    p.kind = static_cast<RequestKind>(i % 3);
    plans.push_back(std::move(p));
  }
  std::vector<std::string> lines;
  for (size_t i = 0; i < plans.size(); ++i) lines.push_back(RequestLine(i, plans[i]));

  serve::ServerCore* core = server->core.get();
  double handle_us[3];
  const uint64_t allocs_before = rll::obs::AllocationCount();
  for (int k = 0; k < 3; ++k) {
    handle_us[k] = MedianMicros(kMicroRows, [&](size_t i) {
      core->HandleLine(lines[3 * i + k]);
    });
  }
  const double allocs = static_cast<double>(rll::obs::AllocationCount() -
                                            allocs_before);
  report->Set("obs.allocs_per_request", allocs / plans.size(), plans.size());
  report->Set("serve.handle_line_us.embed", handle_us[kEmbed], kMicroRows);
  report->Set("serve.handle_line_us.predict", handle_us[kPredict], kMicroRows);
  report->Set("serve.handle_line_us.neighbors", handle_us[kNeighbors],
              kMicroRows);

  const double parse_us = MedianMicros(plans.size(), [&](size_t i) {
    std::string id;
    (void)serve::ParseRequest(lines[i], &id);
  });
  const rll::data::Standardizer& standardizer = e.bundle.standardizer();
  std::vector<Matrix> std_rows(plans.size());
  const double standardize_us = MedianMicros(plans.size(), [&](size_t i) {
    std_rows[i] = standardizer.Transform(Matrix::RowVector(plans[i].features));
  });

  // Cache probe on a full cache holding the hot rows, half hits as in
  // the load.
  serve::EmbeddingCache cache(serve::ServerCoreOptions{}.cache_capacity);
  std::vector<Matrix> hot_std;
  for (size_t r : hot_source.hot_rows()) {
    Matrix row = standardizer.Transform(corpus.features().Row(r));
    cache.Insert(serve::EmbeddingCache::HashRow(row), row,
                 e.bundle.model().Embed(row));
    hot_std.push_back(std::move(row));
  }
  const double cache_us = MedianMicros(plans.size(), [&](size_t i) {
    const Matrix& row =
        i % 2 == 0 ? hot_std[i % hot_std.size()] : std_rows[i];
    Matrix out;
    (void)cache.Lookup(serve::EmbeddingCache::HashRow(row), row, &out);
  });

  const rll::core::RllModel* model = &e.bundle.model();
  serve::MicroBatcher batcher(
      serve::MicroBatcherOptions{},
      serve::MicroBatcher::BatchIntoFn(
          [model](const Matrix& x, rll::Workspace& ws) -> const Matrix& {
            return model->EmbedInto(x, ws);
          }),
      nullptr);
  const double batcher_us = MedianMicros(plans.size(), [&](size_t i) {
    (void)batcher.Embed(std_rows[i]);
  });
  batcher.Stop();
  std::vector<Matrix> embs(plans.size());
  const double embed_us = MedianMicros(plans.size(), [&](size_t i) {
    embs[i] = model->Embed(std_rows[i]);
  });
  const double predict_us = MedianMicros(plans.size(), [&](size_t i) {
    (void)e.head.PredictProba(embs[i]);
  });
  rll::core::ShardedEmbeddingIndex index;
  auto corpus_emb = e.bundle.Embed(corpus.features());
  report->Check(corpus_emb.ok() && index.Build(*corpus_emb, kShards).ok(),
                "index build for the layer probe");
  const double index_us = MedianMicros(plans.size(), [&](size_t i) {
    (void)index.Query(embs[i], serve::ServerCoreOptions{}.default_k);
  });

  double serialize_us[3];
  for (int k = 0; k < 3; ++k) {
    serialize_us[k] = MedianMicros(kMicroRows, [&](size_t i) {
      serve::Response r;
      r.ok = true;
      r.has_type = true;
      r.id_json = std::to_string(3 * i + k);
      const Matrix& emb = embs[3 * i + k];
      if (k == kEmbed) {
        r.type = serve::RequestType::kEmbed;
        r.embedding.assign(emb.data(), emb.data() + emb.size());
      } else if (k == kPredict) {
        r.type = serve::RequestType::kPredict;
        r.score = 0.5;
      } else {
        r.type = serve::RequestType::kNeighbors;
        for (size_t j = 0; j < 5; ++j) r.neighbors.push_back({j, 1, 0.9});
      }
      (void)serve::SerializeResponse(r);
    });
  }

  report->Set("serve.parse_us", parse_us, plans.size());
  report->Set("serve.standardize_us", standardize_us, plans.size());
  report->Set("serve.cache_lookup_us", cache_us, plans.size());
  report->Set("serve.batcher_wait_us", batcher_us - embed_us, plans.size());
  report->Set("nn.embed_row_us", embed_us, plans.size());
  report->Set("classify.predict_us", predict_us, plans.size());
  report->Set("core.index_query_us", index_us, plans.size());
  report->Set("serve.serialize_us",
              (serialize_us[0] + serialize_us[1] + serialize_us[2]) / 3,
              3 * kMicroRows);

  // Stage sum: each type's parts against its HandleLine.
  double whole = 0, parts = 0;
  for (int k = 0; k < 3; ++k) {
    whole += handle_us[k];
    parts += parse_us + standardize_us + cache_us + batcher_us +
             serialize_us[k] + (k == kPredict ? predict_us : 0.0) +
             (k == kNeighbors ? index_us : 0.0);
  }
  const double unattributed = (whole - parts) / whole;
  report->Set("serve.unattributed_frac", unattributed, 3 * kMicroRows);
  report->InfoNumber("serve_stage_bound", kServeStageBound);
  report->Check(std::fabs(unattributed) <= kServeStageBound,
                "serving stages cover " + std::to_string(parts / whole) +
                    " of HandleLine (bound " +
                    std::to_string(kServeStageBound) + ")");

  report->Set("obs.metricsz_us", MedianMicros(20, [&](size_t) {
                core->HandleLine("{\"id\":1,\"type\":\"metricsz\"}");
              }),
              20);
}

/// Costs of the parts of a reload, each repeated and the median taken.
void ProbeReloadLayers(const std::string& path,
                       const rll::data::Dataset& corpus, Report* report) {
  constexpr int kReps = 5;
  std::vector<double> load, embed, fit, build;
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch t;
    auto bundle = rll::core::ModelBundle::Load(path);
    load.push_back(t.ElapsedMillis());
    if (!bundle.ok()) return report->Check(false, "bundle load in probe");
    t.Restart();
    auto emb = bundle->Embed(corpus.features());
    embed.push_back(t.ElapsedMillis());
    if (!emb.ok()) return report->Check(false, "corpus embed in probe");
    t.Restart();
    rll::classify::LogisticRegression head;
    report->Check(head.Fit(*emb, corpus.true_labels()).ok(), "head fit");
    fit.push_back(t.ElapsedMillis());
    t.Restart();
    rll::core::ShardedEmbeddingIndex index;
    report->Check(index.Build(*emb, kShards).ok(), "index build");
    build.push_back(t.ElapsedMillis());
  }
  report->Set("core.bundle_load_ms", Median(load), kReps);
  report->Set("nn.corpus_embed_ms", Median(embed), kReps);
  report->Set("classify.head_fit_ms", Median(fit), kReps);
  report->Set("core.index_build_ms", Median(build), kReps);
}

/// The cold path, run as the last phase of the traced run: open loop at a
/// fixed Poisson rate, every row unique (so every request pays for the
/// batcher linger), latency from the scheduled arrival, with a reloadz that
/// alternates between the two bundles every five seconds and a metricsz
/// scrape every half second next to the reads. Its figures are per-layer:
/// as an end-to-end workload its p99 spread by half of its median from run
/// to run on a shared 4-core host, more than any bound could allow.
template <typename FinishLoad>
void RunColdPhase(Server* server, const rll::data::Dataset& corpus,
                  const std::vector<std::string>& paths, uint64_t seed,
                  double seconds, const FinishLoad& finish_load,
                  Report* report) {
  RequestStream stream(corpus, rll::SplitSeed(seed, 6), /*hot=*/false);
  Generator generator(server, &stream, paths);
  const LoadLog log = generator.RunOpen(
      PoissonSchedule(rll::SplitSeed(seed, 9), kColdRatePerS, seconds),
      seconds);
  const LoadSummary s = finish_load(log);
  report->Set("serve.cold_latency_p50_ms", Median(s.window_p50),
              s.latency_samples);
  report->Set("serve.cold_latency_p99_ms", Median(s.window_p99),
              s.latency_samples);

  std::vector<double> reload_ms, in_reload, outside;
  for (const auto& [from, to] : log.reload_windows) {
    reload_ms.push_back((to - from) * 1e3);
  }
  for (const Record& r : log.records) {
    if (r.recv_s < 0) continue;
    bool in = false;
    for (const auto& [from, to] : log.reload_windows) {
      in = in || (r.due_s >= from && r.due_s <= to);
    }
    (in ? in_reload : outside).push_back((r.recv_s - r.due_s) * 1e3);
  }
  report->Set("serve.reload_ms", Median(reload_ms), reload_ms.size());
  report->Set("serve.p99_in_reload_ms", Quantile(in_reload, 0.99),
              in_reload.size());
  report->Set("serve.p99_outside_reload_ms", Quantile(outside, 0.99),
              outside.size());
  report->Set("bench.generator_lag_p99_ms", Quantile(log.lag_ms, 0.99),
              log.lag_ms.size());
  report->Set("bench.generator_lag_max_ms", Quantile(log.lag_ms, 1.0),
              log.lag_ms.size());
}

// ------------------------------------------------- server-side counters

struct ServerSnapshot {
  std::map<std::string, uint64_t> counters;
  double batch_sum = 0;
  uint64_t batch_count = 0;
  std::vector<uint64_t> latency_buckets;
  double latency_sum = 0;
  uint64_t latency_count = 0;
};

ServerSnapshot Snapshot() {
  auto& registry = rll::obs::MetricRegistry::Global();
  ServerSnapshot s;
  s.counters = registry.CounterValues();
  const rll::obs::Histogram* batch = registry.GetHistogram("serve_batch_size");
  s.batch_sum = batch->sum();
  s.batch_count = batch->count();
  for (const char* type : kKindNames) {
    const rll::obs::Histogram* h =
        registry.GetHistogram("serve_request_latency_ms", {{"type", type}});
    const std::vector<uint64_t> buckets = h->bucket_counts();
    if (s.latency_buckets.empty()) s.latency_buckets.assign(buckets.size(), 0);
    for (size_t b = 0; b < buckets.size(); ++b) s.latency_buckets[b] += buckets[b];
    s.latency_sum += h->sum();
    s.latency_count += h->count();
  }
  return s;
}

uint64_t CounterDelta(const ServerSnapshot& a, const ServerSnapshot& b,
                      const std::string& prefix, std::vector<uint64_t>* each) {
  uint64_t total = 0;
  for (const auto& [key, value] : b.counters) {
    if (key.rfind(prefix, 0) != 0) continue;
    const auto it = a.counters.find(key);
    const uint64_t d = value - (it == a.counters.end() ? 0 : it->second);
    if (each != nullptr) each->push_back(d);
    total += d;
  }
  return total;
}

/// Server-side request latency p50 over the interval between snapshots,
/// from the merged per-type histogram buckets.
double ServerP50Ms(const ServerSnapshot& a, const ServerSnapshot& b) {
  std::vector<uint64_t> delta(b.latency_buckets.size());
  for (size_t i = 0; i < delta.size(); ++i) {
    delta[i] = b.latency_buckets[i] -
               (i < a.latency_buckets.size() ? a.latency_buckets[i] : 0);
  }
  const rll::obs::HistogramOptions options;
  const rll::obs::Histogram* any =
      rll::obs::MetricRegistry::Global().GetHistogram(
          "serve_request_latency_ms", {{"type", "embed"}});
  return rll::obs::QuantileFromBuckets(options, any->bucket_bounds(), delta,
                                       0.5, 0.0, any->max());
}

const std::vector<FrameGroup>& ServeFrameGroups() {
  static const std::vector<FrameGroup> kGroups = {
      {"gemm", {"MulInto", "MulTransposeAInto", "MulTransposeBInto",
                "Matmul"}},
      {"map", {"rll::Map", "tanh", "::exp", "exp@"}},
      {"adam", {"Adam"}},
      {"autograd", {"rll::ag::", "autograd"}},
  };
  return kGroups;
}

}  // namespace

void RunServe(const RunArgs& args, Report* report) {
  const PaperDatasets data = MakePaperDatasets(kDataSeed);
  const rll::data::Dataset& corpus = data.oral;
  BundleTrainer trainer(corpus, args.seed);
  const rll::Status trained = trainer.Train(1, kServedBundles);
  report->Check(trained.ok(),
                "training the served bundles: " + trained.ToString());
  if (!trained.ok()) return report->CountOperations(1, 1);

  const std::filesystem::path dir =
      std::filesystem::path(".bench_build") /
      ("run-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  for (size_t b = 0; b < kServedBundles; ++b) {
    paths.push_back((dir / ("bundle" + std::to_string(b) + ".rll")).string());
  }

  std::vector<double> setup_s;
  std::unique_ptr<Server> server;
  // Replaces the running server (if any) with a fresh one, timing the
  // set-up.
  const auto restart_server = [&] {
    if (server != nullptr) server->Stop();
    server.reset();
    Stopwatch t;
    auto started = StartServer(trainer.bundles, paths, corpus);
    setup_s.push_back(t.ElapsedSeconds());
    report->Check(started.ok(), "server set-up: " + started.status().ToString());
    if (started.ok()) server = std::move(*started);
    return started.ok();
  };
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (!restart_server()) {
      std::filesystem::remove_all(dir);
      return report->CountOperations(1, 1);
    }
  }

  std::vector<Expectation> expect;
  for (const std::string& path : paths) {
    auto e = MakeExpectation(path, corpus);
    report->Check(e.ok(), "reference for " + path);
    if (!e.ok()) {
      std::filesystem::remove_all(dir);
      return report->CountOperations(1, 1);
    }
    expect.push_back(*std::move(e));
  }

  RequestStream stream(corpus, rll::SplitSeed(args.seed, 5), /*hot=*/true);
  uint64_t answers_checked = 0;
  const auto finish_load = [&](const LoadLog& log) {
    report->Check(log.error.empty(), "load generator: " + log.error);
    CheckAdmin(log, server.get(), report);
    LoadSummary s = Summarize(log, expect, corpus);
    report->CountOperations(s.attempted, s.attempted - s.ok);
    report->Check(s.checked > 0 && s.check_failures == 0,
                  std::to_string(s.check_failures) + " of " +
                      std::to_string(s.checked) +
                      " answers failed their check; first: " + s.first_failure);
    answers_checked += s.checked;
    report->Check(s.attempted == s.ok,
                  std::to_string(s.attempted - s.ok) + " of " +
                      std::to_string(s.attempted) +
                      " requests failed or went unanswered");
    return s;
  };

  if (!args.trace) {
    LoadSummary s;
    bool complete = true;
    for (size_t segment = 0; segment < kSegments && complete; ++segment) {
      for (int rep = 0; segment > 0 && rep < kSetupRepeats && complete;
           ++rep) {
        complete = restart_server();
      }
      if (!complete) break;
      Generator generator(server.get(), &stream, paths);
      Append(finish_load(generator.RunClosed(
                 std::max(args.seconds / kSegments, kWindowS))),
             &s);
      server->Stop();
      const rll::Status retrained = trainer.Train(0, kTrainingsPerSegment);
      report->Check(retrained.ok(),
                    "training between segments: " + retrained.ToString());
      complete = retrained.ok();
    }
    report->Check(!s.window_count.empty(), "no request was answered");
    if (!complete || s.window_count.empty()) {
      std::filesystem::remove_all(dir);
      return;
    }
    const rll::classify::EvalMetrics quality =
        rll::classify::Evaluate(s.truth, s.predicted);
    report->InfoNumber("answers_checked", static_cast<double>(answers_checked));
    report->Set("setup_s", Median(setup_s), setup_s.size());
    report->Set("train_s", InterquartileMean(trainer.train_s),
                trainer.train_s.size());
    report->Info("train_s_each", JsonArray(trainer.train_s));
    report->Set("accuracy", quality.accuracy, s.truth.size());
    report->Set("f1", quality.f1, s.truth.size());
    report->Set("throughput_per_s", InterquartileMean(s.window_count) / kWindowS,
                s.ok);
    report->Set("latency_p50_ms", Median(s.window_p50), s.latency_samples);
    report->Set("latency_p99_ms", Median(s.window_p99), s.latency_samples);
    report->Set("success_frac",
                static_cast<double>(s.ok) / std::max<uint64_t>(s.attempted, 1),
                s.attempted);
    report->Info("window_p50_ms", JsonArray(s.window_p50));
    report->Info("window_p99_ms", JsonArray(s.window_p99));
    report->Info("window_requests", JsonArray(s.window_count));
    report->InfoNumber("latency_p50_ms_overall", Quantile(s.latencies_ms, 0.5));
    report->InfoNumber("latency_p99_ms_overall", Quantile(s.latencies_ms, 0.99));
    report->InfoNumber("latency_highest_supported_q",
                       HighestSupportedQuantile(s.latencies_ms.size()));
    report->InfoNumber(
        "window_highest_supported_q",
        HighestSupportedQuantile(static_cast<size_t>(
            *std::min_element(s.window_count.begin(), s.window_count.end()))));
    report->Info("latency_op",
                 "\"closed loop: send to response, median over 0.5 s "
                 "windows of each window's percentile\"");
  } else {
    // Untraced load first (the base of the tracing overhead), then the
    // same load with spans and the profiler on; counters are read over
    // the traced load. With the cold phase that makes three loads, each
    // half the run length, so that the run stays well inside its time
    // limit.
    const double phase_s = args.seconds / 2;
    Generator generator(server.get(), &stream, paths);
    const LoadSummary base = finish_load(generator.RunClosed(phase_s));
    rll::obs::ClearTraceEvents();
    rll::obs::ClearProfile();
    rll::obs::SetTracingEnabled(true);
    const rll::Status profiling = rll::obs::StartCpuProfiler({.hz = 250});
    report->Check(profiling.ok(), "profiler start: " + profiling.ToString());
    const ServerSnapshot before = Snapshot();
    const LoadLog log = generator.RunClosed(phase_s);
    const ServerSnapshot after = Snapshot();
    rll::obs::StopCpuProfiler();
    rll::obs::SetTracingEnabled(false);
    const LoadSummary s = finish_load(log);
    report->Set("bench.tracing_overhead_ratio",
                Median(s.window_p50) / Median(base.window_p50), 2);
    report->Info("tracing_overhead_metric", "\"latency_p50_ms\"");

    const uint64_t hits = CounterDelta(before, after, "serve_cache_hits_total", nullptr);
    const uint64_t misses =
        CounterDelta(before, after, "serve_cache_misses_total", nullptr);
    report->Set("serve.cache_hit_frac",
                static_cast<double>(hits) / std::max<uint64_t>(hits + misses, 1),
                hits + misses);
    report->Set("serve.batcher_rejected",
                static_cast<double>(
                    CounterDelta(before, after, "serve_rejected_total", nullptr)),
                s.attempted);
    const uint64_t batches = after.batch_count - before.batch_count;
    report->Set("serve.batch_rows_mean",
                (after.batch_sum - before.batch_sum) /
                    std::max<uint64_t>(batches, 1),
                batches);
    std::vector<uint64_t> shard_lines;
    CounterDelta(before, after, "serve_shard_lines_total", &shard_lines);
    double line_max = 0, line_sum = 0;
    for (uint64_t v : shard_lines) {
      line_max = std::max<double>(line_max, v);
      line_sum += v;
    }
    report->Set("event.shard_line_imbalance",
                shard_lines.empty() ? 0.0 : line_max / (line_sum / shard_lines.size()),
                shard_lines.size());
    const double client_p50_us = Quantile(s.latencies_ms, 0.5) * 1e3;
    const double server_p50_us = ServerP50Ms(before, after) * 1e3;
    const double transport_us = client_p50_us - server_p50_us;
    report->Set("event.transport_us", transport_us, s.latencies_ms.size());
    report->InfoNumber("server_p50_us", server_p50_us);
    report->InfoNumber("server_mean_us",
                       (after.latency_sum - before.latency_sum) /
                           std::max<uint64_t>(after.latency_count -
                                                  before.latency_count, 1) * 1e3);
    report->Check(transport_us >= 0 && transport_us <= client_p50_us,
                  "client p50 " + std::to_string(client_p50_us) +
                      " us does not split into server p50 " +
                      std::to_string(server_p50_us) + " us plus transport");

    const auto groups =
        GroupFoldedStacks(rll::obs::ProfileToFolded(), ServeFrameGroups());
    const double total = std::max<double>(1.0, groups.at("total"));
    const auto frac = [&](const char* g) {
      const auto it = groups.find(g);
      return it == groups.end() ? 0.0 : it->second / total;
    };
    report->Set("tensor.gemm_cpu_frac", frac("gemm"), groups.at("total"));
    report->Set("tensor.map_cpu_frac", frac("map"), groups.at("total"));
    report->Set("autograd.cpu_frac", frac("autograd"), groups.at("total"));
    report->Set("nn.adam_cpu_frac", frac("adam"), groups.at("total"));

    ProbeServingLayers(server.get(), expect[0], corpus, stream, args.seed,
                       report);
    RunColdPhase(server.get(), corpus, paths, args.seed, phase_s, finish_load,
                 report);
    ProbeReloadLayers(paths[0], corpus, report);
    report->InfoNumber("answers_checked", static_cast<double>(answers_checked));
  }

  if (server != nullptr) server->Stop();
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
