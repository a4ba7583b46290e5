// perfbench_harness: runs one benchmark workload and prints its result.
//
//   perfbench_harness --workload train_cv|serve_hot
//                     --seed N --seconds S --trace 0|1 [--revision R]
//
// The last stdout line is the result object (see report.h); the exit code
// is 0 whenever that line was printed, whether or not the output checks
// passed ("correct" says that).

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "common/thread_registry.h"
#include "common/threading.h"
#include "host.h"
#include "obs/json_util.h"
#include "report.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload "
               "train_cv|serve_hot --seed N --seconds S "
               "--trace 0|1 [--revision R]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunArgs args;
  std::string revision = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--revision") {
      revision = value;
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0.0) return Usage();
  const bool train = args.workload == "train_cv";
  const bool hot = args.workload == "serve_hot";
  if (!train && !hot) return Usage();

  rll::SetLogLevel(rll::LogLevel::kWarning);
  rll::SetCurrentThreadName("perfbench-main");
  // The load generator runs on this thread: wake it when asked, not up to
  // the default 50 µs timer slack later.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  // Serving: one pool thread per core, the load shape the benchmark fixes.
  // Training: one pool thread. On a shared 4-vCPU host the 4-thread pass
  // time swung between 2.2 s and 6.5 s from one minute to the next (the
  // vCPUs sometimes get about one core between them), while one thread
  // held 5.9–6.9 s.
  rll::SetGlobalThreads(
      train ? 1
            : static_cast<size_t>(
                  std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN))));

  // Short probe of the host's timer lateness (10000 sleeps of 50 µs):
  // enough samples for p99.9 to have ten beyond it.
  const std::vector<double> overshoot = TimerOvershootMs(10000, 50);
  const double overshoot_p999 = Quantile(overshoot, 0.999);

  const IdleCpuPoller poller;
  Report report(args.trace);
  report.Info("host", HostStampJson(revision, overshoot_p999));
  report.InfoString("workload", args.workload);
  report.InfoNumber("seed", static_cast<double>(args.seed));
  report.InfoNumber("seconds", args.seconds);
  report.InfoNumber("idle_pollers", static_cast<double>(poller.active()));
  if (args.trace) {
    report.Set("bench.timer_overshoot_p999_ms", overshoot_p999,
               overshoot.size());
  }

  if (train) {
    RunTrainCv(args, &report);
  } else {
    RunServe(args, &report);
  }
  return report.Print() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
