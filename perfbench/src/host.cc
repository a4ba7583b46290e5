#include "host.h"

#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <chrono>
#include <ctime>
#include <fstream>

#include "common/threading.h"
#include "obs/json_util.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string Quoted(const std::string& s) {
  return "\"" + rll::obs::JsonEscape(s) + "\"";
}

}  // namespace

std::vector<double> TimerOvershootMs(size_t count, int sleep_us) {
  std::vector<double> overshoot;
  overshoot.reserve(count);
  const timespec wait{0, static_cast<long>(sleep_us) * 1000};
  for (size_t i = 0; i < count; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ::ppoll(nullptr, 0, &wait, nullptr);
    const double slept_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    overshoot.push_back(slept_ms - sleep_us / 1e3);
  }
  return overshoot;
}

IdleCpuPoller::IdleCpuPoller() {
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  for (long cpu = 0; cpu < cpus; ++cpu) {
    std::atomic<int> ready{0};
    threads_.emplace_back([this, cpu, &ready] {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(static_cast<int>(cpu), &set);
      const sched_param param{};
      const bool ok =
          ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set) == 0 &&
          ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param) == 0;
      ready.store(ok ? 1 : -1);
      if (!ok) return;
      while (!stop_.load(std::memory_order_relaxed)) {
        __builtin_ia32_pause();
      }
    });
    while (ready.load() == 0) std::this_thread::yield();
    if (ready.load() < 0) {
      threads_.back().join();
      threads_.pop_back();
    }
  }
}

IdleCpuPoller::~IdleCpuPoller() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

std::string HostStampJson(const std::string& revision,
                          double timer_overshoot_p999_ms) {
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"pool_threads\": " + std::to_string(rll::GlobalThreadCount());
  out += ", \"cpu\": " + Quoted(CpuModel());
  out += ", \"compiler\": " + Quoted(PERFBENCH_COMPILER);
  out += ", \"flags\": " + Quoted(PERFBENCH_FLAGS);
  out += ", \"build_type\": " + Quoted(PERFBENCH_BUILD_TYPE);
  out += ", \"revision\": " + Quoted(revision);
  out += ", \"timer_overshoot_p999_ms\": " +
         rll::obs::JsonNumber(timer_overshoot_p999_ms);
  out += "}";
  return out;
}

}  // namespace perfbench
