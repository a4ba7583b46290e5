// Host stamp printed with every run: what the numbers were measured on
// (cores, CPU, compiler and flags, build type, source revision) plus a
// short probe of how late the OS wakes a sleeping thread, so a noisy host
// shows in the report instead of being guessed at.

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Overshoot in ms of `count` ppoll sleeps of `sleep_us` each: how much
/// later than asked the thread woke.
std::vector<double> TimerOvershootMs(size_t count, int sleep_us);

/// The host stamp as one JSON object. `revision` names the source tree
/// (a commit, or a digest of the sources when there is no git metadata).
std::string HostStampJson(const std::string& revision,
                          double timer_overshoot_p999_ms);

/// Keeps every CPU out of its idle state while alive: one SCHED_IDLE
/// thread per CPU, pinned, spinning on a pause instruction. SCHED_IDLE
/// threads run only when nothing else is runnable and yield on any wake-up,
/// so they take no time from the program; what they remove is the wake-up
/// of a halted virtual CPU, which on a shared VM host costs milliseconds at
/// random and would otherwise dominate every latency the benchmark takes.
class IdleCpuPoller {
 public:
  IdleCpuPoller();
  ~IdleCpuPoller();

  IdleCpuPoller(const IdleCpuPoller&) = delete;
  IdleCpuPoller& operator=(const IdleCpuPoller&) = delete;

  /// Pollers that got SCHED_IDLE and their CPU (others were not started).
  size_t active() const { return threads_.size(); }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
