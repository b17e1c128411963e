//===- support/Timing.h - Wall and CPU clocks -------------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clock and fault-count helpers used by the runtime's overhead accounting
/// (paper Figure 8 categories) and by perfmodel calibration.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_SUPPORT_TIMING_H
#define PRIVATEER_SUPPORT_TIMING_H

#include <cstdint>
#include <cstdlib>
#include <ctime>

#include <sys/resource.h>

namespace privateer {

inline double wallSeconds() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<double>(Ts.tv_sec) + 1e-9 * Ts.tv_nsec;
}

/// Monotonic clock as integer nanoseconds; async-signal-safe and cheap
/// enough for per-iteration worker heartbeats.
inline uint64_t monotonicNanos() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(Ts.tv_nsec);
}

/// CPU time consumed by this thread/process; meaningful even when many
/// worker processes timeshare a single core.
inline double cpuSeconds() {
  timespec Ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + 1e-9 * Ts.tv_nsec;
}

/// Minor page faults this process has taken so far: first touches and
/// copy-on-write copies of mapped pages.
inline uint64_t minorFaults() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<uint64_t>(U.ru_minflt);
}

/// Multiplier for wall-clock timeouts (watchdog stalls, test deadlines),
/// read once from PRIVATEER_TIMEOUT_SCALE.  Sanitizer builds slow the
/// runtime several-fold, so CI exports e.g. PRIVATEER_TIMEOUT_SCALE=4
/// there; anything unset, unparsable, or non-positive means 1.
inline double timeoutScale() {
  static const double Scale = [] {
    const char *Env = std::getenv("PRIVATEER_TIMEOUT_SCALE");
    if (!Env)
      return 1.0;
    double V = std::atof(Env);
    return V > 0.0 ? V : 1.0;
  }();
  return Scale;
}

/// RAII accumulation of CPU time into a category counter.
class CategoryTimer {
public:
  explicit CategoryTimer(double &Accumulator)
      : Acc(Accumulator), Start(cpuSeconds()) {}
  ~CategoryTimer() { Acc += cpuSeconds() - Start; }
  CategoryTimer(const CategoryTimer &) = delete;
  CategoryTimer &operator=(const CategoryTimer &) = delete;

private:
  double &Acc;
  double Start;
};

} // namespace privateer

#endif // PRIVATEER_SUPPORT_TIMING_H
