//===- perfbench/src/Host.h - Process-tree accounting -----------*- C++ -*-===//
///
/// \file
/// What the benchmark measures about the host and about the processes it
/// started: CPU time and peak memory of the whole process tree (the
/// benchmark, its job runner, forked workers, the daemon and its
/// executives), and a short CPU burn that shows how well W busy processes
/// scale on this host right now.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// Live descendants of this process (children, grandchildren, ...).
std::vector<pid_t> descendants();

/// User plus system CPU seconds of this process, every child it has
/// reaped (with their reaped children), and every live descendant.
double treeCpuSec();

/// Largest resident set, in MiB, of any process this one started, reaped
/// or alive.  This process itself is left out: it only holds the
/// benchmark's bookkeeping, which grows with the number of runs.
double peakRssMb();

/// Runs \p Workers processes that each burn the same fixed CPU work, and
/// returns the wall time of one burner alone divided by the wall time of
/// all of them together: 1.0 means the host gave each its own core.
double burnEfficiency(unsigned Workers);

/// Host-wide CPU time counters from /proc/stat, in clock ticks: all time,
/// and the part the hypervisor gave to other guests while this one was
/// runnable (steal).
struct HostTicks {
  unsigned long long Total = 0;
  unsigned long long Steal = 0;
};
HostTicks hostTicks();

/// Compiler name and version this benchmark was built with.
std::string compilerId();

/// False when the benchmark was compiled without optimization.
bool optimizedBuild();

} // namespace perfbench

#endif // PERFBENCH_HOST_H
