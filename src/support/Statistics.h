//===- support/Statistics.h - Named counter registry ------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny analogue of LLVM's Statistic class: named uint64 counters grouped
/// by subsystem.  The runtime's Table 3 counters (invocations, checkpoints,
/// private bytes read/written, allocation-site counts per heap) and the
/// profilers' event counts report through this registry.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_SUPPORT_STATISTICS_H
#define PRIVATEER_SUPPORT_STATISTICS_H

#include <cstdint>
#include <map>
#include <string>

namespace privateer {

/// A process-wide registry of named counters.  Not thread-safe by design:
/// Privateer workers are processes, and each worker accumulates into its own
/// copy; cross-worker totals are merged explicitly through shared memory by
/// the runtime (see runtime/ParallelInvocation).
class StatisticRegistry {
public:
  static StatisticRegistry &instance();

  uint64_t &counter(const std::string &Group, const std::string &Name);
  uint64_t get(const std::string &Group, const std::string &Name) const;

  /// Real-valued counters for quantities that are genuinely fractional
  /// (e.g. `commit.overlap_sec`, wall seconds of commit work overlapped
  /// with live workers); kept in a separate plane so integer counters stay
  /// exact.
  double &real(const std::string &Group, const std::string &Name);
  double getReal(const std::string &Group, const std::string &Name) const;

  void reset();

  /// Serializes every counter (integer and real planes) as a JSON object
  /// keyed group -> name -> value; the daemon's Status reply embeds this.
  std::string toJson() const;

  template <typename Fn> void forEach(Fn Visit) const {
    for (const auto &[Key, Value] : Counters)
      Visit(Key.first, Key.second, Value);
  }

private:
  std::map<std::pair<std::string, std::string>, uint64_t> Counters;
  std::map<std::pair<std::string, std::string>, double> RealCounters;
};

} // namespace privateer

#endif // PRIVATEER_SUPPORT_STATISTICS_H
