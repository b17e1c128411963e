//===- support/Statistics.h - Named counter registry ------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny analogue of LLVM's Statistic class: named counters grouped by
/// subsystem, with a separate real-valued plane for seconds.  The runtime
/// mirrors every field of its stats schema here once per invocation
/// (runtime/StatsSchema.h: Table 3's checkpoints and private bytes read and
/// written, plus the fault, commit, dep and com groups); heap allocations,
/// trace events and the service's own counters report here directly, the
/// hot ones through a Statistic handle declared where they are bumped.  The
/// daemon folds each job's reply through the same schema, and its status
/// reply embeds toJson().
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_SUPPORT_STATISTICS_H
#define PRIVATEER_SUPPORT_STATISTICS_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace privateer {

/// A counter declared once where it is bumped, as cpf's and LLVM's
/// STATISTIC are.  It binds to its registry slot on first use and binds
/// again after StatisticRegistry::reset(), so a bump is one test and one
/// increment instead of building two keys and walking the registry's map.
/// Counters stay per process: a forked child bumps its own copy.
class Statistic {
public:
  constexpr Statistic(const char *Group, const char *Name)
      : Group(Group), Name(Name) {}
  Statistic(const Statistic &) = delete;
  Statistic &operator=(const Statistic &) = delete;

  Statistic &operator++() {
    ++(Slot ? *Slot : bind());
    return *this;
  }

private:
  friend class StatisticRegistry;
  uint64_t &bind();

  const char *Group;
  const char *Name;
  uint64_t *Slot = nullptr; ///< The registry's counter; null until bound.
};

/// A process-wide registry of named counters.  Not thread-safe by design:
/// Privateer workers are processes, and each worker accumulates into its own
/// copy; cross-worker totals are merged explicitly through shared memory by
/// the runtime (see runtime/ParallelInvocation).
class StatisticRegistry {
public:
  static StatisticRegistry &instance();

  uint64_t &counter(const std::string &Group, const std::string &Name);
  uint64_t get(const std::string &Group, const std::string &Name) const;
  /// True when either plane holds \p Group / \p Name, even at zero.
  bool contains(const std::string &Group, const std::string &Name) const;

  /// Real-valued counters for quantities that are genuinely fractional
  /// (e.g. `commit.overlap_sec`, wall seconds of commit work overlapped
  /// with live workers); kept in a separate plane so integer counters stay
  /// exact.
  double &real(const std::string &Group, const std::string &Name);

  /// Drops every counter; bound Statistic handles rebind on their next
  /// bump, so they count from zero again.
  void reset();

  /// Serializes every counter (integer and real planes) as a JSON object
  /// keyed group -> name -> value; the daemon's Status reply embeds this.
  std::string toJson() const;

  template <typename Fn> void forEach(Fn Visit) const {
    for (const auto &[Key, Value] : Counters)
      Visit(Key.first, Key.second, Value);
  }

private:
  friend class Statistic;

  // std::map nodes never move, so a bound handle's slot stays valid until
  // reset().
  std::map<std::pair<std::string, std::string>, uint64_t> Counters;
  std::map<std::pair<std::string, std::string>, double> RealCounters;
  std::vector<Statistic *> Bound; ///< Handles to unbind at reset().
};

namespace detail {
template <typename NameFn, size_t... I>
constexpr std::array<Statistic, sizeof...(I)>
makeStatistics(const char *Group, NameFn NameOf, std::index_sequence<I...>) {
  return {{Statistic(Group, NameOf(I))...}};
}
} // namespace detail

/// \p N handles in \p Group, the I-th named NameOf(I): one counter per
/// enumerator of an enum.  Constant-initialized when NameOf is constexpr,
/// so no static initializer can bump a handle before it has its name.
template <size_t N, typename NameFn>
constexpr std::array<Statistic, N> makeStatistics(const char *Group, NameFn NameOf) {
  return detail::makeStatistics(Group, NameOf, std::make_index_sequence<N>());
}

} // namespace privateer

#endif // PRIVATEER_SUPPORT_STATISTICS_H
