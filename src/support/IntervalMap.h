//===- support/IntervalMap.h - Address-range to value map -------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A map from half-open intervals [Lo, Hi) of unsigned 64-bit keys to values.
///
/// The pointer-to-object profiler (paper §4.1) maintains "an interval map
/// from ranges of memory addresses to the name of the memory object which
/// occupies that space".  Insertion of an interval evicts any previously
/// inserted intervals it overlaps (a fresh allocation replaces whatever
/// stale mapping covered those addresses), which matches allocator reuse of
/// freed address ranges.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_SUPPORT_INTERVALMAP_H
#define PRIVATEER_SUPPORT_INTERVALMAP_H

#include <cassert>
#include <cstdint>
#include <map>
#include <optional>

namespace privateer {

template <typename ValueT> class IntervalMap {
public:
  struct Interval {
    uint64_t Lo; ///< Inclusive lower bound.
    uint64_t Hi; ///< Exclusive upper bound.
    ValueT Value;
  };

  /// Maps [Lo, Hi) to \p V, removing or trimming any overlapping intervals.
  void insert(uint64_t Lo, uint64_t Hi, ValueT V) {
    assert(Lo < Hi && "empty or inverted interval");
    erase(Lo, Hi);
    Map.emplace(Lo, Entry{Hi, std::move(V)});
  }

  /// Removes all mappings that intersect [Lo, Hi), trimming intervals that
  /// only partially overlap.
  void erase(uint64_t Lo, uint64_t Hi) {
    assert(Lo < Hi && "empty or inverted interval");
    // Find the first interval whose start is >= Lo; the one before it may
    // still overlap from the left.
    auto It = Map.lower_bound(Lo);
    if (It != Map.begin()) {
      auto Prev = std::prev(It);
      if (Prev->second.Hi > Lo) {
        Entry Old = Prev->second;
        // Keep the left remainder [Prev.Lo, Lo).
        Prev->second.Hi = Lo;
        // Keep the right remainder [Hi, Old.Hi), if any.
        if (Old.Hi > Hi)
          Map.emplace(Hi, Entry{Old.Hi, Old.Value});
      }
    }
    while (It != Map.end() && It->first < Hi) {
      if (It->second.Hi > Hi) {
        // Trim from the left: re-key the tail at Hi.
        Map.emplace(Hi, Entry{It->second.Hi, std::move(It->second.Value)});
      }
      It = Map.erase(It);
    }
  }

  /// Returns the value whose interval contains \p Key, if any.
  std::optional<ValueT> lookup(uint64_t Key) const {
    auto It = Map.upper_bound(Key);
    if (It == Map.begin())
      return std::nullopt;
    --It;
    if (Key < It->second.Hi)
      return It->second.Value;
    return std::nullopt;
  }

  /// Returns the full interval containing \p Key, if any.
  std::optional<Interval> lookupInterval(uint64_t Key) const {
    auto It = Map.upper_bound(Key);
    if (It == Map.begin())
      return std::nullopt;
    --It;
    if (Key < It->second.Hi)
      return Interval{It->first, It->second.Hi, It->second.Value};
    return std::nullopt;
  }

private:
  struct Entry {
    uint64_t Hi;
    ValueT Value;
  };
  std::map<uint64_t, Entry> Map;
};

} // namespace privateer

#endif // PRIVATEER_SUPPORT_INTERVALMAP_H
