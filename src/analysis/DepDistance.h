//===- analysis/DepDistance.h - DOACROSS dependence planning ----*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dependence-distance analysis for speculative DOACROSS / pipeline
/// scheduling.  Where classification (§4.2) rejects a loop because a
/// cross-iteration flow dependence survives privatization, this planner
/// asks whether the dependence has a *provable iteration distance*:
///
///  - a loop-carried scalar recurrence (a non-IV header phi) always has
///    distance one;
///  - an array recurrence A[i] = f(A[i - x]) has distance x whenever the
///    store indexes the array by the canonical IV, the load by IV - x,
///    and a small interval analysis proves x in [1, depchan::kMaxDistance].
///
/// Each such dependence becomes a token channel: the producing iteration
/// posts its value into a shared-memory ring (runtime/DepChannel.h) and
/// the consuming iteration waits for it, turning the loop into a
/// DOALL-shaped body the rest of the pipeline handles unchanged.  The
/// profiler's observed distances (profiling::DepDistance) corroborate the
/// static proof but never substitute for it.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_ANALYSIS_DEPDISTANCE_H
#define PRIVATEER_ANALYSIS_DEPDISTANCE_H

#include "analysis/FunctionAnalyses.h"
#include "profiling/Profile.h"
#include "runtime/DepChannel.h"

#include <set>
#include <string>
#include <vector>

namespace privateer {
namespace analysis {

/// One loop-carried scalar recurrence: a non-IV header phi, forwarded at
/// distance one.  Iteration i posts the latch-incoming value and
/// iteration i+1 waits for it; the first iteration selects the preheader
/// incoming value instead.
struct ScalarCarry {
  ir::Instruction *Phi = nullptr;
  ir::Value *Init = nullptr; ///< Preheader-incoming value.
  ir::Value *Next = nullptr; ///< Latch-incoming value.
  uint32_t Channel = 0;
};

/// One array recurrence: \p Load reads the element \p Store wrote
/// [MinDistance, MaxDistance] iterations earlier.  \p TargetIter is the
/// SSA value of the producing iteration (the element index, which equals
/// the IV value of the iteration that stored it).
struct ArrayCarry {
  ir::Instruction *Store = nullptr;
  ir::Instruction *Load = nullptr;
  ir::Value *TargetIter = nullptr;
  uint32_t Channel = 0;
  uint64_t MinDistance = 1;
  uint64_t MaxDistance = 1;
};

/// The planner's verdict for one loop.
struct DoacrossPlan {
  const Loop *TheLoop = nullptr;
  Loop::CanonicalIv Iv;
  std::vector<ScalarCarry> Scalars;
  std::vector<ArrayCarry> Arrays;
  /// Profiled flow dependences the token channels cover; classification
  /// carves these out when re-judging the loop.
  std::set<profiling::FlowDep> Covered;
  uint32_t NumChannels = 0;
  /// Smallest planned distance: the loop's pipeline slack.
  uint64_t MinDistance = 0;
  std::vector<std::string> WhyNot;

  bool viable() const {
    return NumChannels > 0 && WhyNot.empty();
  }
};

/// Plans token forwarding for \p L.  Returns a non-viable plan (with
/// human-readable reasons) when the loop has no rewritable carried
/// dependences or when one of them defeats the distance proof.
DoacrossPlan planDoacross(const Loop &L, const FunctionAnalyses &FA,
                          const profiling::Profile &P);

} // namespace analysis
} // namespace privateer

#endif // PRIVATEER_ANALYSIS_DEPDISTANCE_H
