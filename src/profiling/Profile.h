//===- profiling/Profile.h - Profile data model -----------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profile information Privateer's compiler consumes (§4.1):
///
///  - the pointer-to-object map: which named memory objects each static
///    load/store touched during the training run.  "The profiler assigns
///    static names to the memory objects of global or constant variables.
///    The profiler names dynamic objects (e.g. malloc or new) or stack
///    slots according to the instruction which allocates them and a
///    dynamic context";
///  - object lifetimes (short-lived w.r.t. a loop);
///  - cross-iteration memory flow dependences per loop;
///  - branch bias and loop trip counts (control speculation);
///  - first-read-per-iteration value predictability (value prediction);
///  - per-loop execution weight (hot-loop selection).
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_PROFILING_PROFILE_H
#define PRIVATEER_PROFILING_PROFILE_H

#include "analysis/LoopInfo.h"
#include "ir/IR.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace privateer {
namespace profiling {

/// Static identity of a memory object: a global, or an allocation site
/// plus the dynamic (call-site chain) context that reached it.
struct ObjectKey {
  const ir::GlobalVariable *Global = nullptr;
  const ir::Instruction *AllocSite = nullptr;
  std::string Context;

  bool operator<(const ObjectKey &O) const {
    if (Global != O.Global)
      return Global < O.Global;
    if (AllocSite != O.AllocSite)
      return AllocSite < O.AllocSite;
    return Context < O.Context;
  }
  bool operator==(const ObjectKey &O) const {
    return Global == O.Global && AllocSite == O.AllocSite &&
           Context == O.Context;
  }
  std::string str() const;
};

/// A profiled loop-carried memory flow dependence (write in an earlier
/// iteration of the loop, read in a later one).
struct FlowDep {
  const ir::Instruction *Src; ///< The store.
  const ir::Instruction *Dst; ///< The load.
  bool operator<(const FlowDep &O) const {
    if (Src != O.Src)
      return Src < O.Src;
    return Dst < O.Dst;
  }
};

/// Observed iteration-distance statistics of one profiled flow dependence
/// (distance = reader's iteration - writer's iteration).  The DOACROSS
/// planner consumes these: a dependence whose every observed instance had
/// the same distance is a candidate for token forwarding, and the minimum
/// distance bounds how much pipeline slack the loop offers.
struct DepDistance {
  uint64_t Min = UINT64_MAX;
  uint64_t Max = 0;
  uint64_t Samples = 0;
  bool fixed() const { return Samples > 0 && Min == Max; }
};

/// Value-prediction candidate: the first read a load makes in each
/// iteration of a loop always returned the same value from the same
/// address.
struct PredictableLoad {
  const ir::Instruction *Load;
  uint64_t Address;
  uint64_t Bytes;
  int64_t Value;
};

struct LoopStats {
  uint64_t Invocations = 0;
  uint64_t Iterations = 0;
  /// Dynamic instructions executed while the loop was active (nested
  /// work included) — the hot-loop ranking weight.
  uint64_t Weight = 0;
};

class Profile {
public:
  /// Profile.mapPointerToObjects for a static memory instruction.
  const std::set<ObjectKey> &objectsAccessedBy(const ir::Instruction *I) const;

  /// Profile.isShortLived(o, L): every dynamic instance of \p O observed
  /// during training was allocated and freed within a single iteration of
  /// \p L (and at least one instance existed).
  bool isShortLived(const ObjectKey &O, const analysis::Loop *L) const;

  const std::set<FlowDep> &
  crossIterationFlowDeps(const analysis::Loop *L) const;

  /// Distance statistics for one profiled flow dependence of \p L, or
  /// nullptr when the dependence was never observed (e.g. a profile
  /// deserialized from a pre-distance text).
  const DepDistance *flowDepDistance(const analysis::Loop *L,
                                     const FlowDep &D) const;

  /// Was every first-read-per-iteration of \p Load in \p L the same value
  /// at the same address?
  const PredictableLoad *predictableFirstRead(const ir::Instruction *Load,
                                              const analysis::Loop *L) const;

  LoopStats loopStats(const analysis::Loop *L) const;

  /// Fraction of executions in which this conditional branch was taken;
  /// -1 when never executed.
  double branchTakenRatio(const ir::Instruction *CondBr) const;

  /// Every object observed during profiling.
  const std::set<ObjectKey> &allObjects() const { return Objects; }

  /// Base address a global occupied during the profiling run (used to
  /// turn predicted-load addresses into global+offset).
  uint64_t globalBase(const ir::GlobalVariable *G) const;

private:
  friend class ProfileCollector;
  friend std::string serializeProfile(const Profile &P, const ir::Module &M);

  std::set<ObjectKey> Objects;
  std::map<const ir::Instruction *, std::set<ObjectKey>> InstObjects;
  /// (object, loop) -> [0]=instances seen, [1]=instances violating
  /// one-iteration lifetime.
  std::map<std::pair<ObjectKey, const analysis::Loop *>,
           std::pair<uint64_t, uint64_t>>
      Lifetime;
  std::map<const analysis::Loop *, std::set<FlowDep>> FlowDeps;
  std::map<std::pair<const analysis::Loop *, FlowDep>, DepDistance>
      DepDistances;
  std::map<std::pair<const ir::Instruction *, const analysis::Loop *>,
           PredictableLoad>
      Predictables;
  std::map<const analysis::Loop *, LoopStats> Loops;
  std::map<const ir::Instruction *, std::pair<uint64_t, uint64_t>> Branches;
  std::map<const ir::GlobalVariable *, uint64_t> GlobalBases;
};

} // namespace profiling
} // namespace privateer

#endif // PRIVATEER_PROFILING_PROFILE_H
