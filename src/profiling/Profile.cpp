//===- profiling/Profile.cpp ----------------------------------------------===//

#include "profiling/Profile.h"

using namespace privateer;
using namespace privateer::profiling;
using namespace privateer::analysis;
using namespace privateer::ir;

const std::set<ObjectKey> &
Profile::objectsAccessedBy(const Instruction *I) const {
  static const std::set<ObjectKey> Empty;
  auto It = InstObjects.find(I);
  return It == InstObjects.end() ? Empty : It->second;
}

bool Profile::isShortLived(const ObjectKey &O, const Loop *L) const {
  auto It = Lifetime.find({O, L});
  if (It == Lifetime.end())
    return false;
  return It->second.first > 0 && It->second.second == 0;
}

const std::set<FlowDep> &
Profile::crossIterationFlowDeps(const Loop *L) const {
  static const std::set<FlowDep> Empty;
  auto It = FlowDeps.find(L);
  return It == FlowDeps.end() ? Empty : It->second;
}

const DepDistance *Profile::flowDepDistance(const Loop *L,
                                            const FlowDep &D) const {
  auto It = DepDistances.find({L, D});
  return It == DepDistances.end() ? nullptr : &It->second;
}

const PredictableLoad *
Profile::predictableFirstRead(const Instruction *Load, const Loop *L) const {
  auto It = Predictables.find({Load, L});
  return It == Predictables.end() ? nullptr : &It->second;
}

LoopStats Profile::loopStats(const Loop *L) const {
  auto It = Loops.find(L);
  return It == Loops.end() ? LoopStats() : It->second;
}

uint64_t Profile::globalBase(const GlobalVariable *G) const {
  auto It = GlobalBases.find(G);
  return It == GlobalBases.end() ? 0 : It->second;
}

double Profile::branchTakenRatio(const Instruction *CondBr) const {
  auto It = Branches.find(CondBr);
  if (It == Branches.end() || It->second.second == 0)
    return -1.0;
  return static_cast<double>(It->second.first) /
         static_cast<double>(It->second.second);
}
