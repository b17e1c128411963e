//===- classify/Classification.h - Heap assignment --------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's §4.2: getFootprint (Algorithm 2) and classify (Algorithm 1),
/// partitioning a hot loop's memory footprint across the five logical
/// heaps — private, reduction, short-lived, read-only, unrestricted —
/// refined by value prediction (§4.3: "dependences are refined with
/// standard rules for value prediction"), plus the loop selection step.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_CLASSIFY_CLASSIFICATION_H
#define PRIVATEER_CLASSIFY_CLASSIFICATION_H

#include "analysis/FunctionAnalyses.h"
#include "profiling/Profile.h"
#include "runtime/Reduction.h"

namespace privateer {
namespace classify {

/// A recognized reduction update: a load-op-store of one address whose
/// loaded value feeds only the combine, and the combine only the store.
/// The loop keeps it as plain loads and stores; in a speculative worker
/// they update that worker's identity-initialized copy of the object.
struct ReduxUpdate {
  const ir::Instruction *Load = nullptr;
  const ir::Instruction *Store = nullptr;
  ReduxElem Elem = ReduxElem::I64;
  ReduxOp Op = ReduxOp::Add;
};

/// Per-loop footprints of Algorithm 2, as sets of object names.
struct Footprint {
  std::set<profiling::ObjectKey> Read;
  std::set<profiling::ObjectKey> Write;
  /// Objects touched by recognized reduction updates (candidates for
  /// HeapKind::Redux; rejected ones fall back to Read/Write).
  std::set<profiling::ObjectKey> Redux;
  /// The loads and stores of those updates.
  std::set<const ir::Instruction *> ReduxAccesses;
  std::vector<ReduxUpdate> ReduxUpdates;
};

/// A value prediction the transformation must install: the first read of
/// this address each iteration is speculated to be \p Value (Figure 2b
/// lines 78-80 for dijkstra's empty queue).
struct ValuePrediction {
  const ir::Instruction *Load;
  const ir::GlobalVariable *Global; ///< Base object (statically known).
  uint64_t Offset;                  ///< Byte offset within the global.
  uint64_t Bytes;
  int64_t Value;
};

/// The result of classify(L) (Algorithm 1): a heap assignment.
struct HeapAssignment {
  const analysis::Loop *TheLoop = nullptr;
  std::map<profiling::ObjectKey, HeapKind> ObjectHeaps;
  std::vector<ValuePrediction> Predictions;
  /// Element type and operator of each reduction-heap object, for runtime
  /// registration (identity init + checkpoint combine).  Every update of
  /// the object agrees on both; mixed objects are rejected.
  std::map<profiling::ObjectKey, std::pair<ReduxElem, ReduxOp>> ReduxOps;
  Footprint Fp;

  /// True when no object is unrestricted: every profiled cross-iteration
  /// dependence was removed by privatization, reduction, short-lived
  /// lifetime, or value prediction.
  bool Parallelizable = false;
  std::vector<std::string> Notes;

  /// Set by the pipeline when the DOACROSS pre-pass rewrote this loop:
  /// token channels the runtime must map, and loads whose privacy checks
  /// the privatizer must elide (the pre-loop fallback arm of a forwarding
  /// select reads private-heap bytes that are deliberately discarded, and
  /// must not be validated).
  uint32_t DoacrossChannels = 0;
  std::set<const ir::Instruction *> PrivacyElides;
};

/// Algorithm 2 over the loop body and everything reachable through calls.
Footprint getFootprint(const analysis::Loop &L,
                       const analysis::FunctionAnalyses &FA,
                       const profiling::Profile &P);

/// Algorithm 1 plus value-prediction refinement.  \p CoveredDeps names
/// profiled flow dependences the DOACROSS pre-pass forwards through token
/// rings; they are carved out of the unrestricted set.  When
/// \p EnableReductions is false, recognized reduction updates fall back
/// into the ordinary footprints and classify as plain loads and stores
/// would (typically private — the A/B arm of the bench gate).
HeapAssignment classifyLoop(const analysis::Loop &L,
                            const analysis::FunctionAnalyses &FA,
                            const profiling::Profile &P,
                            const std::set<profiling::FlowDep> *CoveredDeps =
                                nullptr,
                            bool EnableReductions = true);

/// §4.3 selection: among \p Candidates, keep parallelizable canonical
/// loops, drop loops incompatible with a heavier selection (simultaneously
/// active, or assigning one object to different heaps), and return the
/// chosen assignments ordered by descending profiled weight.
std::vector<HeapAssignment>
selectLoops(const std::vector<HeapAssignment> &Candidates,
            const analysis::FunctionAnalyses &FA,
            const profiling::Profile &P);

} // namespace classify
} // namespace privateer

#endif // PRIVATEER_CLASSIFY_CLASSIFICATION_H
