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

/// A recognized commutative-update cluster: a load-op-store of the same
/// address that the reduction recognizer rejects (recomputed pointer,
/// bitwise operator, or a min/max compare+select).  If every access to an
/// object is such a cluster with one agreed operator, the object can live
/// on the commutative heap and the privatizer folds each cluster into a
/// single ComUpdate instruction.
struct ComCluster {
  const ir::Instruction *Load = nullptr;
  const ir::Instruction *Store = nullptr;
  /// The combining instruction: a binop (pattern A) or the select of a
  /// compare+select min/max (pattern B, where Cmp is the icmp).
  const ir::Instruction *Combine = nullptr;
  const ir::Instruction *Cmp = nullptr;
  ir::Value *X = nullptr; ///< The folded-in operand (independent of Load).
  ComOp Op = ComOp::Add;
};

/// Per-loop footprints of Algorithm 2, as sets of object names.
struct Footprint {
  std::set<profiling::ObjectKey> Read;
  std::set<profiling::ObjectKey> Write;
  std::set<profiling::ObjectKey> Redux;
  /// Objects touched by commutative-update clusters (candidates for
  /// HeapKind::Commutative; rejected ones fall back to Read/Write).
  std::set<profiling::ObjectKey> Com;
  /// Loads/stores recognized as parts of reduction (load-op-store)
  /// patterns; the transformation skips privacy checks for them.
  std::set<const ir::Instruction *> ReduxAccesses;
  /// Loads/stores belonging to commutative-update clusters.
  std::set<const ir::Instruction *> ComAccesses;
  std::vector<ComCluster> ComClusters;
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
  /// registration (identity init + checkpoint combine).
  std::map<profiling::ObjectKey, std::pair<ReduxElem, ReduxOp>> ReduxOps;
  /// Operator and element width of each commutative-heap object (every
  /// cluster on the object agrees on both; mixed objects are rejected).
  std::map<profiling::ObjectKey, std::pair<ComOp, uint8_t>> ComOps;
  /// The clusters the privatizer must fold into ComUpdate instructions —
  /// only those whose every touched object classified Commutative.
  std::vector<ComCluster> ComClusters;
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
/// \p EnableCommutative is false, recognized commutative clusters fall
/// back into the ordinary footprints and classify as the paper's five
/// classes would (typically private — the A/B arm of the bench gate).
HeapAssignment classifyLoop(const analysis::Loop &L,
                            const analysis::FunctionAnalyses &FA,
                            const profiling::Profile &P,
                            const std::set<profiling::FlowDep> *CoveredDeps =
                                nullptr,
                            bool EnableCommutative = true);

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
