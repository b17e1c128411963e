//===- transform/Privatizer.h - The privatizing transformation --*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The speculative privatization transformation of paper §4.4-4.6,
/// producing code like Figure 2b:
///
///  - Replace Allocation (§4.4): globals and allocation sites receive
///    their logical-heap assignment, so the privatized interpreter's
///    memory manager allocates them from tagged heaps;
///  - Add Separation Checks (§4.5): checkheap on pointers whose heap
///    membership is not provable from their static definition;
///  - Add Privacy Checks (§4.6): privread/privwrite around every access
///    to a private-heap object;
///  - Value prediction: predicted first-reads become iteration-prologue
///    stores of the predicted constant plus end-of-iteration speculate_eq
///    validation (Figure 2b lines 78-80).
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_TRANSFORM_PRIVATIZER_H
#define PRIVATEER_TRANSFORM_PRIVATIZER_H

#include "classify/Classification.h"

namespace privateer {
namespace transform {

struct TransformStats {
  unsigned GlobalsAssigned = 0;
  unsigned AllocSitesAssigned = 0;
  unsigned SeparationChecks = 0;
  unsigned SeparationChecksElided = 0;
  unsigned PrivacyChecks = 0;
  unsigned PrivacyChecksElided = 0;
  unsigned PredictionsInstalled = 0;
  /// Recognized reduction updates: stores into the reduction heap, which
  /// stay plain loads and stores.
  unsigned ComUpdatesInstalled = 0;
  std::vector<std::string> Errors;
  bool ok() const { return Errors.empty(); }
};

/// Applies \p HA to the module in place.  The loop must be parallelizable
/// per classification; returns accumulated statistics and any errors
/// (e.g. an access whose object set spans several heaps).
TransformStats applyPrivatization(ir::Module &M,
                                  const classify::HeapAssignment &HA,
                                  const analysis::FunctionAnalyses &FA,
                                  const profiling::Profile &P);

/// DOALL-readiness of the privatized loop: canonical induction variable,
/// no other loop-carried phis, and no SSA values flowing out of the loop.
/// Appends human-readable reasons to \p WhyNot on failure.
bool isDoallReady(const analysis::Loop &L, const analysis::FunctionAnalyses &FA,
                  std::vector<std::string> &WhyNot);

} // namespace transform
} // namespace privateer

#endif // PRIVATEER_TRANSFORM_PRIVATIZER_H
