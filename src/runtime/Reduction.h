//===- runtime/Reduction.h - Reduction objects and operators ----*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Registry of reduction-privatized objects (paper Reduction Criterion):
/// "The accumulator variable is expanded into multiple copies, each updated
/// independently across iterations of the loop, after which all copies are
/// merged to the final result."  On entering a parallel region each
/// worker's copy of the reduction heap is "initialized with the identity
/// value for the reduction operator" (§3.2); checkpoints combine partials.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_RUNTIME_REDUCTION_H
#define PRIVATEER_RUNTIME_REDUCTION_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace privateer {

/// Supported associative & commutative reduction operators.
enum class ReduxOp : uint8_t { Add, Mul, Min, Max };

/// Element type of a reduction object (a scalar or an array of these).
enum class ReduxElem : uint8_t { I32, I64, F32, F64 };

inline constexpr size_t reduxElemSize(ReduxElem E) {
  switch (E) {
  case ReduxElem::I32:
  case ReduxElem::F32:
    return 4;
  case ReduxElem::I64:
  case ReduxElem::F64:
    return 8;
  }
  return 0;
}

/// One registered reduction object living in the reduction heap.
struct ReduxObject {
  uint64_t Address; ///< Base address within the redux heap.
  size_t Bytes;     ///< Total size (multiple of element size).
  ReduxElem Elem;
  ReduxOp Op;
};

/// Tracks every reduction object registered for the current invocation and
/// implements identity initialization and element-wise combination.
class ReductionRegistry {
public:
  void registerObject(void *Address, size_t Bytes, ReduxElem Elem, ReduxOp Op);
  void clear() { Objects.clear(); }
  const std::vector<ReduxObject> &objects() const { return Objects; }

  /// Overwrites every registered object (addressed relative to \p HeapBase
  /// with objects recorded relative to their registered addresses) with the
  /// identity of its operator.  \p Bias is added to each object's address,
  /// allowing the same registry to initialize a checkpoint-slot copy.
  void fillIdentity(int64_t Bias = 0) const;

  /// Element-wise Dst = Dst op Src for every registered object, where both
  /// buffers hold images of the redux heap region [HeapBase, HeapBase+N).
  /// \p DstBias / \p SrcBias translate registered addresses into the two
  /// buffers.
  void combine(int64_t DstBias, int64_t SrcBias) const;

  /// Total bytes spanned by registered objects, measured from \p HeapBase
  /// to the end of the last object (0 when empty).
  size_t spanEnd(uint64_t HeapBase) const;

private:
  std::vector<ReduxObject> Objects;
};

} // namespace privateer

#endif // PRIVATEER_RUNTIME_REDUCTION_H
