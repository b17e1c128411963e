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
/// Commutative-heap objects (HeapKind::Commutative) register here too:
/// each is updated only through com_update with one operator and one
/// width, so it is a reduction object whose updates the loop applies
/// through a single read-modify-write.  Integer operators wrap in two's
/// complement, which makes every combine order byte-identical to
/// sequential execution.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_RUNTIME_REDUCTION_H
#define PRIVATEER_RUNTIME_REDUCTION_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace privateer {

/// Supported associative & commutative reduction operators.  Integers wrap
/// in two's complement and Min/Max compare signed; And, Or and Xor apply
/// to integer elements only.
enum class ReduxOp : uint8_t { Add, Mul, And, Or, Xor, Min, Max };

/// A commutative update folds its operand in with a reduction operator.
using ComOp = ReduxOp;

const char *reduxOpName(ReduxOp Op);

/// Element type of a reduction object (a scalar or an array of these).
enum class ReduxElem : uint8_t { I8, I16, I32, I64, F32, F64 };

inline constexpr size_t reduxElemSize(ReduxElem E) {
  switch (E) {
  case ReduxElem::I8:
    return 1;
  case ReduxElem::I16:
    return 2;
  case ReduxElem::I32:
  case ReduxElem::F32:
    return 4;
  case ReduxElem::I64:
  case ReduxElem::F64:
    return 8;
  }
  return 0;
}

/// The integer element of \p Bytes (1, 2, 4 or 8) bytes.
inline constexpr ReduxElem reduxIntElem(unsigned Bytes) {
  return Bytes == 1   ? ReduxElem::I8
         : Bytes == 2 ? ReduxElem::I16
         : Bytes == 4 ? ReduxElem::I32
                      : ReduxElem::I64;
}

/// False for a bitwise operator on a floating-point element.
inline constexpr bool reduxValid(ReduxElem E, ReduxOp Op) {
  bool Float = E == ReduxElem::F32 || E == ReduxElem::F64;
  return !Float || Op == ReduxOp::Add || Op == ReduxOp::Mul ||
         Op == ReduxOp::Min || Op == ReduxOp::Max;
}

/// com_update's one definition, shared by sequential execution, recovery,
/// the bytecode VM and a speculative worker's copy: load \p Bytes (1, 2, 4
/// or 8) at \p Addr, sign-extend to 64 bits (the IR's i64 load semantics),
/// fold in \p Value with \p Op in 64-bit wrapping arithmetic and store the
/// low \p Bytes back.
void applyComUpdate(uint64_t Addr, ComOp Op, unsigned Bytes, int64_t Value);

/// One registered reduction object, in the redux or commutative heap.
struct ReduxObject {
  uint64_t Address; ///< Base address.
  size_t Bytes;     ///< Total size (multiple of element size).
  ReduxElem Elem;
  ReduxOp Op;
};

/// Tracks every reduction object registered for the current invocation and
/// implements identity initialization and element-wise combination.
class ReductionRegistry {
public:
  void registerObject(void *Address, size_t Bytes, ReduxElem Elem, ReduxOp Op);
  /// Forgets the object at \p Address; false when none is registered.
  bool unregisterObject(const void *Address);
  void clear() { Objects.clear(); }
  const std::vector<ReduxObject> &objects() const { return Objects; }

  /// Overwrites every registered object with the identity of its operator.
  void fillIdentity() const;

  /// Bytes of the packed image a checkpoint slot keeps: every object back
  /// to back, each at an 8-byte aligned offset.
  size_t packedBytes() const;
  /// Worker merge: \p Packed becomes a copy of every object when \p First,
  /// else Packed = Packed op object.
  void mergeInto(uint8_t *Packed, bool First) const;
  /// Commit: object = object op Packed.
  void commitFrom(const uint8_t *Packed) const;

private:
  std::vector<ReduxObject> Objects;
};

} // namespace privateer

#endif // PRIVATEER_RUNTIME_REDUCTION_H
