//===- runtime/Reduction.cpp ----------------------------------------------===//

#include "runtime/Reduction.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <type_traits>

using namespace privateer;

namespace {

template <typename T> T identityFor(ReduxOp Op) {
  switch (Op) {
  case ReduxOp::Add:
  case ReduxOp::Or:
  case ReduxOp::Xor:
    return T(0);
  case ReduxOp::Mul:
    return T(1);
  case ReduxOp::And:
    if constexpr (std::is_integral_v<T>)
      return T(~T(0));
    break;
  case ReduxOp::Min:
    // Floating-point min/max identities must be the infinities, not the
    // finite extremes: a sequential result of +-inf (or an inf produced in
    // one worker's partial) would otherwise clamp to max()/lowest() after
    // combine and diverge from sequential execution.
    if constexpr (std::is_floating_point_v<T>)
      return std::numeric_limits<T>::infinity();
    else
      return std::numeric_limits<T>::max();
  case ReduxOp::Max:
    if constexpr (std::is_floating_point_v<T>)
      return -std::numeric_limits<T>::infinity();
    else
      return std::numeric_limits<T>::lowest();
  }
  return T(0);
}

/// A op B with the operator fixed at compile time, so a combine loop
/// vectorizes instead of branching per element.
template <ReduxOp Op, typename T> T combineAs(T A, T B) {
  if constexpr (Op == ReduxOp::Min)
    return std::min(A, B);
  else if constexpr (Op == ReduxOp::Max)
    return std::max(A, B);
  else if constexpr (std::is_integral_v<T>) {
    // Unsigned arithmetic (never narrower than unsigned int, so nothing
    // promotes to a signed int) wraps instead of overflowing: wrapping is
    // what makes every combine order byte-identical to sequential.
    using U = std::conditional_t<(sizeof(T) < 4), uint32_t,
                                 std::make_unsigned_t<T>>;
    U X = static_cast<U>(A), Y = static_cast<U>(B);
    if constexpr (Op == ReduxOp::Add)
      return static_cast<T>(X + Y);
    else if constexpr (Op == ReduxOp::Mul)
      return static_cast<T>(X * Y);
    else if constexpr (Op == ReduxOp::And)
      return static_cast<T>(X & Y);
    else if constexpr (Op == ReduxOp::Or)
      return static_cast<T>(X | Y);
    else
      return static_cast<T>(X ^ Y);
  } else {
    // Registration admits only Add, Mul, Min and Max for floats.
    return Op == ReduxOp::Mul ? A * B : A + B;
  }
}

/// Calls \p F with \p Op as a std::integral_constant.
template <typename Fn> void withOp(ReduxOp Op, Fn F) {
  using K = ReduxOp;
  switch (Op) {
  case K::Add:
    return F(std::integral_constant<K, K::Add>());
  case K::Mul:
    return F(std::integral_constant<K, K::Mul>());
  case K::And:
    return F(std::integral_constant<K, K::And>());
  case K::Or:
    return F(std::integral_constant<K, K::Or>());
  case K::Xor:
    return F(std::integral_constant<K, K::Xor>());
  case K::Min:
    return F(std::integral_constant<K, K::Min>());
  case K::Max:
    return F(std::integral_constant<K, K::Max>());
  }
}

template <typename T> void fillTyped(uint64_t Addr, size_t Bytes, ReduxOp Op) {
  T Identity = identityFor<T>(Op);
  T *P = reinterpret_cast<T *>(Addr);
  for (size_t I = 0, E = Bytes / sizeof(T); I < E; ++I)
    P[I] = Identity;
}

template <typename T>
void combineTyped(uint64_t Dst, uint64_t Src, size_t Bytes, ReduxOp Op) {
  T *D = reinterpret_cast<T *>(Dst);
  const T *S = reinterpret_cast<const T *>(Src);
  withOp(Op, [&](auto K) {
    for (size_t I = 0, E = Bytes / sizeof(T); I < E; ++I)
      D[I] = combineAs<decltype(K)::value>(D[I], S[I]);
  });
}

/// Calls \p F with a value of \p E's C++ element type.
template <typename Fn> void withElem(ReduxElem E, Fn F) {
  switch (E) {
  case ReduxElem::I8:
    return F(int8_t());
  case ReduxElem::I16:
    return F(int16_t());
  case ReduxElem::I32:
    return F(int32_t());
  case ReduxElem::I64:
    return F(int64_t());
  case ReduxElem::F32:
    return F(float());
  case ReduxElem::F64:
    return F(double());
  }
}

/// Dst = Dst op Src over one object's \p O bytes.
void combineObject(const ReduxObject &O, uint64_t Dst, uint64_t Src) {
  withElem(O.Elem, [&](auto T) {
    combineTyped<decltype(T)>(Dst, Src, O.Bytes, O.Op);
  });
}

size_t packedSize(const ReduxObject &O) { return (O.Bytes + 7) & ~size_t(7); }

/// A sub-word cell, sign-extended: the IR's i64 load.
template <typename T> void updateCell(uint64_t Addr, ComOp Op, int64_t V) {
  T Cell;
  std::memcpy(&Cell, reinterpret_cast<const void *>(Addr), sizeof(T));
  int64_t Next = 0;
  withOp(Op, [&](auto K) {
    Next = combineAs<decltype(K)::value, int64_t>(Cell, V);
  });
  T Out = static_cast<T>(Next);
  std::memcpy(reinterpret_cast<void *>(Addr), &Out, sizeof(T));
}

} // namespace

const char *privateer::reduxOpName(ReduxOp Op) {
  switch (Op) {
  case ReduxOp::Add:
    return "add";
  case ReduxOp::Mul:
    return "mul";
  case ReduxOp::And:
    return "and";
  case ReduxOp::Or:
    return "or";
  case ReduxOp::Xor:
    return "xor";
  case ReduxOp::Min:
    return "min";
  case ReduxOp::Max:
    return "max";
  }
  return "<invalid>";
}

void privateer::applyComUpdate(uint64_t Addr, ComOp Op, unsigned Bytes,
                               int64_t Value) {
  // Fixed-width copies: a variable-length memcpy here compiles to two
  // `rep movsq` per update.
  switch (Bytes) {
  case 1:
    return updateCell<int8_t>(Addr, Op, Value);
  case 2:
    return updateCell<int16_t>(Addr, Op, Value);
  case 4:
    return updateCell<int32_t>(Addr, Op, Value);
  default:
    return updateCell<int64_t>(Addr, Op, Value);
  }
}

void ReductionRegistry::registerObject(void *Address, size_t Bytes,
                                       ReduxElem Elem, ReduxOp Op) {
  assert(Bytes % reduxElemSize(Elem) == 0 &&
         "reduction object size not a multiple of element size");
  assert(reduxValid(Elem, Op) && "bitwise reduction of a floating element");
  Objects.push_back(
      ReduxObject{reinterpret_cast<uint64_t>(Address), Bytes, Elem, Op});
}

bool ReductionRegistry::unregisterObject(const void *Address) {
  auto It = std::find_if(Objects.begin(), Objects.end(),
                         [&](const ReduxObject &O) {
                           return O.Address ==
                                  reinterpret_cast<uint64_t>(Address);
                         });
  if (It == Objects.end())
    return false;
  Objects.erase(It);
  return true;
}

void ReductionRegistry::fillIdentity() const {
  for (const ReduxObject &O : Objects)
    withElem(O.Elem, [&](auto T) {
      fillTyped<decltype(T)>(O.Address, O.Bytes, O.Op);
    });
}

size_t ReductionRegistry::packedBytes() const {
  size_t N = 0;
  for (const ReduxObject &O : Objects)
    N += packedSize(O);
  return N;
}

void ReductionRegistry::mergeInto(uint8_t *Packed, bool First) const {
  for (const ReduxObject &O : Objects) {
    if (First)
      std::memcpy(Packed, reinterpret_cast<const void *>(O.Address), O.Bytes);
    else
      combineObject(O, reinterpret_cast<uint64_t>(Packed), O.Address);
    Packed += packedSize(O);
  }
}

void ReductionRegistry::commitFrom(const uint8_t *Packed) const {
  for (const ReduxObject &O : Objects) {
    combineObject(O, O.Address, reinterpret_cast<uint64_t>(Packed));
    Packed += packedSize(O);
  }
}
