//===- tests/PlainUpdate.h - The RMW of a reduction update ------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The read-modify-write a recognized reduction update compiles to, for
/// tests that drive reduction objects from native bodies: load the cell
/// sign-extended (the IR's i64 load), fold the operand in with 64-bit
/// wrapping arithmetic, and store the low bytes back.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_TESTS_PLAINUPDATE_H
#define PRIVATEER_TESTS_PLAINUPDATE_H

#include "runtime/Reduction.h"

#include <algorithm>
#include <cstring>

namespace privateer {

inline void plainUpdate(uint8_t *P, unsigned Width, ReduxOp Op, int64_t V) {
  uint64_t Bits = 0;
  std::memcpy(&Bits, P, Width); // Little-endian: the low bytes.
  unsigned Shift = 64 - 8 * Width;
  int64_t Cell = static_cast<int64_t>(Bits << Shift) >> Shift;
  uint64_t A = static_cast<uint64_t>(Cell), B = static_cast<uint64_t>(V);
  uint64_t R = 0;
  switch (Op) {
  case ReduxOp::Add:
    R = A + B;
    break;
  case ReduxOp::Mul:
    R = A * B;
    break;
  case ReduxOp::And:
    R = A & B;
    break;
  case ReduxOp::Or:
    R = A | B;
    break;
  case ReduxOp::Xor:
    R = A ^ B;
    break;
  case ReduxOp::Min:
    R = static_cast<uint64_t>(std::min(Cell, V));
    break;
  case ReduxOp::Max:
    R = static_cast<uint64_t>(std::max(Cell, V));
    break;
  }
  std::memcpy(P, &R, Width);
}

} // namespace privateer

#endif // PRIVATEER_TESTS_PLAINUPDATE_H
