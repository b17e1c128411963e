//===- ir/Verifier.h - IR well-formedness checks ----------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural verification: every block ends in exactly one terminator,
/// phis lead their block and cover each predecessor exactly once, operand
/// types fit their opcode, calls match arity, memory access sizes are
/// sane, every operand, callee and successor belongs to its function and
/// module, and each function fits the bytecode encoding's 16-bit limits.
/// A module that verifies therefore lowers (bytecode/Lower.h).  Returns
/// all diagnostics rather than stopping at the first.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_IR_VERIFIER_H
#define PRIVATEER_IR_VERIFIER_H

#include "ir/IR.h"

#include <string>
#include <vector>

namespace privateer {
namespace ir {

std::vector<std::string> verifyModule(const Module &M);

} // namespace ir
} // namespace privateer

#endif // PRIVATEER_IR_VERIFIER_H
