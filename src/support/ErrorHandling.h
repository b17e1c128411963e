//===- support/ErrorHandling.h - Fatal errors and unreachable ---*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fatal-error reporting helpers in the spirit of llvm/Support/ErrorHandling.
/// Library code never throws; invariant violations abort with a message.
/// The one exception is interp::Trap, which an interpreter set up for a
/// training run throws and profiling::runTrainingProfile catches.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_SUPPORT_ERRORHANDLING_H
#define PRIVATEER_SUPPORT_ERRORHANDLING_H

#include <string>

namespace privateer {

/// Prints \p Reason to stderr and aborts.  Used for unrecoverable internal
/// errors (failed syscalls backing the runtime, corrupted profiles, ...).
[[noreturn]] void reportFatalError(const std::string &Reason);

/// Marks a point in the code that must never be reached if program
/// invariants hold.
[[noreturn]] void privateerUnreachableImpl(const char *Msg, const char *File,
                                           unsigned Line);

} // namespace privateer

#define PRIVATEER_UNREACHABLE(MSG)                                            \
  ::privateer::privateerUnreachableImpl(MSG, __FILE__, __LINE__)

#endif // PRIVATEER_SUPPORT_ERRORHANDLING_H
