//===- service/Executive.h - The one job runner -----------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The code that turns one job request into one reply, and the process
/// it runs in.  Every job the daemon admits runs on a pooled executive: a
/// child process in its own process group, forked at daemon start, that
/// talks to the daemon over a private socketpair.  It blocks on its
/// channel for ExecAssign frames, each carrying the execution knobs
/// in-band and the program out-of-band — a serialized bytecode image in a
/// sealed memfd passed via SCM_RIGHTS — and answers each with one
/// JobResult frame.  Images are cached per executive by (program key,
/// generation), so a repeat assignment skips even deserialization.
///
/// A job with rlimits runs in a disposable child of its executive, which
/// applies the limits, runs the job on the cached image, writes the reply
/// and exits; a long-lived executive cannot wear per-job limits.  If the
/// child dies, the executive dies the same way, so the daemon triages
/// exactly what the child's death shows.
///
/// Every job runs on the bytecode VM.  An executive answers every outcome
/// it can express (including typed out-of-memory) in band, and dies for
/// the outcomes it cannot; the daemon triages the corpse and replaces it.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_SERVICE_EXECUTIVE_H
#define PRIVATEER_SERVICE_EXECUTIVE_H

#include "service/Protocol.h"

namespace privateer {
namespace bytecode {
struct BytecodeProgram;
} // namespace bytecode

namespace service {

/// Runs one job: the fault-injection preamble, the request -> options
/// mapping, output capture, execution of the lowered program \p BP on the
/// bytecode VM and the stats copy.  Process-level fault knobs kill the
/// calling process instead of returning.
JobReply runJob(const ExecAssignment &A, const bytecode::BytecodeProgram &BP);

/// Runs the executive loop on \p ChanFd (the child end of the daemon's
/// socketpair) until EOF.  Returns the process exit code (0 on a clean
/// channel close — the daemon is draining).
int executiveMain(int ChanFd);

} // namespace service
} // namespace privateer

#endif // PRIVATEER_SERVICE_EXECUTIVE_H
