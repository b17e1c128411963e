//===- service/Executive.h - The one job runner -----------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The code that turns one job request into one reply, and the two process
/// lifetimes it runs under.  Every job the daemon admits runs in an
/// executive: a child process in its own process group that talks to the
/// daemon over a private socketpair and answers with one JobResult frame.
///
///  - A pooled executive is forked once at daemon start and runs jobs
///    forever: it blocks on its channel for ExecAssign frames, each
///    carrying the execution knobs in-band and the program out-of-band —
///    a serialized bytecode image in a sealed memfd passed via SCM_RIGHTS.
///    Images are cached per executive by (program key, generation), so a
///    repeat assignment skips even deserialization.
///
///  - A one-shot executive is forked for one job the pool cannot take
///    (per-job rlimits, no image, or no pool).  It inherits the warm
///    CachedProgram across fork, applies the job's rlimits, runs its
///    lowered program, writes its reply and exits.
///
/// Both call runJob, and both run the bytecode VM: every cached program
/// is lowered, so no job runs on the interpreter.  An executive answers
/// every outcome it can express (including typed out-of-memory) in band,
/// and dies for the outcomes it cannot; the daemon triages the corpse
/// and, for a pooled executive, replaces it.
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

struct CachedProgram;

/// Runs one job: the fault-injection preamble, the request -> options
/// mapping, output capture, execution of the lowered program \p BP on the
/// bytecode VM and the stats copy.  Process-level fault knobs kill the
/// calling process instead of returning.
JobReply runJob(const ExecAssignment &A, const bytecode::BytecodeProgram &BP);

/// Runs the pooled-executive loop on \p ChanFd (the child end of the
/// daemon's socketpair) until EOF.  Returns the process exit code (0 on a
/// clean channel close — the daemon is draining).
int executiveMain(int ChanFd);

/// Body of a one-shot executive: runs \p A against the fork-inherited
/// \p Prog's lowered program and writes the reply on \p ChanFd.  Returns
/// the process exit code (4 when the reply could not be written).
int oneShotMain(int ChanFd, const ExecAssignment &A, const CachedProgram &Prog);

} // namespace service
} // namespace privateer

#endif // PRIVATEER_SERVICE_EXECUTIVE_H
