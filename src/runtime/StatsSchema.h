//===- runtime/StatsSchema.h - Runtime counters, declared once -*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every scalar counter and seconds field of an invocation's statistics,
/// one line each (DESIGN.md §Statistics).  A line reads
///
///   X(Name, Combine, Group, Key, Who)
///
/// - Name: the member of InvocationStats (and WorkerStats, JobReply);
/// - Combine: how two values fold — Sum, or Max for a high-water mark;
/// - Group, Key: the StatisticRegistry slot the value is mirrored into;
/// - Who: Worker when forked workers bump it (it then lives in WorkerStats
///   and travels through the control block), Main when only the main
///   process does.
///
/// The members, operator+=, the worker fold, the registry mirror and the
/// service reply's codec expand from the lists: a new counter is one line.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_RUNTIME_STATSSCHEMA_H
#define PRIVATEER_RUNTIME_STATSSCHEMA_H

#include <algorithm>
#include <cstdint>

/// Integer counters.  The service reply carries all of them.
#define PRIVATEER_STATS_COUNTERS(X)                                            \
  X(Iterations, Sum, "runtime", "iterations", Main)                            \
  /* Checkpoints committed; iterations re-executed sequentially after a        \
     misspeculation. */                                                        \
  X(Checkpoints, Sum, "runtime", "checkpoints", Main)                          \
  X(Misspecs, Sum, "runtime", "misspecs", Main)                                \
  X(RecoveredIterations, Sum, "runtime", "recovered_iters", Main)              \
  X(Epochs, Sum, "runtime", "epochs", Main)                                    \
  X(PrivateReadCalls, Sum, "runtime", "private_read_calls", Worker)            \
  X(PrivateReadBytes, Sum, "runtime", "private_read_bytes", Worker)            \
  X(PrivateWriteCalls, Sum, "runtime", "private_write_calls", Worker)          \
  X(PrivateWriteBytes, Sum, "runtime", "private_write_bytes", Worker)          \
  X(SeparationChecks, Sum, "runtime", "separation_checks", Worker)             \
  /* Dirty-range checkpoint accounting: chunks folded by merges and            \
     commits, and bytes inside them taken by the per-byte path vs skipped      \
     word-at-a-time. */                                                        \
  X(CheckpointDirtyChunks, Sum, "checkpoint", "dirty_chunks", Worker)          \
  X(CheckpointBytesScanned, Sum, "checkpoint", "bytes_scanned", Worker)        \
  X(CheckpointBytesSkipped, Sum, "checkpoint", "bytes_skipped", Worker)        \
  /* Private-heap high water covered by checkpoints. */                        \
  X(PrivateFootprintBytes, Max, "runtime", "private_footprint_bytes", Main)    \
  /* Commit pump: slots committed while a worker was alive, epochs cut         \
     short by a commit-time misspec, and the worker iterations those           \
     cut-offs saved. */                                                        \
  X(EagerSlots, Sum, "commit", "eager_slots", Main)                            \
  X(EarlyCutoffs, Sum, "commit", "early_cutoffs", Main)                        \
  X(EarlyCutoffItersSaved, Sum, "commit", "early_cutoff_iters_saved", Main)    \
  /* Fault tolerance: hung workers the watchdog killed, slot locks taken       \
     from dead holders, failed forks, the fork/mmap failures that were         \
     ENOMEM/EAGAIN (so the service can triage memory pressure as such), and    \
     the windows and iterations run sequentially by fallback. */               \
  X(StalledWorkersKilled, Sum, "fault", "stalled-workers-killed", Main)        \
  X(LocksBroken, Sum, "fault", "locks-broken", Main)                           \
  X(ForkFailures, Sum, "fault", "fork-failures", Main)                         \
  X(ResourceFailures, Sum, "fault", "resource-failures", Main)                 \
  X(DegradedEpochs, Sum, "fault", "degraded-epochs", Main)                     \
  X(DegradedIterations, Sum, "fault", "degraded-iterations", Main)             \
  /* DOACROSS tokens: posted, consumed, spin rounds blocked, waits that        \
     gave up and misspeculated. */                                             \
  X(DepPosts, Sum, "dep", "posts", Worker)                                     \
  X(DepWaits, Sum, "dep", "waits", Worker)                                     \
  X(DepWaitSpins, Sum, "dep", "wait-spins", Worker)                            \
  X(DepWaitTimeouts, Sum, "dep", "wait-timeouts", Worker)                      \
  /* Reduction copies combined by merges and by commits (one per registered    \
     object and slot).  Updates and overflows are always 0: reductions are     \
     plain loads and stores, and per-worker copies replaced the update log.    \
     Both fields stay because perfbench reads them. */                         \
  X(ComUpdates, Sum, "com", "updates", Worker)                                 \
  X(ComRecordsMerged, Sum, "com", "records-merged", Worker)                    \
  X(ComRecordsCommitted, Sum, "com", "records-committed", Main)                \
  X(ComOverflows, Sum, "com", "overflows", Main)

/// Seconds, mirrored into the registry's real-valued plane.  The service
/// reply carries none of them: its own WallSec is the daemon's wall time.
#define PRIVATEER_STATS_SECONDS(X)                                             \
  /* Commit work the pump overlapped with live workers. */                     \
  X(OverlapSec, Sum, "commit", "overlap_sec", Main)                            \
  /* Worker CPU in period loops, read once per period. */                      \
  X(UsefulSec, Sum, "runtime", "useful_s", Worker)                             \
  X(PrivateReadSec, Sum, "runtime", "private_read_s", Main)                    \
  X(PrivateWriteSec, Sum, "runtime", "private_write_s", Main)                  \
  X(CheckpointSec, Sum, "runtime", "checkpoint_s", Worker)                     \
  X(WallSec, Sum, "runtime", "inv_wall_s", Main)

/// Expands its argument only for Who == Worker.
#define PRIVATEER_STAT_IF_Worker(...) __VA_ARGS__
#define PRIVATEER_STAT_IF_Main(...)

namespace privateer {
namespace stats {

template <typename T> void combineSum(T &Acc, T V) { Acc += V; }
template <typename T> void combineMax(T &Acc, T V) { Acc = std::max(Acc, V); }

} // namespace stats

/// Every integer counter.  InvocationStats and the service's JobReply both
/// carry this block, so the executive copies it to the reply in one
/// assignment.
struct RuntimeCounters {
#define PRIVATEER_STAT_MEMBER(Name, Combine, Group, Key, Who) uint64_t Name = 0;
  PRIVATEER_STATS_COUNTERS(PRIVATEER_STAT_MEMBER)
#undef PRIVATEER_STAT_MEMBER
};

/// Per-worker counters, the Worker lines of both lists; each worker writes
/// only its own entry in the control block.
struct WorkerStats {
#define PRIVATEER_STAT_MEMBER(Name, Combine, Group, Key, Who)                  \
  PRIVATEER_STAT_IF_##Who(uint64_t Name = 0;)
  PRIVATEER_STATS_COUNTERS(PRIVATEER_STAT_MEMBER)
#undef PRIVATEER_STAT_MEMBER
#define PRIVATEER_STAT_MEMBER(Name, Combine, Group, Key, Who)                  \
  PRIVATEER_STAT_IF_##Who(double Name = 0;)
  PRIVATEER_STATS_SECONDS(PRIVATEER_STAT_MEMBER)
#undef PRIVATEER_STAT_MEMBER
};

/// Folds \p C into the process's StatisticRegistry, each counter under its
/// schema key with its combine rule.  The runtime calls it once per
/// invocation; the daemon calls it with every reply, since a job's own
/// registry dies with its executive.
void mirrorCounters(const RuntimeCounters &C);

} // namespace privateer

#endif // PRIVATEER_RUNTIME_STATSSCHEMA_H
