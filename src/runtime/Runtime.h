//===- runtime/Runtime.h - The Privateer runtime system ---------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Privateer runtime support system (paper §5): logical heap
/// management, speculative-separation and privacy validation, checkpoints,
/// misspeculation recovery, and the process-based DOALL driver.
///
/// The speculation interface mirrors the calls the Privateer compiler
/// inserts (Figure 2b): `heapAlloc`/`heapDealloc` (h_alloc/h_dealloc),
/// `checkHeap` (check_heap), `privateRead`/`privateWrite` (private_read /
/// private_write), `speculateTrue` (value-prediction misspec sites), and
/// `deferPrintf` (deferred I/O).  Outside a parallel invocation, and during
/// non-speculative recovery, every check is a no-op and the heaps behave as
/// ordinary memory ("Before or after the invocation of a parallel region,
/// these logical heaps behave as normal program memory", §3.2).
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_RUNTIME_RUNTIME_H
#define PRIVATEER_RUNTIME_RUNTIME_H

#include "runtime/Checkpoint.h"
#include "runtime/ControlBlock.h"
#include "runtime/DepChannel.h"
#include "runtime/FaultInjection.h"
#include "runtime/HeapKind.h"
#include "runtime/Reduction.h"
#include "runtime/ShadowMetadata.h"
#include "runtime/SharedHeap.h"
#include "runtime/StatsSchema.h"
#include "support/Trace.h"

#include <cstdarg>
#include <cstdio>
#include <functional>
#include <string>

namespace privateer {

/// Sizes of the logical heaps.  Defaults suit the bundled workloads; the
/// paper's tag scheme would allow up to 16 TB per heap.
struct RuntimeConfig {
  size_t ReadOnlyBytes = 16u << 20;
  size_t PrivateBytes = 8u << 20;
  size_t ReduxBytes = 1u << 20;
  size_t ShortLivedBytes = 8u << 20;
  size_t UnrestrictedBytes = 4u << 20;
};

/// How a parallel invocation schedules its iterations (DESIGN.md §15).
/// A compile-time choice: the transform reads it to decide whether to
/// forward cross-iteration dependences, and the runtime learns DOACROSS
/// from the lowered image's dependence channels.
enum class Strategy : uint8_t {
  /// Independent iterations, the paper's model: cross-iteration
  /// dependences must be speculated away entirely.
  Doall = 0,
  /// The DOALL scheduler plus explicit value forwarding: cross-iteration
  /// dependences flow through post/wait token channels (postDep/waitDep)
  /// at their analyzed dependence distance.
  Doacross = 1,
};

/// Parses a --strategy value; returns false on an unknown name.
inline bool strategyFromName(const std::string &Name, Strategy &Out) {
  if (Name == "doall")
    Out = Strategy::Doall;
  else if (Name == "doacross")
    Out = Strategy::Doacross;
  else
    return false;
  return true;
}

/// Execution context of the current process.
enum class ExecMode : uint8_t {
  Sequential,           ///< Main process, outside or between invocations.
  SpeculativeWorker,    ///< Forked worker with COW heaps and validation.
  NonSpeculativeWorker, ///< DOALL-only worker: shared heaps, no checks.
};

struct ParallelOptions {
  unsigned NumWorkers = 4;
  /// Checkpoint period k; 0 (the default) derives it: checkpointPeriodFor.
  uint64_t CheckpointPeriod = 0;
  /// Checkpoint slots per fork/join epoch; a longer loop runs as several
  /// consecutive epochs.
  static constexpr uint64_t MaxSlotsPerEpoch = 32;
  /// Fraction of iterations that artificially misspeculate (Figure 9).
  double InjectMisspecRate = 0.0;
  uint64_t InjectSeed = 1;
  /// DOALL-only (Figure 7 baseline): no speculation, no validation, no
  /// checkpoints; heaps stay shared.  Only sound for loops that are truly
  /// independent.
  bool NonSpeculative = false;
  /// Deferred-output sink; nullptr means stdout.
  std::FILE *Out = nullptr;

  // --- Dependence forwarding (DOACROSS, DESIGN.md §15) ------------------

  /// Not read by the runtime, which learns DOACROSS from NumDepChannels.
  /// Kept only because the end-to-end benchmark (perfbench/src/IrJobs.cpp)
  /// assigns it, and that tree changes only together with the benchmark.
  Strategy Strat = Strategy::Doall;
  /// Dep-token channels the invocation uses, one per forwarded dependence.
  /// >0 maps a MAP_SHARED ring region inherited by workers; 0 keeps DOALL
  /// behavior.
  uint32_t NumDepChannels = 0;

  // --- Fault tolerance ---------------------------------------------------

  /// Watchdog: seconds a worker may go without a heartbeat before the main
  /// process presumes it hung, SIGKILLs it, and recovers its iterations
  /// sequentially.  0 disables the watchdog (join blocks forever, as the
  /// paper's optimistic fault model assumes).
  double StallTimeoutSec = 10.0;
  /// Deterministic fault injection (tests and bench_fault); inert by
  /// default.
  FaultPlan Faults;

  /// When non-empty, the invocation records a runtime event timeline
  /// (epochs, forks, merges, commits, misspecs, recovery — see
  /// support/Trace.h) and writes it to this path as Chrome-trace /
  /// Perfetto JSON after every invocation.  Empty (the default) keeps
  /// tracing fully off: workers skip the ring pushes entirely.
  std::string TracePath;
};

/// Longest checkpoint period of a loop with private objects: timestamp 255
/// is the slots' conflict code.
inline constexpr uint64_t kMaxPeriod = shadow::kMaxCheckpointPeriod - 1;

// A DOACROSS token ring must out-span an epoch plus the dependence
// distance, or a worker running ahead recycles a slot a sibling has yet to
// read.  The longest DOACROSS epoch is MaxSlotsPerEpoch periods of
// kMaxPeriod (a loop with dependence channels keeps the cap).
static_assert(ParallelOptions::MaxSlotsPerEpoch * kMaxPeriod <=
                  depchan::kRingSlots - depchan::kMaxDistance,
              "an epoch must fit in a dependence-token ring");

/// The checkpoint period of an N-iteration runParallel: an explicit one
/// clamped to [1, 252] (timestamp 255 is the slots' conflict code), else
/// clamp(ceil(N / 4W), 64, 252).  A \p PrivateFree invocation (no live
/// private object, no dependence channels) keeps no timestamps, so its
/// derived period is max(ceil(N / 4W), 64) with no cap (DESIGN.md §9
/// "Checkpoint period").
uint64_t checkpointPeriodFor(const ParallelOptions &Options,
                             uint64_t NumIterations, bool PrivateFree = false);

/// Dynamic counters of one invocation; the raw material for Table 3 and
/// Figure 8.  The counters and seconds are declared in StatsSchema.h;
/// only the reasons and the per-heap footprint are spelled out here.
struct InvocationStats : RuntimeCounters {
#define PRIVATEER_STAT_MEMBER(Name, Combine, Group, Key, Who) double Name = 0;
  PRIVATEER_STATS_SECONDS(PRIVATEER_STAT_MEMBER)
#undef PRIVATEER_STAT_MEMBER
  std::string FirstMisspecReason;
  std::string FirstDegradeReason;

  /// Live allocations and allocator high water of each logical heap at the
  /// end of the invocation, indexed by HeapKind.
  uint64_t HeapLiveObjects[kNumHeapKinds] = {};
  uint64_t HeapHighWaterBytes[kNumHeapKinds] = {};

  /// Folds a later invocation's stats into this running total: every
  /// schema field by its combine rule, the heap footprint snapshot takes
  /// \p S's (the later one), and each reason string keeps the first
  /// non-empty value.
  InvocationStats &operator+=(const InvocationStats &S);

  /// Adds one worker's (or the main process's) WorkerStats.
  void addWorker(const WorkerStats &W);
};

/// mirrorCounters plus the seconds, into the registry's real plane.
void mirrorStats(const InvocationStats &S);

using IterationFn = std::function<void(uint64_t)>;

class Runtime {
public:
  /// The process-wide runtime instance (workers inherit it across fork).
  static Runtime &get();

  Runtime() = default;
  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;
  ~Runtime();

  /// Maps all logical heaps at their tagged addresses, reusing the ones an
  /// earlier shutdown of this process parked.
  void initialize(const RuntimeConfig &Config = RuntimeConfig());
  /// Flushes the trace and forgets registered objects; the heaps stay
  /// mapped (parked) for the next initialize.
  void shutdown();
  bool isInitialized() const { return Initialized; }

  // --- Memory layout (paper §4.4 "Replace Allocation") -------------------

  /// h_alloc: allocates \p Bytes from logical heap \p K; the returned
  /// pointer carries K's tag in bits 44-46.  Aborts on heap exhaustion.
  void *heapAlloc(size_t Bytes, HeapKind K);

  /// h_dealloc.
  void heapDealloc(void *P, HeapKind K);

  SharedHeap &heap(HeapKind K);

  /// Declares a reduction-privatized object with its element type and
  /// associative/commutative operator.  It must lie in the redux heap.
  /// Every object a
  /// parallel loop updates there must be registered before the loop runs;
  /// freeing the object forgets it.
  void registerReduction(void *P, size_t Bytes, ReduxElem Elem, ReduxOp Op);
  ReductionRegistry &reductions() { return Redux; }

  // --- Speculation interface (inserted by the compiler, §4.5-4.6) --------

  /// check_heap: separation check.  In a speculative worker, a tag
  /// mismatch reports misspeculation; otherwise a no-op.
  void checkHeap(const void *P, HeapKind Expected);

  /// private_read: validates and records a read of private memory
  /// (Table 2 "Read" rules on the shadow bytes).
  void privateRead(const void *P, size_t Bytes);

  /// private_write: records a write to private memory (Table 2 "Write").
  void privateWrite(const void *P, size_t Bytes);

  /// Value-prediction / control-speculation misspec site: in a speculative
  /// worker, reports misspeculation when \p Cond is false.  Sequential and
  /// non-speculative execution ignore it (the surrounding code must be
  /// semantically complete without the prediction).
  void speculateTrue(bool Cond, const char *What);

  /// Unconditional misspeculation report from a speculative worker.
  [[noreturn]] void misspecAbort(const char *Reason);

  // --- Fast-path speculation entry points (bytecode VM) ------------------
  //
  // The bytecode engine hoists the per-call mode test out of its inlined
  // check handlers (one speculating() read per body invocation) and
  // performs the tag compare itself as the single mask-AND+compare of
  // paper §5.1, so these entry points skip both and only do the part that
  // needs runtime state.  They must only be called from a speculative
  // worker on a pointer whose tag was already validated.

  /// True when this process is a speculative worker (checks are armed).
  bool speculating() const { return Mode == ExecMode::SpeculativeWorker; }

  /// Counts one separation check that the caller already performed
  /// (tag compare inlined in the VM); keeps stats parity with checkHeap.
  void countSeparationCheck() { ++LocalStats.SeparationChecks; }

  /// privateRead with the mode test and private-heap tag check already
  /// done by the caller: counters, dirty-chunk marking, shadow Read rules.
  void privateReadTagged(uint64_t Addr, size_t Bytes);

  /// privateWrite counterpart of privateReadTagged.
  void privateWriteTagged(uint64_t Addr, size_t Bytes);

  /// Deferred printf (I/O deferral): buffered and committed in iteration
  /// order with the enclosing checkpoint; immediate elsewhere.
  void deferPrintf(const char *Fmt, ...)
      __attribute__((format(printf, 2, 3)));

  /// Sink for immediate output produced outside a speculative worker
  /// (sequential runs and recovery); nullptr restores stdout.
  void setSequentialOutput(std::FILE *Out) { SeqOut = Out; }
  std::FILE *sequentialOutput() const { return SeqOut; }

  // --- Parallel invocation (§5.2-5.3) -------------------------------------

  /// Runs iterations [0, NumIterations) of \p Body as a speculative DOALL
  /// (or a non-speculative DOALL when Options.NonSpeculative), including
  /// checkpointing, validation, and sequential recovery on
  /// misspeculation.  Returns the invocation's statistics.
  InvocationStats runParallel(uint64_t NumIterations,
                              const ParallelOptions &Options,
                              const IterationFn &Body);

  /// Plain sequential execution of [Begin, End); the baseline and the
  /// recovery engine.
  void runSequential(uint64_t Begin, uint64_t End, const IterationFn &Body);

  // --- Dependence forwarding (DOACROSS, DESIGN.md §15) ------------------

  /// post: publishes the cross-iteration value produced by iteration
  /// \p Iter on channel \p Chan.  Inside an invocation the token lands in
  /// the shared ring every worker inherits; sequential execution
  /// (including recovery, which re-posts in order, overwriting doomed
  /// speculative tokens) uses the same ring, and plain sequential runs
  /// outside any invocation fall back to process-local rings so a
  /// rewritten module keeps its original semantics.
  void postDep(uint64_t Iter, uint32_t Chan, uint64_t Value);

  /// wait: returns the token iteration \p Iter posted on \p Chan.  A
  /// speculative worker spins — refreshing its heartbeat, polling the
  /// misspeculation flag, bounded by StallTimeoutSec — and converts a
  /// hopeless wait into misspeculation.  Everywhere else a missing token
  /// returns 0 immediately; by construction that only happens for
  /// pre-loop targets, whose value the rewritten IR discards via select.
  uint64_t waitDep(uint64_t Iter, uint32_t Chan);

  /// Lowest iteration number that will ever post a token (the loop's
  /// begin): speculative waits below the floor return 0 instead of
  /// spinning.  The execution engines set it right before entering the
  /// planned loop.
  void setDepFloor(int64_t Floor) { DepFloor = Floor; }

  ExecMode mode() const { return Mode; }

private:
  /// Runs one fork/join epoch; returns iterations committed and whether a
  /// misspeculation stopped the epoch early.
  struct EpochResult {
    uint64_t CommittedEnd = 0; ///< First uncommitted iteration.
    bool Misspec = false;
    /// Speculative execution could not even start (fork or mmap failure);
    /// the caller must run this epoch sequentially.  Nothing committed.
    bool Degraded = false;
    uint64_t MisspecPeriodEnd = 0; ///< End of the recovery window.
    std::string Reason;
  };
  EpochResult runEpoch(const EpochPlan &Plan, const ParallelOptions &Options,
                       const IterationFn &Body, InvocationStats &Stats);

  /// Maps the invocation's shared coordination state for \p NumWorkers
  /// workers: the control block, plus the trace rings when tracing.  On
  /// failure fills \p Res as a degraded epoch and returns false.
  bool mapCoordination(unsigned NumWorkers, EpochResult &Res,
                       InvocationStats &Stats);
  void unmapCoordination(unsigned NumWorkers);

  /// Sequential fallback for [Begin, End) with the invocation's output
  /// sink; records the degradation in \p Stats.
  void runDegraded(uint64_t Begin, uint64_t End,
                   const ParallelOptions &Options, const IterationFn &Body,
                   InvocationStats &Stats, const char *Reason);

  [[noreturn]] void workerMain(unsigned WorkerId, const EpochPlan &Plan,
                               const ParallelOptions &Options,
                               const IterationFn &Body);

  void flushIo(std::vector<IoRecord> &Records, std::FILE *Out);

  bool Initialized = false;
  RuntimeConfig Config;
  SharedHeap Heaps[kNumHeapKinds];
  SharedHeap Shadow;
  ReductionRegistry Redux;

  // Invocation-scoped state (valid between runEpoch set-up and tear-down).
  ExecMode Mode = ExecMode::Sequential;
  /// Mapped by the invocation's first epoch, re-armed at every epoch start
  /// and unmapped when runParallel returns.
  ControlBlock *Cb = nullptr;
  CheckpointRegion *Region = nullptr;
  /// Active fault injector, set for the duration of runParallel; workers
  /// inherit the pointer (and the injector it addresses) across fork.
  FaultInjector *Injector = nullptr;
  unsigned WorkerId = 0;
  uint64_t CurIter = 0;
  uint8_t CurTs = 0;
  uint64_t PrivateHighWater = 0;
  /// The invocation started with no live private object and no dependence
  /// channels: its periods ignore the timestamp cap, so its speculative
  /// workers map the shadow PROT_NONE and any privacy check faults into
  /// misspeculation.
  bool PrivateFree = false;
  /// Per-worker dirty-chunk bitmap of the private heap for the current
  /// checkpoint period, set by the privateRead/privateWrite fast paths.
  /// Sized in runEpoch before fork; each worker mutates its own COW copy
  /// and clears it after every merge.
  std::vector<uint64_t> DirtyMask;
  uint64_t DirtyChunkLimit = 0;
  std::vector<IoRecord> PendingIo;
  uint32_t IoSequence = 0;
  WorkerStats LocalStats;
  /// Tracing, armed per invocation by ParallelOptions::TracePath.  The
  /// per-worker SPSC rings get their own MAP_SHARED mapping, made only
  /// when tracing and kept for the invocation like the control block.  In
  /// a worker process TraceRing points at this worker's ring; in the main
  /// process it stays null and events go straight to the trace::Collector.
  bool TraceOn = false;
  trace::Ring *TraceRings = nullptr;
  trace::Ring *TraceRing = nullptr;
  std::FILE *SeqOut = nullptr; ///< Sink for immediate (sequential) output.

  // --- Dependence-token channels (DOACROSS) ------------------------------
  /// Base of the channel rings.  During an invocation this is the
  /// MAP_SHARED region created by runParallel (workers inherit the
  /// mapping); outside invocations it may point at lazily grown
  /// process-local rings for plain sequential execution.
  depchan::DepSlot *DepRings = nullptr;
  uint32_t DepChanCount = 0;
  bool DepRingsShared = false; ///< True while runParallel owns the region.
  /// Process-local fallback rings for sequential execution outside an
  /// invocation; grown lazily, freed at shutdown.
  depchan::DepSlot *LocalDepRings = nullptr;
  uint32_t LocalDepChanCount = 0;
  int64_t DepFloor = INT64_MIN;
  uint64_t DepWaitNs = 0; ///< Spin bound for speculative waits (0 = none).
  /// Grows the process-local fallback rings to cover \p Chan.
  void ensureLocalDepRings(uint32_t Chan);
};

} // namespace privateer

#endif // PRIVATEER_RUNTIME_RUNTIME_H
