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
#include "runtime/CommutativeLog.h"
#include "runtime/ControlBlock.h"
#include "runtime/DepChannel.h"
#include "runtime/FaultInjection.h"
#include "runtime/HeapKind.h"
#include "runtime/Reduction.h"
#include "runtime/SharedHeap.h"
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
  size_t CommutativeBytes = 1u << 20;
};

/// How a parallel invocation schedules its iterations (ROADMAP item 3).
enum class Strategy : uint8_t {
  /// Independent iterations, the paper's model: cross-iteration
  /// dependences must be speculated away entirely.
  Doall = 0,
  /// The DOALL scheduler plus explicit value forwarding: cross-iteration
  /// dependences flow through post/wait token channels (postDep/waitDep)
  /// at their analyzed dependence distance.
  Doacross = 1,
  /// Staged pipeline: the body is split into NumStages stages, one per
  /// worker; every stage visits every iteration in order and tokens flow
  /// between consecutive stages (runParallelStaged).
  Pipeline = 2,
};

inline const char *strategyName(Strategy S) {
  switch (S) {
  case Strategy::Doall:
    return "doall";
  case Strategy::Doacross:
    return "doacross";
  case Strategy::Pipeline:
    return "pipeline";
  }
  return "?";
}

/// Parses a --strategy value; returns false on an unknown name.
inline bool strategyFromName(const std::string &Name, Strategy &Out) {
  if (Name == "doall")
    Out = Strategy::Doall;
  else if (Name == "doacross")
    Out = Strategy::Doacross;
  else if (Name == "pipeline")
    Out = Strategy::Pipeline;
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
  /// Checkpoint period k; clamped to the paper's 253-iteration maximum.
  uint64_t CheckpointPeriod = 64;
  /// Upper bound on checkpoint slots per fork/join epoch; a long loop runs
  /// as several consecutive epochs.
  uint64_t MaxSlotsPerEpoch = 32;
  /// Fraction of iterations that artificially misspeculate (Figure 9).
  double InjectMisspecRate = 0.0;
  uint64_t InjectSeed = 1;
  /// DOALL-only (Figure 7 baseline): no speculation, no validation, no
  /// checkpoints; heaps stay shared.  Only sound for loops that are truly
  /// independent.
  bool NonSpeculative = false;
  /// Write-protect the read-only heap in workers; a stray store becomes a
  /// SIGSEGV which the worker converts into misspeculation.
  bool ProtectReadOnly = true;
  size_t IoCapacityPerSlot = 1u << 20;
  /// Per-slot commutative-log capacity in bytes (65536 records by
  /// default); only charged when the invocation's commutative heap holds
  /// allocations.  Overflow is a conservative misspeculation.
  size_t ComCapacityPerSlot = 1u << 20;
  /// Distinct dirty 4 KiB chunks one checkpoint slot can hold.  0 (the
  /// default) sizes slots for the whole private footprint, so merges can
  /// never overflow; a smaller bound shrinks the checkpoint region for
  /// huge footprints at the price of a conservative misspeculation when a
  /// period dirties more chunks than the slot can represent.
  uint64_t CheckpointSlotChunks = 0;
  /// In-epoch commit pump: the main process polls slot headers while the
  /// workers are still running and commits each checkpoint the moment all
  /// workers have merged it, overlapping the commit walk with speculative
  /// execution and raising the misspeculation flag mid-epoch when a
  /// commit-time (phase-2) violation is found.  Off reproduces the paper's
  /// literal join-then-commit sequence, which stays useful as a baseline.
  bool EagerCommit = true;
  /// Deferred-output sink; nullptr means stdout.
  std::FILE *Out = nullptr;

  // --- Execution strategy (DOACROSS / pipeline, ROADMAP item 3) ----------

  /// Scheduling strategy.  Doacross and Pipeline need NumDepChannels > 0
  /// to map the shared token rings.
  Strategy Strat = Strategy::Doall;
  /// Dep-token channels the invocation uses: one per forwarded dependence
  /// (DOACROSS) or per stage boundary (pipeline).  >0 maps a MAP_SHARED
  /// ring region inherited by workers; 0 keeps DOALL behavior.
  uint32_t NumDepChannels = 0;
  /// Minimum analyzed/proved dependence distance.  Informational: bounds
  /// the attainable DOACROSS overlap (distance >= workers keeps every
  /// worker busy).
  uint32_t DepDistance = 0;
  /// Pipeline stage count for runParallelStaged; clamped to NumWorkers.
  uint32_t NumStages = 0;

  // --- Fault tolerance ---------------------------------------------------

  /// Watchdog: seconds a worker may go without a heartbeat before the main
  /// process presumes it hung, SIGKILLs it, and recovers its iterations
  /// sequentially.  0 disables the watchdog (join blocks forever, as the
  /// paper's optimistic fault model assumes).
  double StallTimeoutSec = 10.0;
  /// Graceful degradation: after this many consecutive misspeculating
  /// epochs, run the next backoff window sequentially before retrying
  /// speculation.  0 disables adaptive degradation.
  unsigned DegradeAfterMisspecEpochs = 3;
  /// Initial sequential backoff window, in checkpoint periods; doubles on
  /// every consecutive degradation (exponential backoff) up to the cap.
  uint64_t DegradeBasePeriods = 1;
  uint64_t DegradeMaxPeriods = 64;
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

/// Dynamic counters of one invocation; the raw material for Table 3 and
/// Figure 8.
struct InvocationStats {
  uint64_t Iterations = 0;
  uint64_t Checkpoints = 0; ///< Committed (non-speculative) checkpoints.
  uint64_t Misspecs = 0;
  uint64_t RecoveredIterations = 0; ///< Re-executed sequentially.
  uint64_t Epochs = 0;
  uint64_t PrivateReadCalls = 0;
  uint64_t PrivateReadBytes = 0;
  uint64_t PrivateWriteCalls = 0;
  uint64_t PrivateWriteBytes = 0;
  uint64_t SeparationChecks = 0;
  /// Dirty-range checkpoint accounting: chunks folded/walked by merges and
  /// commits, and bytes inside them taken by the per-byte path vs skipped
  /// word-at-a-time.  Mirrored to StatisticRegistry group "checkpoint".
  uint64_t CheckpointDirtyChunks = 0;
  uint64_t CheckpointBytesScanned = 0;
  uint64_t CheckpointBytesSkipped = 0;
  /// Private-heap high water covered by checkpoints (max over epochs).
  uint64_t PrivateFootprintBytes = 0;
  /// Commit-pump accounting (mirrored to StatisticRegistry group "commit"):
  /// slots committed while at least one worker was still alive, epochs the
  /// pump cut short by raising the misspec flag before join, and the
  /// worker iterations that cut-off saved from being wasted on doomed
  /// periods.
  uint64_t EagerSlots = 0;
  uint64_t EarlyCutoffs = 0;
  uint64_t EarlyCutoffItersSaved = 0;
  /// Wall seconds of commit work the pump overlapped with live workers.
  double OverlapSec = 0;
  double UsefulSec = 0; ///< Worker CPU in period loops, read per period.
  double PrivateReadSec = 0;
  double PrivateWriteSec = 0;
  double CheckpointSec = 0;
  double WallSec = 0;
  std::string FirstMisspecReason;

  // --- Fault-tolerance counters ------------------------------------------
  uint64_t StalledWorkersKilled = 0; ///< Hung workers SIGKILLed by watchdog.
  uint64_t LocksBroken = 0; ///< Slot locks reclaimed from dead holders.
  uint64_t ForkFailures = 0;
  /// fork/mmap failures whose errno was ENOMEM/EAGAIN — memory pressure,
  /// reported distinctly so the service tier can triage OOM as such.
  uint64_t ResourceFailures = 0;
  uint64_t DegradedEpochs = 0; ///< Windows run sequentially by fallback.
  uint64_t DegradedIterations = 0;
  std::string FirstDegradeReason;

  // --- DOACROSS / pipeline counters (StatisticRegistry group "dep") ------
  uint64_t DepPosts = 0;        ///< Tokens published by postDep.
  uint64_t DepWaits = 0;        ///< Tokens consumed by waitDep.
  uint64_t DepWaitSpins = 0;    ///< Spin rounds spent blocked on a token.
  uint64_t DepWaitTimeouts = 0; ///< Waits that gave up and misspeculated.

  // --- Commutative-update heap (StatisticRegistry group "com") -----------
  uint64_t ComUpdates = 0;          ///< Deferred updates logged by workers.
  uint64_t ComRecordsMerged = 0;    ///< Records serialized into slots.
  uint64_t ComRecordsCommitted = 0; ///< Records folded into the master heap.
  uint64_t ComOverflows = 0;        ///< Slot com-log sections that overflowed.

  // --- Per-heap-class footprint (observability satellite) ----------------
  /// Live allocations and allocator high water of each logical heap at the
  /// end of the invocation, indexed by HeapKind.
  uint64_t HeapLiveObjects[kNumHeapKinds] = {};
  uint64_t HeapHighWaterBytes[kNumHeapKinds] = {};

  /// Folds a later invocation's stats into this running total: counters
  /// and seconds add, PrivateFootprintBytes takes the max, the heap
  /// footprint snapshot takes \p S's (the later one), and each reason
  /// string keeps the first non-empty value.
  InvocationStats &operator+=(const InvocationStats &S);
};

using IterationFn = std::function<void(uint64_t)>;

class Runtime {
public:
  /// The process-wide runtime instance (workers inherit it across fork).
  static Runtime &get();

  Runtime() = default;
  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;
  ~Runtime();

  /// Creates and maps all logical heaps at their tagged addresses.
  void initialize(const RuntimeConfig &Config = RuntimeConfig());
  void shutdown();
  bool isInitialized() const { return Initialized; }

  // --- Memory layout (paper §4.4 "Replace Allocation") -------------------

  /// h_alloc: allocates \p Bytes from logical heap \p K; the returned
  /// pointer carries K's tag in bits 44-46.  Aborts on heap exhaustion.
  void *heapAlloc(size_t Bytes, HeapKind K);

  /// h_dealloc.
  void heapDealloc(void *P, HeapKind K);

  SharedHeap &heap(HeapKind K);

  /// Declares a reduction-privatized object (must lie in the redux heap)
  /// with its element type and associative/commutative operator.
  void registerReduction(void *P, size_t Bytes, ReduxElem Elem, ReduxOp Op);
  ReductionRegistry &reductions() { return Redux; }

  /// Declares a commutative-update object (must lie in the commutative
  /// heap) with its agreed operator and element width.  Pure observability
  /// metadata: the deferred records carry their own addresses, so unlike
  /// reductions no identity fill or registry-driven combine is needed.
  void registerCommutative(void *P, size_t Bytes, ComOp Op,
                           uint8_t ElemBytes);

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

  /// com_update: deferred commutative update of \p Bytes at \p P with
  /// operator \p Op and operand \p Value.  The separation check is fused
  /// in: a speculative worker verifies the commutative-heap tag (misspec on
  /// mismatch) and appends a typed record to its pending log — the store
  /// itself is deferred until commit, so no privacy validation runs.
  /// Everywhere else (sequential, recovery, non-speculative workers) the
  /// update applies immediately with the same load-combine-store fold.
  void comUpdate(void *P, ComOp Op, unsigned Bytes, int64_t Value);

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

  /// comUpdate with the mode test and commutative-heap tag check already
  /// done by the caller: counts the update and appends the record to the
  /// worker's pending log.
  void comUpdateTagged(uint64_t Addr, ComOp Op, unsigned Bytes,
                       int64_t Value) {
    ++LocalStats.ComUpdates;
    PendingCom.push_back(
        ComRecord{Addr, Value, Op, static_cast<uint8_t>(Bytes)});
  }

  /// Deferred printf (I/O deferral): buffered and committed in iteration
  /// order with the enclosing checkpoint; immediate elsewhere.
  void deferPrintf(const char *Fmt, ...)
      __attribute__((format(printf, 2, 3)));

  /// Sink for immediate output produced outside a speculative worker
  /// (sequential runs and recovery); nullptr restores stdout.
  void setSequentialOutput(std::FILE *Out) { SeqOut = Out; }

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

  // --- Dependence forwarding (DOACROSS / pipeline, ROADMAP item 3) -------

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

  /// Stage body for runParallelStaged: (iteration, stage, token from the
  /// previous stage) -> token for the next stage.  Stage 0 receives 0.
  using StagedIterationFn =
      std::function<uint64_t(uint64_t, uint32_t, uint64_t)>;

  /// Pipeline driver: stage s (one per worker, NumStages clamped to
  /// NumWorkers) processes every iteration in order, waiting on stage
  /// s-1's token for the same iteration and posting its own on channel s.
  /// Shares the DOALL epoch/checkpoint machinery — checkpoint slots act
  /// as stage-commit points (a slot commits only once every stage has
  /// merged its period) — so misspeculation rolls back the stage suffix
  /// past the committed frontier and re-runs the remaining (iteration,
  /// stage) pairs sequentially in order.
  InvocationStats runParallelStaged(uint64_t NumIterations,
                                    const ParallelOptions &Options,
                                    const StagedIterationFn &Body);

  ExecMode mode() const { return Mode; }

private:
  friend struct WorkerContext;

  struct EpochPlan {
    uint64_t BaseIter;
    uint64_t EpochIters;
    uint64_t Period;
    uint64_t NumSlots;
  };

  /// Runs one fork/join epoch; returns iterations committed and whether a
  /// misspeculation stopped the epoch early.
  struct EpochResult {
    uint64_t CommittedEnd;  ///< First uncommitted iteration.
    bool Misspec;
    /// Speculative execution could not even start (fork or mmap failure);
    /// the caller must run this epoch sequentially.  Nothing committed.
    bool Degraded = false;
    uint64_t MisspecPeriodEnd; ///< First iteration after the bad period.
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
  CommutativeRegistry Com;

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
  unsigned NumWorkers = 0;
  uint64_t CurIter = 0;
  uint8_t CurTs = 0;
  uint64_t EpochBase = 0;
  uint64_t PeriodLen = 1;
  uint64_t PrivateHighWater = 0;
  /// Per-worker dirty-chunk bitmap of the private heap for the current
  /// checkpoint period, set by the privateRead/privateWrite fast paths.
  /// Sized in runEpoch before fork; each worker mutates its own COW copy
  /// and clears it after every merge.
  std::vector<uint64_t> DirtyMask;
  uint64_t DirtyChunkLimit = 0;
  std::vector<IoRecord> PendingIo;
  uint32_t IoSequence = 0;
  /// Deferred commutative updates of the current checkpoint period;
  /// serialized into the slot's com-log section at merge time.
  std::vector<ComRecord> PendingCom;
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

  // --- Dependence-token channels (DOACROSS / pipeline) -------------------
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
  /// Staged-pipeline state, live only inside runParallelStaged.
  const StagedIterationFn *StagedBody = nullptr;
  uint32_t StageCount = 0;
  uint32_t CurStage = 0; ///< This worker's stage.
  /// Grows the process-local fallback rings to cover \p Chan.
  void ensureLocalDepRings(uint32_t Chan);
};

} // namespace privateer

#endif // PRIVATEER_RUNTIME_RUNTIME_H
