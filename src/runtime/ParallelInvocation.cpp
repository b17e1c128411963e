//===- runtime/ParallelInvocation.cpp - Fork/join DOALL driver -----------===//
//
// Implements paper §5.2 (checkpoints) and §5.3 (recovery): worker processes
// execute DOALL iterations over copy-on-write views of the logical heaps,
// merge speculative state into checkpoint slots, and the main process
// commits checkpoints in order, re-executing sequentially past the earliest
// misspeculated iteration when validation fails.
//
// The paper's fault model assumes workers either finish or die loudly.
// This driver hardens that optimism: a watchdog reaps workers whose
// heartbeat goes stale, checkpoint-slot locks orphaned by dead workers are
// broken instead of deadlocking siblings, fork/mmap failures degrade to
// sequential execution instead of aborting, and an adaptive policy backs
// off to sequential windows when consecutive epochs keep misspeculating.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"
#include "runtime/ShadowMetadata.h"
#include "support/ErrorHandling.h"
#include "support/Statistics.h"
#include "support/Timing.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>

#include <csignal>
#include <sched.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace privateer;

namespace {

constexpr int kMisspecExit = 42;

/// Runs the enclosing scope at SCHED_IDLE when \p Enable is set, so an
/// overlapped commit walk consumes only CPU capacity the workers leave
/// idle.  On a saturated (or single-core) host an ordinary-priority commit
/// displaces runnable workers and lands right back on the critical path it
/// is trying to hide from; at SCHED_IDLE the kernel preempts the commit
/// the instant any worker wakes.  Restoring the previous policy from
/// SCHED_IDLE needs no privilege on current kernels; if either call fails
/// the commit just runs at whatever priority the process already had.
class ScopedIdlePriority {
public:
  explicit ScopedIdlePriority(bool Enable) {
    if (!Enable)
      return;
    OldPolicy = sched_getscheduler(0);
    sched_param Idle{};
    Lowered = OldPolicy >= 0 && OldPolicy != SCHED_IDLE &&
              sched_setscheduler(0, SCHED_IDLE, &Idle) == 0;
  }
  ~ScopedIdlePriority() {
    if (Lowered) {
      sched_param P{};
      sched_setscheduler(0, OldPolicy, &P);
    }
  }
  ScopedIdlePriority(const ScopedIdlePriority &) = delete;
  ScopedIdlePriority &operator=(const ScopedIdlePriority &) = delete;

private:
  int OldPolicy = -1;
  bool Lowered = false;
};

/// The worker active in this process, for the SIGSEGV handler that
/// converts stores to the protected read-only heap into misspeculation.
ControlBlock *ActiveWorkerCb = nullptr;
unsigned ActiveWorkerId = 0;
uint64_t ActiveWorkerPeriodBase = 0;
uint64_t ActiveWorkerPeriodLen = 1;
trace::Ring *ActiveWorkerTraceRing = nullptr;

/// Alternate signal stack for the worker's SIGSEGV/SIGBUS handler: a
/// stack-overflowing iteration body must still be classified as
/// misspeculation, and the handler cannot run on the exhausted stack.
/// Static because SIGSTKSZ is no longer a compile-time constant on modern
/// glibc; each forked worker gets its own copy-on-write instance.
alignas(16) char WorkerAltStack[64 * 1024];

void workerSegvHandler(int /*Sig*/) {
  // Signal-safe misspeculation report: record position, set flag, die.
  ControlBlock *Cb = ActiveWorkerCb;
  if (Cb) {
    uint64_t Iter =
        Cb->WorkerIter[ActiveWorkerId].load(std::memory_order_relaxed);
    uint64_t Period =
        (Iter - ActiveWorkerPeriodBase) / ActiveWorkerPeriodLen;
    Cb->raiseMisspec(Iter, Period, "fault: store to a protected heap");
    // The ring push is atomics + a POD store, so it is as signal-safe as
    // the flag raise above.
    if (ActiveWorkerTraceRing)
      ActiveWorkerTraceRing->push(trace::makeEvent(
          trace::Kind::Misspec, static_cast<uint16_t>(1 + ActiveWorkerId),
          monotonicNanos(), Iter, Period,
          static_cast<uint32_t>(trace::Reason::ProtectedStore)));
  }
  _exit(kMisspecExit);
}

} // namespace

void Runtime::misspecAbort(const char *Reason) {
  if (Mode != ExecMode::SpeculativeWorker)
    reportFatalError(std::string("misspeculation outside a speculative "
                                 "worker: ") +
                     Reason);
  Cb->raiseMisspec(CurIter, (CurIter - EpochBase) / PeriodLen, Reason);
  if (TraceRing)
    TraceRing->push(trace::makeEvent(
        trace::Kind::Misspec, static_cast<uint16_t>(1 + WorkerId),
        monotonicNanos(), CurIter, (CurIter - EpochBase) / PeriodLen,
        static_cast<uint32_t>(trace::reasonCode(Reason))));
  // "This worker terminates immediately, squashing all its speculative
  // state created since its last checkpoint" (§5.3).
  Cb->Stats[WorkerId] = LocalStats;
  _exit(kMisspecExit);
}

void Runtime::runDegraded(uint64_t Begin, uint64_t End,
                          const ParallelOptions &Options,
                          const IterationFn &Body, InvocationStats &Stats,
                          const char *Reason) {
  uint64_t T0 = TraceOn ? monotonicNanos() : 0;
  std::FILE *SavedOut = SeqOut;
  SeqOut = Options.Out;
  runSequential(Begin, End, Body);
  SeqOut = SavedOut;
  if (TraceOn)
    trace::Collector::instance().record(trace::Kind::Degraded, 0,
                                        monotonicNanos(), T0, End - Begin, 0,
                                        Reason);
  ++Stats.DegradedEpochs;
  Stats.DegradedIterations += End - Begin;
  if (Stats.FirstDegradeReason.empty())
    Stats.FirstDegradeReason = Reason;
}

//===----------------------------------------------------------------------===//
// Dependence-token channels (DOACROSS, ROADMAP item 3)
//===----------------------------------------------------------------------===//

void Runtime::ensureLocalDepRings(uint32_t Chan) {
  if (Chan < LocalDepChanCount && LocalDepRings) {
    if (!DepRingsShared) {
      DepRings = LocalDepRings;
      DepChanCount = LocalDepChanCount;
    }
    return;
  }
  uint32_t NewCount =
      std::max<uint32_t>({Chan + 1, LocalDepChanCount * 2, 4});
  // Value-initialization zeroes the atomics: tag 0 means "never posted".
  auto *Grown = new depchan::DepSlot[static_cast<size_t>(NewCount) *
                                     depchan::kRingSlots]();
  for (size_t I = 0,
              E = static_cast<size_t>(LocalDepChanCount) * depchan::kRingSlots;
       I < E; ++I) {
    Grown[I].Tag.store(LocalDepRings[I].Tag.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    Grown[I].Value.store(
        LocalDepRings[I].Value.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  delete[] LocalDepRings;
  LocalDepRings = Grown;
  LocalDepChanCount = NewCount;
  if (!DepRingsShared) {
    DepRings = LocalDepRings;
    DepChanCount = LocalDepChanCount;
  }
}

void Runtime::postDep(uint64_t Iter, uint32_t Chan, uint64_t Value) {
  if (Chan >= DepChanCount) {
    if (DepRingsShared) {
      // The invocation mapped fewer channels than the program uses; the
      // plan is inconsistent with the code.  A worker converts that into
      // misspeculation, the main process must not scribble blindly.
      if (Mode != ExecMode::Sequential)
        misspecAbort("dep channel beyond the invocation's ring region");
      reportFatalError("postDep: channel beyond the invocation's rings");
    }
    ensureLocalDepRings(Chan);
  }
  depchan::post(DepRings, Chan, Iter, Value);
  ++LocalStats.DepPosts;
  // Ring push only when this invocation armed tracing (TraceRing stays
  // null otherwise): the disabled path pays one branch, nothing else.
  if (TraceRing)
    TraceRing->push(trace::makeEvent(trace::Kind::DepPost,
                                     static_cast<uint16_t>(1 + WorkerId),
                                     monotonicNanos(), Iter, Value, Chan));
}

uint64_t Runtime::waitDep(uint64_t Iter, uint32_t Chan) {
  ++LocalStats.DepWaits;
  // Below the loop's first iteration nobody will ever post: the rewritten
  // IR discards this value through a select, so 0 works in every mode and
  // a speculative worker must not spin for it.
  if (static_cast<int64_t>(Iter) < DepFloor)
    return 0;
  if (Chan >= DepChanCount) {
    if (DepRingsShared) {
      if (Mode != ExecMode::Sequential)
        misspecAbort("dep channel beyond the invocation's ring region");
      return 0;
    }
    ensureLocalDepRings(Chan);
  }
  uint64_t V;
  if (depchan::probe(DepRings, Chan, Iter, &V))
    return V;
  if (Mode == ExecMode::Sequential)
    return 0; // Sequential misses are pre-loop targets by construction.

  // Worker slow path: spin until the producer posts, refreshing our
  // heartbeat (a patient consumer is not a hung worker) and watching the
  // misspeculation flag — once an iteration at or before ours is doomed,
  // the token may never arrive and our own period can no longer commit.
  // A bounded wait converts producer loss the flag cannot explain (e.g. a
  // worker wedged before the watchdog notices) into misspeculation.
  const uint64_t StartNs = monotonicNanos();
  uint64_t SleepNs = 1000; // 1us, doubling to 100us.
  for (;;) {
    for (int K = 0; K < 256; ++K)
      if (depchan::probe(DepRings, Chan, Iter, &V)) {
        // Only waits that left the fast path get a span: the token was
        // genuinely late and the stall is worth seeing on the timeline.
        if (TraceRing)
          TraceRing->push(trace::makeEvent(
              trace::Kind::DepWait, static_cast<uint16_t>(1 + WorkerId),
              monotonicNanos(), StartNs, Iter, Chan));
        return V;
      }
    ++LocalStats.DepWaitSpins;
    uint64_t Now = monotonicNanos();
    if (Cb) {
      Cb->WorkerHeartbeat[WorkerId].store(Now, std::memory_order_relaxed);
      if (Cb->MisspecFlag.load(std::memory_order_acquire) &&
          CurIter >=
              Cb->EarliestMisspecIter.load(std::memory_order_relaxed)) {
        if (Mode == ExecMode::SpeculativeWorker)
          misspecAbort("dependence producer misspeculated");
        _exit(kMisspecExit); // Non-speculative worker: same classification.
      }
    }
    if (DepWaitNs && Now - StartNs > DepWaitNs) {
      ++LocalStats.DepWaitTimeouts;
      if (Mode == ExecMode::SpeculativeWorker)
        misspecAbort("dependence wait timed out");
      _exit(kMisspecExit);
    }
    timespec Ts{0, static_cast<long>(SleepNs)};
    nanosleep(&Ts, nullptr);
    if (SleepNs < 100000)
      SleepNs *= 2;
  }
}

uint64_t privateer::checkpointPeriodFor(const ParallelOptions &Options,
                                        uint64_t NumIterations) {
  constexpr uint64_t kMax = shadow::kMaxCheckpointPeriod - 1;
  if (Options.CheckpointPeriod != 0)
    return std::clamp<uint64_t>(Options.CheckpointPeriod, 1, kMax);
  uint64_t Quarters = 4 * uint64_t{std::max(1u, Options.NumWorkers)};
  return std::clamp<uint64_t>((NumIterations + Quarters - 1) / Quarters, 64,
                              kMax);
}

InvocationStats Runtime::runParallel(uint64_t NumIterations,
                                     const ParallelOptions &Options,
                                     const IterationFn &Body) {
  assert(Initialized && "runtime not initialized");
  assert(Mode == ExecMode::Sequential && "nested parallel invocation");
  assert(Options.NumWorkers >= 1 && Options.NumWorkers <= kMaxWorkers &&
         "worker count out of range");

  InvocationStats Stats;
  double WallStart = wallSeconds();

  // Arm tracing for this invocation; workers inherit TraceOn across fork
  // and push into their shared-memory ring, the main process records
  // straight into the collector.  Off (the default) costs one branch here.
  trace::Collector &Tc = trace::Collector::instance();
  TraceOn = !Options.TracePath.empty();
  if (TraceOn)
    Tc.enable(Options.TracePath);
  uint64_t InvStartNs = TraceOn ? monotonicNanos() : 0;

  // Everything in the private heap is live-in when the invocation begins.
  // Stale old-write marks from a previous invocation can only exist below
  // the private allocator's high-water mark: the shadow mapping starts
  // zero-filled (zero is kLiveIn) and the high water never retreats within
  // a runtime lifetime, so resetting up to it is exact even when the
  // footprint grew and then shrank between invocations — no O(heap-size)
  // memset for a kilobyte working set.
  std::memset(reinterpret_cast<void *>(Shadow.base()), shadow::kLiveIn,
              std::min<uint64_t>(Shadow.size(),
                                 heap(HeapKind::Private).highWater()));

  uint64_t Period = checkpointPeriodFor(Options, NumIterations);
  uint64_t MaxSlots = std::max<uint64_t>(1, Options.MaxSlotsPerEpoch);
  // A token ring must out-span an epoch plus the dependence distance, or a
  // worker running ahead recycles a slot a sibling has yet to read.
  if (Options.NumDepChannels > 0)
    MaxSlots = std::clamp<uint64_t>(
        (depchan::kRingSlots - depchan::kMaxDistance) / Period, 1, MaxSlots);

  FaultInjector Fi(Options.Faults);
  Injector = Fi.enabled() ? &Fi : nullptr;

  // Dependence-token channels (DOACROSS): one MAP_SHARED ring
  // region for the whole invocation.  It must outlive individual epochs —
  // a token committed in epoch k feeds the first iterations of epoch k+1 —
  // and forked workers inherit the mapping, which is how forwarded values
  // cross the copy-on-write isolation boundary.
  depchan::DepSlot *SavedRings = DepRings;
  uint32_t SavedChanCount = DepChanCount;
  bool SavedShared = DepRingsShared;
  void *DepMem = nullptr;
  size_t DepBytes = 0;
  bool DepMapFailed = false;
  if (Options.NumDepChannels > 0) {
    DepBytes = depchan::ringBytes(Options.NumDepChannels);
    DepMem = mmap(nullptr, DepBytes, PROT_READ | PROT_WRITE,
                  MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (DepMem == MAP_FAILED) {
      DepMem = nullptr;
      DepMapFailed = true;
      ++Stats.ResourceFailures;
    } else {
      DepRings = static_cast<depchan::DepSlot *>(DepMem);
      DepChanCount = Options.NumDepChannels;
      DepRingsShared = true;
    }
  }
  DepWaitNs = Options.StallTimeoutSec > 0
                  ? static_cast<uint64_t>(Options.StallTimeoutSec * 1e9)
                  : 0;
  // The main process's own token traffic (recovery and degraded windows
  // re-post in order) lands in LocalStats, folded in below like a worker's.
  LocalStats = WorkerStats();

  // Adaptive degradation state: after K consecutive misspeculating epochs,
  // run M periods sequentially before retrying speculation; M backs off
  // exponentially while hostility persists, bounding worst-case slowdown
  // to a constant factor over sequential on adversarial inputs.
  unsigned ConsecMisspecEpochs = 0;
  uint64_t BasePeriods = std::max<uint64_t>(1, Options.DegradeBasePeriods);
  uint64_t MaxPeriods = std::max(BasePeriods, Options.DegradeMaxPeriods);
  uint64_t BackoffPeriods = BasePeriods;

  uint64_t Next = 0;
  if (DepMapFailed) {
    // Without shared rings the workers cannot forward dependences; run the
    // whole invocation sequentially (local fallback rings serve the
    // post/wait calls).
    runDegraded(0, NumIterations, Options, Body, Stats,
                "out of memory: mmap dep-token rings");
    Next = NumIterations;
  }
  while (Next < NumIterations) {
    if (Options.DegradeAfterMisspecEpochs != 0 &&
        ConsecMisspecEpochs >= Options.DegradeAfterMisspecEpochs) {
      uint64_t End =
          std::min(NumIterations, Next + BackoffPeriods * Period);
      runDegraded(Next, End, Options, Body, Stats,
                  "adaptive backoff after consecutive misspeculating "
                  "epochs");
      Next = End;
      BackoffPeriods = std::min(BackoffPeriods * 2, MaxPeriods);
      ConsecMisspecEpochs = 0; // Give speculation another chance.
      continue;
    }

    uint64_t Remaining = NumIterations - Next;
    uint64_t Slots =
        std::min(MaxSlots, (Remaining + Period - 1) / Period);
    uint64_t EpochIters = std::min(Remaining, Slots * Period);
    EpochPlan Plan{Next, EpochIters, Period, Slots};
    ++Stats.Epochs;

    EpochResult Res = runEpoch(Plan, Options, Body, Stats);
    if (Res.Degraded) {
      // Speculation could not start (fork/mmap failure): run this epoch's
      // iterations sequentially and carry on; the next epoch retries
      // speculation in case the resource shortage was transient.
      uint64_t End = Plan.BaseIter + Plan.EpochIters;
      runDegraded(Next, End, Options, Body, Stats, Res.Reason.c_str());
      Next = End;
      continue;
    }
    if (!Res.Misspec) {
      Next = Res.CommittedEnd;
      ConsecMisspecEpochs = 0;
      BackoffPeriods = BasePeriods;
      continue;
    }

    // Recovery (§5.3): re-execute sequentially from the last committed
    // checkpoint until past the misspeculated period, then resume
    // parallel execution.
    ++Stats.Misspecs;
    ++ConsecMisspecEpochs;
    if (Stats.FirstMisspecReason.empty())
      Stats.FirstMisspecReason = Res.Reason;
    uint64_t RecoveryEnd = std::min(NumIterations, Res.MisspecPeriodEnd);
    uint64_t RecStartNs = TraceOn ? monotonicNanos() : 0;
    std::FILE *SavedOut = SeqOut;
    SeqOut = Options.Out;
    runSequential(Res.CommittedEnd, RecoveryEnd, Body);
    SeqOut = SavedOut;
    if (TraceOn)
      Tc.record(trace::Kind::Recovery, 0, monotonicNanos(), RecStartNs,
                RecoveryEnd - Res.CommittedEnd, 0, Res.Reason);
    Stats.RecoveredIterations += RecoveryEnd - Res.CommittedEnd;
    Next = RecoveryEnd;
  }

  Injector = nullptr;
  unmapCoordination(Options.NumWorkers);
  if (DepMem)
    munmap(DepMem, DepBytes);
  DepRings = SavedRings;
  DepChanCount = SavedChanCount;
  DepRingsShared = SavedShared;
  Stats.addWorker(LocalStats);
  Stats.Iterations = NumIterations;
  Stats.WallSec = wallSeconds() - WallStart;

  // Surface every schema field through the global registry, where tools
  // read them alongside the Table 3 counters.
  mirrorStats(Stats);
  StatisticRegistry &Reg = StatisticRegistry::instance();
  // Per-heap-class footprint snapshot: live allocations and allocator high
  // water of every logical heap, both in the stats and as registry gauges.
  for (unsigned I = 0; I < kNumHeapKinds; ++I) {
    HeapKind K = static_cast<HeapKind>(I);
    Stats.HeapLiveObjects[I] = heap(K).liveCount();
    Stats.HeapHighWaterBytes[I] = heap(K).highWater();
    Reg.counter("footprint", std::string(heapKindName(K)) + "-live") =
        Stats.HeapLiveObjects[I];
    Reg.counter("footprint", std::string(heapKindName(K)) + "-highwater") =
        Stats.HeapHighWaterBytes[I];
  }

  if (TraceOn) {
    Tc.record(trace::Kind::Invocation, 0, monotonicNanos(), InvStartNs,
              NumIterations, 0);
    std::string Err;
    if (!Tc.flush(Err))
      std::fprintf(stderr, "privateer: %s\n", Err.c_str());
    TraceOn = false;
  }
  return Stats;
}

Runtime::EpochResult Runtime::runEpoch(const EpochPlan &Plan,
                                       const ParallelOptions &Options,
                                       const IterationFn &Body,
                                       InvocationStats &Stats) {
  unsigned W = Options.NumWorkers;
  bool Spec = !Options.NonSpeculative;

  EpochResult Res;
  Res.CommittedEnd = Plan.BaseIter;
  Res.Misspec = false;
  Res.MisspecPeriodEnd = Plan.BaseIter + Plan.EpochIters;

  // Shared coordination state, created before the first fork so every
  // worker and the main process observe one instance.  A failed map
  // degrades this epoch and is retried by the next one.
  if (!Cb && !mapCoordination(W, Res, Stats))
    return Res;
  uint64_t NowNs = monotonicNanos();
  Cb->resetForEpoch(W, Plan.BaseIter, NowNs);

  trace::Collector &Tc = trace::Collector::instance();
  uint64_t EpochStartNs = TraceOn ? NowNs : 0;
  // The main process is the only ring consumer; it drains at every
  // commit-pump pass and at join so worker rings rarely fill.
  auto drainTraceRings = [&] {
    if (!TraceOn)
      return;
    for (unsigned I = 0; I < W; ++I)
      Tc.drainRing(TraceRings[I]);
  };

  CheckpointRegion TheRegion;
  PrivateHighWater = heap(HeapKind::Private).highWater();
  uint64_t ReduxCovered =
      Redux.spanEnd(heap(HeapKind::Redux).base());
  // Commutative-heap span covered by commit-time record validation; the
  // slot com-log sections are only paid for when the heap is in use.
  uint64_t ComCovered = heap(HeapKind::Commutative).highWater();
  if (Spec) {
    // Per-worker dirty-chunk bitmap, sized before fork so every worker's
    // COW copy covers the footprint; workers set bits from the
    // private_read/private_write fast paths and clear them after merging.
    DirtyChunkLimit = dirtyChunkCount(PrivateHighWater);
    DirtyMask.assign(dirtyMaskWords(DirtyChunkLimit), 0);
    Stats.PrivateFootprintBytes =
        std::max(Stats.PrivateFootprintBytes, PrivateHighWater);
    CheckpointRegion::Config C;
    C.NumSlots = Plan.NumSlots;
    C.PrivateBytes = PrivateHighWater;
    C.ReduxBytes = ReduxCovered;
    C.IoCapacity = Options.IoCapacityPerSlot;
    C.ComCapacity = ComCovered > 0 ? kComLogBytesPerSlot : 0;
    C.BaseIter = Plan.BaseIter;
    C.Period = Plan.Period;
    C.EpochIters = Plan.EpochIters;
    C.NumWorkers = W;
    C.SlotChunkCapacity = Options.CheckpointSlotChunks;
    if (!TheRegion.create(C)) {
      Res.Degraded = true;
      if (errno == ENOMEM) {
        ++Stats.ResourceFailures;
        Res.Reason = "out of memory: mmap checkpoint region: ";
      } else {
        Res.Reason = "mmap checkpoint region: ";
      }
      Res.Reason += std::strerror(errno);
      return Res;
    }
    Region = &TheRegion;
  }

  // Spawn workers (§5.1: "the Privateer runtime system uses processes and
  // not threads" so each can update its virtual memory map independently).
  // SIGCHLD is blocked across the epoch so the watchdog join can sleep in
  // sigtimedwait and still wake the instant a worker exits.
  std::fflush(nullptr); // Don't duplicate pending stdio buffers into kids.
  sigset_t ChldMask, OldMask;
  sigemptyset(&ChldMask);
  sigaddset(&ChldMask, SIGCHLD);
  sigprocmask(SIG_BLOCK, &ChldMask, &OldMask);
  std::vector<pid_t> Pids(W, -1);
  bool ForkFailed = false;
  for (unsigned I = 0; I < W; ++I) {
    pid_t Pid;
    if (Injector && Injector->shouldFailFork()) {
      Pid = -1;
      errno = EAGAIN;
    } else {
      Pid = fork();
    }
    if (Pid < 0) {
      ForkFailed = true;
      // EAGAIN from fork means the process/memory budget is exhausted —
      // the same resource class as ENOMEM for triage purposes.
      if (errno == ENOMEM || errno == EAGAIN) {
        ++Stats.ResourceFailures;
        Res.Reason = std::string("out of memory: fork: ") +
                     std::strerror(errno);
      } else {
        Res.Reason = std::string("fork: ") + std::strerror(errno);
      }
      break;
    }
    if (Pid == 0)
      workerMain(I, Plan, Options, Body); // Never returns.
    Pids[I] = Pid;
    if (TraceOn)
      Tc.record(trace::Kind::WorkerFork, 0, monotonicNanos(),
                static_cast<uint64_t>(Pid), 0, I);
  }
  if (ForkFailed) {
    // Fall back to sequential execution: discard the partially spawned
    // worker set (nothing they produced can commit).
    for (pid_t Pid : Pids)
      if (Pid > 0)
        kill(Pid, SIGKILL);
    for (pid_t Pid : Pids)
      if (Pid > 0)
        waitpid(Pid, nullptr, 0);
    sigprocmask(SIG_SETMASK, &OldMask, nullptr);
    Region = nullptr;
    ++Stats.ForkFailures;
    Res.Degraded = true;
    return Res;
  }

  if (Spec && Injector)
    Injector->maybeCorruptSlot(TheRegion);

  // Join and commit as one poll-reap-commit state machine.  The watchdog
  // half reaps exits without blocking and SIGKILLs any worker whose
  // heartbeat goes stale for longer than the stall timeout — its last
  // reported iteration is treated as misspeculated and recovered through
  // the sequential path, exactly like any other abnormal death.  The
  // commit-pump half (EagerCommit) polls slot headers between reaps and
  // commits each checkpoint the moment every worker has published its
  // merge, so the end-of-epoch serial commit tail collapses to at most the
  // last slot, and a commit-time misspeculation raises the global flag
  // while workers are still running instead of after they drained the
  // whole epoch.
  uint64_t StallNs =
      Options.StallTimeoutSec > 0
          ? static_cast<uint64_t>(Options.StallTimeoutSec * 1e9)
          : 0;
  std::vector<bool> Alive(W, true);
  std::vector<bool> StallKilled(W, false);
  unsigned Remaining = W;

  // Commit state shared by the in-epoch pump and the post-join sweep.
  std::vector<IoRecord> CommittedIo;
  CheckpointScanStats CommitScan;
  uint8_t *MasterShadow = reinterpret_cast<uint8_t *>(Shadow.base());
  uint8_t *MasterPrivate =
      reinterpret_cast<uint8_t *>(heap(HeapKind::Private).base());
  uint64_t EpochEnd = Plan.BaseIter + Plan.EpochIters;
  uint64_t NextCommit = 0;    // First slot not yet committed, in order.
  bool CommitStopped = false; // A commit failed; Res carries the verdict.
  bool Pump = Spec && Options.EagerCommit;

  auto slotEnd = [&](uint64_t P) {
    return std::min(EpochEnd, Plan.BaseIter + (P + 1) * Plan.Period);
  };
  // This worker's iterations of [Lo, Hi) under cyclic scheduling.
  auto cyclicShare = [&](uint64_t Lo, uint64_t Hi, unsigned Id) -> uint64_t {
    if (Lo >= Hi)
      return 0;
    uint64_t Phase = (Lo - Plan.BaseIter) % W;
    uint64_t First = Lo + (Id + W - Phase) % W;
    return First >= Hi ? 0 : (Hi - First + W - 1) / W;
  };
  // A commit failure observed by the pump mid-epoch.  Record the verdict,
  // then raise the global flag so live workers stop spending iterations on
  // periods that can no longer commit (§5.3 has them poll after every
  // iteration); without the pump they would only learn after running the
  // epoch to the end.  The iterations the cut-off saves are tallied from
  // each live worker's remaining cyclic share past the doomed period.
  auto failCommit = [&](uint64_t P, const std::string &Why) {
    CommitStopped = true;
    Res.Misspec = true;
    Res.Reason = Why;
    Res.MisspecPeriodEnd = slotEnd(P);
    if (TraceOn)
      Tc.record(trace::Kind::Misspec, 0, monotonicNanos(),
                Plan.BaseIter + P * Plan.Period, P,
                static_cast<uint32_t>(trace::reasonCode(Why.c_str())), Why);
    if (Remaining == 0)
      return;
    ++Stats.EarlyCutoffs;
    uint64_t CutStart = Plan.BaseIter + P * Plan.Period;
    uint64_t SavedBefore = Stats.EarlyCutoffItersSaved;
    for (unsigned I = 0; I < W; ++I) {
      if (!Alive[I])
        continue;
      uint64_t NextIter =
          Cb->WorkerIter[I].load(std::memory_order_relaxed) + 1;
      Stats.EarlyCutoffItersSaved +=
          cyclicShare(std::max(NextIter, CutStart), EpochEnd, I);
    }
    if (TraceOn)
      Tc.record(trace::Kind::EarlyCutoff, 0, monotonicNanos(),
                Stats.EarlyCutoffItersSaved - SavedBefore, 0,
                static_cast<uint32_t>(P));
    Cb->raiseMisspec(Plan.BaseIter + P * Plan.Period, P, Why.c_str());
  };
  // One pump pass: commit every slot that is ready, in iteration order.
  // Never reads Cb->MisspecReason (a worker that just won the flag race may
  // still be writing it); worker-raised misspeculation is classified after
  // join like before.
  auto pumpStep = [&]() {
    while (NextCommit < Plan.NumSlots && !CommitStopped) {
      uint64_t P = NextCommit;
      if (Cb->MisspecFlag.load(std::memory_order_acquire) &&
          P >= Cb->EarliestMisspecPeriod.load(std::memory_order_relaxed))
        return; // This period is doomed by a worker; nothing more commits.
      SlotHeader *H = TheRegion.slot(P);
      // The stable header fields (BaseIter, NumIters) are written once at
      // create() and never by a healthy worker, so they can be checked at
      // any time — this is how the pump catches a scribbled header
      // mid-epoch rather than leaving it to the post-join sweep.
      if (!TheRegion.slotStableSane(P)) {
        failCommit(P, "corrupted checkpoint slot header");
        return;
      }
      if (H->Poisoned.load(std::memory_order_relaxed)) {
        failCommit(P, "checkpoint slot torn by a worker that died holding "
                      "its lock");
        return;
      }
      if (H->WorkersMerged.load(std::memory_order_acquire) != W)
        return; // Not all contributors have published; poll again later.
      // Every contributor has release-published its merge, so the slot is
      // quiescent and fully visible (a still-held lock only means the last
      // merger has not dropped it yet).  Run the full header check now
      // that its dynamic counters are final.
      if (!TheRegion.slotHeaderSane(P)) {
        failCommit(P, "corrupted checkpoint slot header");
        return;
      }
      bool Overlapped = Remaining > 0;
      double T0 = Overlapped ? wallSeconds() : 0;
      uint64_t TraceT0 = TraceOn ? monotonicNanos() : 0;
      uint64_t ScanBefore = CommitScan.BytesScanned;
      std::string Why;
      CheckpointRegion::CommitStatus St;
      {
        ScopedIdlePriority IdleWhileWorkersRun(Overlapped);
        St = TheRegion.commitSlot(P, MasterShadow, MasterPrivate, Redux,
                                  heap(HeapKind::Redux).base(),
                                  heap(HeapKind::Commutative).base(),
                                  ComCovered, CommittedIo, Why, &CommitScan);
      }
      if (Overlapped) {
        Stats.OverlapSec += wallSeconds() - T0;
        ++Stats.EagerSlots;
      }
      if (St == CheckpointRegion::CommitStatus::Misspec) {
        failCommit(P, Why);
        return;
      }
      if (TraceOn)
        Tc.record(trace::Kind::CommitEager, 0, monotonicNanos(), TraceT0,
                  CommitScan.BytesScanned - ScanBefore,
                  static_cast<uint32_t>(P));
      Res.CommittedEnd = slotEnd(P);
      ++Stats.Checkpoints;
      ++NextCommit;
    }
  };

  // Between polls the join sleeps in sigtimedwait, woken early by any
  // SIGCHLD.  Stall checks only need a few passes per timeout window; the
  // pump wants lower commit latency while uncommitted slots remain.
  uint64_t CheckNs =
      StallNs ? std::clamp<uint64_t>(StallNs / 8, 1000000, 50000000) : 0;
  constexpr uint64_t kPumpPollNs = 200000; // 200us
  while (Remaining > 0) {
    bool Reaped = false;
    for (unsigned I = 0; I < W; ++I) {
      if (!Alive[I])
        continue;
      int Status = 0;
      pid_t R = waitpid(Pids[I], &Status, (StallNs || Pump) ? WNOHANG : 0);
      if (R == 0)
        continue; // Still running.
      if (R < 0)
        reportFatalError(std::string("waitpid: ") + std::strerror(errno));
      Alive[I] = false;
      --Remaining;
      Reaped = true;
      bool Clean = WIFEXITED(Status) &&
                   (WEXITSTATUS(Status) == 0 ||
                    WEXITSTATUS(Status) == kMisspecExit);
      if (TraceOn)
        Tc.record(trace::Kind::WorkerExit, 0, monotonicNanos(),
                  static_cast<uint64_t>(Status), Clean, I);
      if (!Clean) {
        // A worker died without reporting: treat its last known iteration
        // as misspeculated so recovery re-executes it non-speculatively.
        uint64_t Iter = Cb->WorkerIter[I].load(std::memory_order_relaxed);
        char Why[sizeof(Cb->MisspecReason)];
        std::snprintf(Why, sizeof(Why),
                      StallKilled[I]
                          ? "worker %u stalled; killed by watchdog "
                            "(status 0x%x)"
                          : "worker %u terminated abnormally (status 0x%x)",
                      I, Status);
        Cb->raiseMisspec(Iter, (Iter - Plan.BaseIter) / Plan.Period, Why);
      }
    }
    if (Remaining == 0)
      break;
    if (StallNs) {
      uint64_t Now = monotonicNanos();
      for (unsigned I = 0; I < W; ++I) {
        if (!Alive[I] || StallKilled[I])
          continue;
        uint64_t Beat =
            Cb->WorkerHeartbeat[I].load(std::memory_order_relaxed);
        if (Now > Beat && Now - Beat > StallNs) {
          // Record the stall before killing so the exit classifier labels
          // the death correctly even if a sibling races on the flag.
          StallKilled[I] = true;
          ++Stats.StalledWorkersKilled;
          if (TraceOn)
            Tc.record(trace::Kind::WorkerStallKill, 0, Now,
                      Cb->WorkerIter[I].load(std::memory_order_relaxed),
                      Now - Beat, I);
          kill(Pids[I], SIGKILL);
        }
      }
    }
    bool Pumping = Pump && !CommitStopped && NextCommit < Plan.NumSlots;
    if (Pumping)
      pumpStep();
    drainTraceRings();
    if (!Reaped) {
      // A SIGCHLD delivered before this point stays pending (the signal is
      // blocked), so sigtimedwait returns immediately: no lost wake-ups.
      uint64_t SleepNs = Pumping ? kPumpPollNs
                         : CheckNs ? CheckNs
                                   : 0;
      if (SleepNs == 0 && Pump) // Pump done, watchdog off: block on exits.
        SleepNs = 50000000;
      timespec Ts{static_cast<time_t>(SleepNs / 1000000000),
                  static_cast<long>(SleepNs % 1000000000)};
      sigtimedwait(&ChldMask, nullptr, &Ts);
    }
  }
  // Final pump pass so an epoch whose last merge landed between the last
  // poll and the last reap still commits everything eagerly (this is also
  // what keeps the post-join sweep's work to at most the final slot).
  if (Pump && !CommitStopped)
    pumpStep();
  drainTraceRings(); // All workers reaped: rings are quiescent from here.
  sigprocmask(SIG_SETMASK, &OldMask, nullptr);

  for (unsigned I = 0; I < W; ++I)
    Stats.addWorker(Cb->Stats[I]);
  Stats.LocksBroken += Cb->LocksBroken.load(std::memory_order_relaxed);

  bool Flag = Cb->MisspecFlag.load(std::memory_order_acquire) != 0;
  uint64_t MisspecPeriod =
      Flag ? Cb->EarliestMisspecPeriod.load(std::memory_order_relaxed)
           : kNoMisspec;

  if (Spec) {
    // Post-join sweep: commit, in iteration order (§5.2), whatever the
    // pump did not get to — at most the final slot when the pump ran, the
    // whole epoch when EagerCommit is off.  All workers are reaped by now,
    // so a still-held slot lock is orphaned by definition, and an
    // incomplete merge count means a worker was lost; neither condition is
    // decidable mid-epoch, which is why only the sweep checks them.
    for (uint64_t P = NextCommit; P < Plan.NumSlots && !CommitStopped;
         ++P) {
      if (Flag && P >= MisspecPeriod) {
        Res.Misspec = true;
        Res.Reason = Cb->MisspecReason;
        Res.MisspecPeriodEnd = slotEnd(MisspecPeriod);
        break;
      }
      SlotHeader *H = TheRegion.slot(P);
      uint64_t SlotEnd = slotEnd(P);
      if (H->Lock.holder() != 0) {
        H->Lock.forceBreak();
        ++Stats.LocksBroken;
        if (TraceOn)
          Tc.record(trace::Kind::LockBroken, 0, monotonicNanos(), 0, 0,
                    static_cast<uint32_t>(P));
        Res.Misspec = true;
        Res.Reason = "checkpoint slot lock orphaned by a dead worker";
        Res.MisspecPeriodEnd = SlotEnd;
        break;
      }
      if (!TheRegion.slotHeaderSane(P)) {
        Res.Misspec = true;
        Res.Reason = "corrupted checkpoint slot header";
        Res.MisspecPeriodEnd = SlotEnd;
        break;
      }
      if (H->Poisoned.load(std::memory_order_relaxed)) {
        Res.Misspec = true;
        Res.Reason = "checkpoint slot torn by a worker that died holding "
                     "its lock";
        Res.MisspecPeriodEnd = SlotEnd;
        break;
      }
      if (H->WorkersMerged.load(std::memory_order_acquire) != W) {
        Res.Misspec = true;
        Res.Reason = "incomplete checkpoint (worker lost)";
        Res.MisspecPeriodEnd = SlotEnd;
        break;
      }
      std::string Why;
      uint64_t TraceT0 = TraceOn ? monotonicNanos() : 0;
      uint64_t ScanBefore = CommitScan.BytesScanned;
      CheckpointRegion::CommitStatus St = TheRegion.commitSlot(
          P, MasterShadow, MasterPrivate, Redux,
          heap(HeapKind::Redux).base(), heap(HeapKind::Commutative).base(),
          ComCovered, CommittedIo, Why, &CommitScan);
      if (St == CheckpointRegion::CommitStatus::Misspec) {
        Res.Misspec = true;
        Res.Reason = Why;
        Res.MisspecPeriodEnd = SlotEnd;
        break;
      }
      if (TraceOn)
        Tc.record(trace::Kind::CommitPostJoin, 0, monotonicNanos(), TraceT0,
                  CommitScan.BytesScanned - ScanBefore,
                  static_cast<uint32_t>(P));
      Res.CommittedEnd = SlotEnd;
      ++Stats.Checkpoints;
    }
    Stats.CheckpointDirtyChunks += CommitScan.DirtyChunks;
    Stats.CheckpointBytesScanned += CommitScan.BytesScanned;
    Stats.CheckpointBytesSkipped += CommitScan.BytesSkipped;
    Stats.ComRecordsCommitted += CommitScan.ComRecords;
    for (uint64_t P = 0; P < Plan.NumSlots; ++P)
      if (TheRegion.slot(P)->ComOverflow)
        ++Stats.ComOverflows;
    // "take effect only when the checkpoint is marked non-speculative":
    // only output from committed checkpoints is emitted.
    flushIo(CommittedIo, Options.Out);
  } else {
    if (Flag) {
      Res.Misspec = true;
      Res.Reason = Cb->MisspecReason;
    } else {
      Res.CommittedEnd = Plan.BaseIter + Plan.EpochIters;
    }
  }

  // A worker death can set the misspec flag without the commit loop
  // noticing (e.g. the earliest misspeculated period lies beyond the slots
  // this epoch planned); never report a clean epoch while the flag is up.
  if (Spec && Flag && !Res.Misspec) {
    Res.Misspec = true;
    Res.Reason = Cb->MisspecReason;
  }
  // The pump records its own misspecs inside failCommit (CommitStopped);
  // everything classified after join — worker-raised flags, sweep-detected
  // torn/lost slots — gets one consolidated record here, reason attached.
  if (TraceOn && Res.Misspec && !CommitStopped)
    Tc.record(trace::Kind::Misspec, 0, monotonicNanos(),
              Flag ? Cb->EarliestMisspecIter.load(std::memory_order_relaxed)
                   : Res.CommittedEnd,
              Flag ? MisspecPeriod : 0,
              static_cast<uint32_t>(trace::reasonCode(Res.Reason.c_str())),
              Res.Reason);
  // Eager commits can outrun a late, conservative misspeculation
  // classification: a watchdog kill may report its victim's last known
  // iteration inside a period the pump already committed (the worker
  // merged that period and stalled before starting the next one).
  // Committed slots are valid by construction — every worker published its
  // merge and validation passed — so recovery must never restart behind
  // them; clamp the recovery window to begin at the committed frontier.
  if (Res.Misspec) {
    if (TraceOn && Res.MisspecPeriodEnd < Res.CommittedEnd)
      Tc.record(trace::Kind::RecoveryClamp, 0, monotonicNanos(),
                Res.MisspecPeriodEnd, Res.CommittedEnd, 0);
    Res.MisspecPeriodEnd = std::max(Res.MisspecPeriodEnd, Res.CommittedEnd);
  }

  if (TraceOn) {
    for (unsigned I = 0; I < W; ++I)
      Tc.noteDrops(I, TraceRings[I].takeDropped());
    Tc.record(trace::Kind::Epoch, 0, monotonicNanos(), EpochStartNs,
              Plan.BaseIter, static_cast<uint32_t>(Plan.NumSlots));
  }

  Region = nullptr;
  return Res;
}

bool Runtime::mapCoordination(unsigned W, EpochResult &Res,
                              InvocationStats &Stats) {
  // Fresh anonymous mappings are already zero, so default construction
  // writes only the few fields whose initial value is not zero.
  auto mapShared = [&](size_t Bytes, const char *What) -> void * {
    void *Mem = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (Mem != MAP_FAILED)
      return Mem;
    int Err = errno;
    Stats.ResourceFailures += Err == ENOMEM;
    Res.Degraded = true;
    Res.Reason = std::string(Err == ENOMEM ? "out of memory: " : "") +
                 "mmap " + What + ": " + std::strerror(Err);
    return nullptr;
  };
  void *CbMem = mapShared(sizeof(ControlBlock), "control block");
  if (!CbMem)
    return false;
  Cb = new (CbMem) ControlBlock;
  if (!TraceOn)
    return true;
  void *RingMem = mapShared(W * sizeof(trace::Ring), "trace rings");
  if (!RingMem) {
    unmapCoordination(W);
    return false;
  }
  TraceRings = static_cast<trace::Ring *>(RingMem);
  for (unsigned I = 0; I < W; ++I)
    new (&TraceRings[I]) trace::Ring;
  return true;
}

void Runtime::unmapCoordination(unsigned W) {
  if (Cb)
    munmap(Cb, sizeof(ControlBlock));
  if (TraceRings)
    munmap(TraceRings, W * sizeof(trace::Ring));
  Cb = nullptr;
  TraceRings = nullptr;
}

void Runtime::workerMain(unsigned Id, const EpochPlan &Plan,
                         const ParallelOptions &Options,
                         const IterationFn &Body) {
  bool Spec = !Options.NonSpeculative;
  WorkerId = Id;
  NumWorkers = Options.NumWorkers;
  EpochBase = Plan.BaseIter;
  PeriodLen = Plan.Period;
  LocalStats = WorkerStats();
  PendingIo.clear();
  PendingCom.clear();
  IoSequence = 0;

  // This worker's SPSC trace ring in the shared ring mapping; row 1 + Id
  // on the exported timeline (row 0 is the main process).
  TraceRing = TraceOn ? &TraceRings[Id] : nullptr;
  const uint16_t TraceRow = static_cast<uint16_t>(1 + Id);
  if (TraceRing)
    TraceRing->push(trace::makeEvent(trace::Kind::WorkerBegin, TraceRow,
                                     monotonicNanos(),
                                     static_cast<uint64_t>(getpid()), 0, Id));

  if (Spec) {
    Mode = ExecMode::SpeculativeWorker;
    // Copy-on-write isolation of all speculatively managed heaps (§3.2).
    // A failed remap leaves this worker unable to speculate soundly; it
    // reports misspeculation so the main process recovers sequentially
    // rather than aborting the whole program.
    if (!heap(HeapKind::Private).tryRemapCopyOnWrite() ||
        !heap(HeapKind::ShortLived).tryRemapCopyOnWrite() ||
        !heap(HeapKind::Redux).tryRemapCopyOnWrite() ||
        !heap(HeapKind::Unrestricted).tryRemapCopyOnWrite() ||
        !heap(HeapKind::Commutative).tryRemapCopyOnWrite() ||
        !Shadow.tryRemapCopyOnWrite())
      misspecAbort("copy-on-write remap failed in worker");
    if (Options.ProtectReadOnly) {
      heap(HeapKind::ReadOnly).protectReadOnly();
      ActiveWorkerCb = Cb;
      ActiveWorkerId = Id;
      ActiveWorkerPeriodBase = Plan.BaseIter;
      ActiveWorkerPeriodLen = Plan.Period;
      ActiveWorkerTraceRing = TraceRing;
      // The handler runs on its own stack (SA_ONSTACK) so an iteration
      // body that overflows the worker stack still reports misspeculation
      // instead of dying unclassified.
      stack_t Ss;
      std::memset(&Ss, 0, sizeof(Ss));
      Ss.ss_sp = WorkerAltStack;
      Ss.ss_size = sizeof(WorkerAltStack);
      sigaltstack(&Ss, nullptr);
      struct sigaction Sa;
      std::memset(&Sa, 0, sizeof(Sa));
      Sa.sa_handler = workerSegvHandler;
      Sa.sa_flags = SA_ONSTACK;
      sigaction(SIGSEGV, &Sa, nullptr);
      sigaction(SIGBUS, &Sa, nullptr);
    }
    // "The reduction heap is replaced and bytes within those pages are
    // initialized with the identity value for the reduction operator."
    Redux.fillIdentity();
  } else {
    Mode = ExecMode::NonSpeculativeWorker;
    SeqOut = Options.Out;
  }

  uint64_t InjectThreshold = faultThreshold(Options.InjectMisspecRate);
  // Heartbeat throttling: a monotonicNanos() syscall-ish store per
  // iteration dominates the hot loop for microsecond-scale bodies, yet the
  // watchdog only needs a beat several times per stall window.  Beat every
  // K iterations, doubling K while beats land much faster than the target
  // interval and halving when they fall behind, so slow-iteration phases
  // cannot starve the watchdog.  WorkerIter stays per-iteration — the kill
  // classifier and the pump's cut-off estimate need it exact.
  uint64_t StallNsW =
      Options.StallTimeoutSec > 0
          ? static_cast<uint64_t>(Options.StallTimeoutSec * 1e9)
          : 0;
  uint64_t BeatTargetNs = StallNsW ? StallNsW / 16 : 10000000;
  constexpr uint64_t kBeatEveryMax = 64;
  uint64_t BeatEvery = 1, SinceBeat = 0;
  uint64_t LastBeatNs = monotonicNanos();
  SharedHeap &SL = heap(HeapKind::ShortLived);
  uint8_t *LocalShadow = reinterpret_cast<uint8_t *>(Shadow.base());
  uint8_t *LocalPrivate =
      reinterpret_cast<uint8_t *>(heap(HeapKind::Private).base());
  uint64_t EpochEnd = Plan.BaseIter + Plan.EpochIters;

  MergeContext MergeCtx;
  MergeCtx.SelfPid = static_cast<uint32_t>(getpid());
  MergeCtx.WorkerId = Id;
  MergeCtx.Heartbeat = &Cb->WorkerHeartbeat[Id];
  MergeCtx.LocksBroken = &Cb->LocksBroken;
  MergeCtx.Injector = Injector;
  CheckpointScanStats MergeScan;
  MergeCtx.Scan = &MergeScan;

  bool Stopped = false;
  for (uint64_t P = 0; P < Plan.NumSlots && !Stopped; ++P) {
    uint64_t PeriodStart = Plan.BaseIter + P * Plan.Period;
    uint64_t PeriodEnd = std::min(EpochEnd, PeriodStart + Plan.Period);
    bool Executed = false;

    // This worker's iterations of period P: its cyclic share.
    uint64_t First = PeriodStart;
    uint64_t Phase = (First - Plan.BaseIter) % NumWorkers;
    if (Phase != Id)
      First += (Id + NumWorkers - Phase) % NumWorkers;
    // UsefulSec is CPU time of the whole period loop, bookkeeping below
    // included: two thread-CPU clock reads per period instead of per
    // iteration, which for short bodies cost more than the body itself.
    // A period cut short by misspecAbort contributes nothing.
    double UsefulStart = cpuSeconds();
    for (uint64_t I = First; I < PeriodEnd; I += NumWorkers) {
      CurIter = I;
      Cb->WorkerIter[Id].store(I, std::memory_order_relaxed);
      if (++SinceBeat >= BeatEvery) {
        uint64_t Now = monotonicNanos();
        Cb->WorkerHeartbeat[Id].store(Now, std::memory_order_relaxed);
        if (TraceRing)
          TraceRing->push(
              trace::makeEvent(trace::Kind::Heartbeat, TraceRow, Now, I, 0,
                               Id));
        uint64_t Elapsed = Now - LastBeatNs;
        if (Elapsed * 2 < BeatTargetNs && BeatEvery < kBeatEveryMax)
          BeatEvery *= 2;
        else if (Elapsed > BeatTargetNs && BeatEvery > 1)
          BeatEvery /= 2;
        LastBeatNs = Now;
        SinceBeat = 0;
      }
      if (Injector)
        Injector->onWorkerIteration(Id, I); // May kill or stall us here.
      CurTs = shadow::timestampFor(I, PeriodStart);
      uint64_t ShortLivedLiveAtStart = SL.liveCount();
      Body(I);
      Executed = true;

      if (Spec) {
        // "Each worker counts the number of objects allocated and not
        // freed from its short-lived heap.  If any of these objects is
        // live at the end of an iteration, then lifetime speculation is
        // violated" (§5.1).
        if (SL.liveCount() != ShortLivedLiveAtStart)
          misspecAbort("short-lived object outlived its iteration");
        if (SL.liveCount() == 0)
          SL.resetAllocations();
        if (InjectThreshold &&
            faultHash(I, Options.InjectSeed) < InjectThreshold)
          misspecAbort("injected misspeculation");
      }

      // "Workers consult the global misspeculation flag after each
      // iteration" (§5.3): terminate only if our checkpoint has been
      // squashed; earlier checkpoints still want our contribution.
      if (Cb->MisspecFlag.load(std::memory_order_acquire) &&
          P >= Cb->EarliestMisspecPeriod.load(std::memory_order_relaxed)) {
        Stopped = true;
        break;
      }
    }
    LocalStats.UsefulSec += cpuSeconds() - UsefulStart;

    if (Stopped)
      break;
    if (Spec) {
      CategoryTimer Timer(LocalStats.CheckpointSec);
      uint64_t MergeStartNs = monotonicNanos();
      Cb->WorkerHeartbeat[Id].store(MergeStartNs, std::memory_order_relaxed);
      uint64_t ScanBefore = MergeScan.BytesScanned;
      uint64_t SkipBefore = MergeScan.BytesSkipped;
      Region->workerMerge(P, LocalShadow, LocalPrivate, DirtyMask.data(),
                          Redux, heap(HeapKind::Redux).base(), PendingIo,
                          PendingCom, Executed, MergeCtx);
      if (TraceRing) {
        uint64_t MergeEndNs = monotonicNanos();
        TraceRing->push(trace::makeEvent(trace::Kind::SlotMerge, TraceRow,
                                         MergeEndNs, MergeStartNs, Executed,
                                         static_cast<uint32_t>(P)));
        TraceRing->push(trace::makeEvent(
            trace::Kind::CheckpointScan, TraceRow, MergeEndNs,
            MergeScan.BytesScanned - ScanBefore,
            MergeScan.BytesSkipped - SkipBefore, static_cast<uint32_t>(P)));
      }
      // MergeScan accumulates across periods; snapshot it after every merge
      // so the stats survive a later misspecAbort (which copies LocalStats
      // out and _exits).
      LocalStats.CheckpointDirtyChunks = MergeScan.DirtyChunks;
      LocalStats.CheckpointBytesScanned = MergeScan.BytesScanned;
      LocalStats.CheckpointBytesSkipped = MergeScan.BytesSkipped;
      LocalStats.ComRecordsMerged = MergeScan.ComRecords;
      if (Executed) {
        // Local post-checkpoint reset (§5.1): writes age into old-write,
        // validated live-in reads revert to live-in.  Codes >= 2 can only
        // exist in chunks this period's accesses dirtied (the same
        // argument that makes the sparse merge lossless), so reset walks
        // just those chunks instead of the whole footprint.
        for (uint64_t WI = 0, E = DirtyMask.size(); WI < E; ++WI) {
          uint64_t M = DirtyMask[WI];
          while (M) {
            unsigned Bit = static_cast<unsigned>(__builtin_ctzll(M));
            M &= M - 1;
            uint64_t Base = (WI * 64 + Bit) << kDirtyChunkShift;
            shadow::resetRangeAtCheckpoint(
                LocalShadow + Base,
                std::min(kDirtyChunkBytes, PrivateHighWater - Base));
          }
        }
        std::fill(DirtyMask.begin(), DirtyMask.end(), 0);
        Redux.fillIdentity();
      }
    }
    if (Cb->MisspecFlag.load(std::memory_order_acquire) &&
        P + 1 >= Cb->EarliestMisspecPeriod.load(std::memory_order_relaxed))
      break;
  }

  Cb->Stats[Id] = LocalStats;
  _exit(0);
}
