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

/// Adaptive degradation: after kBackoffAfterMisspecEpochs consecutive
/// misspeculating epochs, the next backoff window runs sequentially.  The
/// window starts at kBackoffBasePeriods checkpoint periods and doubles on
/// every consecutive degradation up to kBackoffMaxPeriods, bounding the
/// worst-case slowdown to a constant factor over sequential.
constexpr unsigned kBackoffAfterMisspecEpochs = 3;
constexpr uint64_t kBackoffBasePeriods = 1;
constexpr uint64_t kBackoffMaxPeriods = 64;

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

/// The worker's epoch plan, which misspecAbort reads; it lives in
/// runParallel's frame, which a worker never returns to.
const EpochPlan *ActiveWorkerPlan = nullptr;

/// Alternate signal stack for the worker's SIGSEGV/SIGBUS handler: a
/// stack-overflowing iteration body must still be classified as
/// misspeculation, and the handler cannot run on the exhausted stack.
/// Static because SIGSTKSZ is no longer a compile-time constant on modern
/// glibc; each forked worker gets its own copy-on-write instance.
alignas(16) char WorkerAltStack[64 * 1024];

/// A store to the protected read-only heap is misspeculation.
/// misspecAbort touches only atomics, plain stores and a string scan
/// before _exit, so it may run in the signal handler.
void workerSegvHandler(int /*Sig*/) {
  Runtime::get().misspecAbort("fault: store to a protected heap");
}

} // namespace

void Runtime::misspecAbort(const char *Reason) {
  if (Mode != ExecMode::SpeculativeWorker)
    reportFatalError(std::string("misspeculation outside a speculative "
                                 "worker: ") +
                     Reason);
  uint64_t Period = ActiveWorkerPlan->periodOf(CurIter);
  Cb->raiseMisspec(CurIter, Period, Reason);
  if (TraceRing)
    TraceRing->push(trace::makeEvent(
        trace::Kind::Misspec, static_cast<uint16_t>(1 + WorkerId),
        monotonicNanos(), CurIter, Period,
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
// Dependence-token channels (DOACROSS, DESIGN.md §15)
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
                                        uint64_t NumIterations,
                                        bool PrivateFree) {
  if (Options.CheckpointPeriod != 0)
    return std::clamp<uint64_t>(Options.CheckpointPeriod, 1, kMaxPeriod);
  uint64_t Quarters = 4 * uint64_t{std::max(1u, Options.NumWorkers)};
  uint64_t Period =
      std::max<uint64_t>((NumIterations + Quarters - 1) / Quarters, 64);
  return PrivateFree ? Period : std::min(Period, kMaxPeriod);
}

InvocationStats Runtime::runParallel(uint64_t NumIterations,
                                     const ParallelOptions &Options,
                                     const IterationFn &Body) {
  assert(Initialized && "runtime not initialized");
  assert(Mode == ExecMode::Sequential && "nested parallel invocation");
  // The control block holds per-worker arrays of kMaxWorkers entries, and
  // zero workers would commit nothing: reject both in every build.
  if (Options.NumWorkers < 1 || Options.NumWorkers > kMaxWorkers)
    reportFatalError("runParallel: worker count " +
                     std::to_string(Options.NumWorkers) + " outside [1, " +
                     std::to_string(kMaxWorkers) + "]");

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

  // Every plan of the invocation is built here: an epoch of at most
  // MaxSlotsPerEpoch periods, or a sequential backoff window.  Only private
  // bytes carry timestamps, so a loop that starts with none (and forwards
  // no dependences) is planned by its trip count alone.
  PrivateFree = heap(HeapKind::Private).liveCount() == 0 &&
                Options.NumDepChannels == 0;
  uint64_t Period = checkpointPeriodFor(Options, NumIterations, PrivateFree);
  auto planFrom = [&](uint64_t Begin, uint64_t Periods) {
    return EpochPlan::starting(Begin, NumIterations, Period, Periods,
                               Options.NumWorkers);
  };

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

  // Adaptive degradation state (see kBackoffAfterMisspecEpochs).
  unsigned ConsecMisspecEpochs = 0;
  uint64_t BackoffPeriods = kBackoffBasePeriods;

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
    if (ConsecMisspecEpochs >= kBackoffAfterMisspecEpochs) {
      EpochPlan Window = planFrom(Next, BackoffPeriods);
      runDegraded(Window.Begin, Window.End, Options, Body, Stats,
                  "adaptive backoff after consecutive misspeculating "
                  "epochs");
      Next = Window.End;
      BackoffPeriods = std::min(BackoffPeriods * 2, kBackoffMaxPeriods);
      ConsecMisspecEpochs = 0; // Give speculation another chance.
      continue;
    }

    EpochPlan Plan = planFrom(Next, ParallelOptions::MaxSlotsPerEpoch);
    ++Stats.Epochs;

    uint64_t FaultsBefore = minorFaults();
    EpochResult Res = runEpoch(Plan, Options, Body, Stats);
    Stats.MainMinorFaults += minorFaults() - FaultsBefore;
    if (Res.Degraded) {
      // Speculation could not start (fork/mmap failure): run this epoch's
      // iterations sequentially and carry on; the next epoch retries
      // speculation in case the resource shortage was transient.
      runDegraded(Plan.Begin, Plan.End, Options, Body, Stats,
                  Res.Reason.c_str());
      Next = Plan.End;
      continue;
    }
    if (!Res.Misspec) {
      Next = Res.CommittedEnd;
      ConsecMisspecEpochs = 0;
      BackoffPeriods = kBackoffBasePeriods;
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
  unsigned W = Plan.NumWorkers;
  uint64_t NumSlots = Plan.numSlots();
  bool Spec = !Options.NonSpeculative;

  EpochResult Res;

  // Shared coordination state, created before the first fork so every
  // worker and the main process observe one instance.  A failed map
  // degrades this epoch and is retried by the next one.
  if (!Cb && !mapCoordination(W, Res, Stats))
    return Res;
  uint64_t NowNs = monotonicNanos();
  Cb->resetForEpoch(W, Plan.Begin, NowNs);

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
  uint64_t PrivateHighWater = heap(HeapKind::Private).highWater();
  if (Spec) {
    // Per-worker dirty-chunk bitmap, sized before fork so every worker's
    // COW copy covers the footprint; workers set bits from the
    // private_read/private_write fast paths and their merges clear them.
    DirtyChunkLimit = dirtyChunkCount(PrivateHighWater);
    DirtyMask.assign(dirtyMaskWords(DirtyChunkLimit), 0);
    Stats.PrivateFootprintBytes =
        std::max(Stats.PrivateFootprintBytes, PrivateHighWater);
    CheckpointRegion::Config C;
    C.Plan = Plan;
    C.PrivateBytes = PrivateHighWater;
    C.ReduxBytes = Redux.packedBytes();
    C.IoCapacity = kIoBytesPerSlot;
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

  // Join and commit as one poll-reap-commit loop.  The watchdog half reaps
  // exits without blocking and SIGKILLs any worker whose heartbeat goes
  // stale for longer than the stall timeout; its last reported iteration
  // is misspeculated, like any other abnormal death.  The pump half asks
  // the commit frontier between reaps and commits each slot it clears, in
  // iteration order (§5.2): the only commit path, so a commit-time
  // misspeculation stops workers while they are still running.
  uint64_t StallNs =
      Options.StallTimeoutSec > 0
          ? static_cast<uint64_t>(Options.StallTimeoutSec * 1e9)
          : 0;
  std::vector<bool> Alive(W, true);
  std::vector<bool> StallKilled(W, false);
  unsigned Remaining = W;

  // Commit state of the pump: the frontier decides, the pump commits.
  std::vector<IoRecord> CommittedIo;
  CheckpointScanStats CommitScan;
  uint8_t *MasterShadow = reinterpret_cast<uint8_t *>(Shadow.base());
  uint8_t *MasterPrivate =
      reinterpret_cast<uint8_t *>(heap(HeapKind::Private).base());
  CommitFrontier Frontier(Plan, Spec ? &TheRegion : nullptr, *Cb);

  // The frontier's failure, once recorded.  While workers live, raise the
  // flag so they stop spending iterations on periods that can no longer
  // commit (§5.3 has them poll after every iteration); the iterations the
  // cut-off saves are each live worker's cyclic share past that period.
  auto onFail = [&] {
    const CommitFrontier::Failure &F = Frontier.failure();
    uint64_t CutStart = Plan.periodBegin(F.Period);
    if (F.Code == trace::Reason::OrphanedLock) {
      ++Stats.LocksBroken; // The frontier broke it at the join.
      if (TraceOn)
        Tc.record(trace::Kind::LockBroken, 0, monotonicNanos(), 0, 0,
                  static_cast<uint32_t>(F.Period));
    }
    if (TraceOn)
      Tc.record(trace::Kind::Misspec, 0, monotonicNanos(), CutStart,
                F.Period, static_cast<uint32_t>(F.Code), F.Reason);
    if (Remaining == 0)
      return;
    ++Stats.EarlyCutoffs;
    uint64_t SavedBefore = Stats.EarlyCutoffItersSaved;
    for (unsigned I = 0; I < W; ++I) {
      if (!Alive[I])
        continue;
      uint64_t NextIter =
          Cb->WorkerIter[I].load(std::memory_order_relaxed) + 1;
      Stats.EarlyCutoffItersSaved +=
          Plan.shareOf(I, std::max(NextIter, CutStart), Plan.End);
    }
    if (TraceOn)
      Tc.record(trace::Kind::EarlyCutoff, 0, monotonicNanos(),
                Stats.EarlyCutoffItersSaved - SavedBefore, 0,
                static_cast<uint32_t>(F.Period));
    Cb->raiseMisspec(CutStart, F.Period, F.Reason.c_str());
  };
  // One pump pass: commit every slot the frontier clears, in iteration
  // order.  A commit that overlaps live workers runs at idle priority.
  auto pumpStep = [&](bool WorkersGone) {
    for (;;) {
      CommitFrontier::Verdict V = Frontier.verdict(WorkersGone);
      if (V == CommitFrontier::Verdict::Wait)
        return;
      if (V == CommitFrontier::Verdict::Fail)
        return onFail();
      uint64_t P = Frontier.next();
      bool Overlapped = Remaining > 0;
      double T0 = Overlapped ? wallSeconds() : 0;
      uint64_t TraceT0 = TraceOn ? monotonicNanos() : 0;
      uint64_t ScanBefore = CommitScan.BytesScanned;
      bool Committed;
      {
        ScopedIdlePriority IdleWhileWorkersRun(Overlapped);
        Committed = Frontier.committed(TheRegion.commitSlot(
            P, MasterShadow, MasterPrivate, Redux, CommittedIo, &CommitScan));
      }
      if (Overlapped) {
        Stats.OverlapSec += wallSeconds() - T0;
        ++Stats.EagerSlots;
      }
      if (!Committed)
        return onFail();
      if (TraceOn)
        Tc.record(trace::Kind::CommitEager, 0, monotonicNanos(), TraceT0,
                  CommitScan.BytesScanned - ScanBefore,
                  static_cast<uint32_t>(P));
      ++Stats.Checkpoints;
    }
  };

  // Between polls the join sleeps in sigtimedwait, woken early by any
  // SIGCHLD.  Stall checks only need a few passes per timeout window; the
  // pump wants lower commit latency while uncommitted slots remain.  With
  // neither left, the sleep only bounds the wait for the next exit.
  uint64_t CheckNs = StallNs ? std::clamp<uint64_t>(StallNs / 8, 1000000,
                                                    50000000)
                             : 50000000;
  constexpr uint64_t kPumpPollNs = 200000; // 200us
  while (Remaining > 0) {
    bool Reaped = false;
    for (unsigned I = 0; I < W; ++I) {
      if (!Alive[I])
        continue;
      int Status = 0;
      pid_t R = waitpid(Pids[I], &Status, WNOHANG);
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
        Cb->raiseMisspec(Iter, Plan.periodOf(Iter), Why);
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
    bool Pumping = Frontier.pending();
    if (Pumping)
      pumpStep(/*WorkersGone=*/false);
    drainTraceRings();
    if (!Reaped) {
      // A SIGCHLD delivered before this point stays pending (the signal is
      // blocked), so sigtimedwait returns immediately: no lost wake-ups.
      uint64_t SleepNs = Pumping ? kPumpPollNs : CheckNs;
      timespec Ts{static_cast<time_t>(SleepNs / 1000000000),
                  static_cast<long>(SleepNs % 1000000000)};
      sigtimedwait(&ChldMask, nullptr, &Ts);
    }
  }
  // Final pass with every worker reaped: the frontier commits what the last
  // merges made ready, then classifies the first slot left, if any.
  pumpStep(/*WorkersGone=*/true);
  drainTraceRings(); // All workers reaped: rings are quiescent from here.
  sigprocmask(SIG_SETMASK, &OldMask, nullptr);

  for (unsigned I = 0; I < W; ++I)
    Stats.addWorker(Cb->Stats[I]);
  Stats.LocksBroken += Cb->LocksBroken.load(std::memory_order_relaxed);
  if (Spec) {
    Stats.CheckpointDirtyChunks += CommitScan.DirtyChunks;
    Stats.CheckpointBytesScanned += CommitScan.BytesScanned;
    Stats.CheckpointBytesSkipped += CommitScan.BytesSkipped;
    // Every committed slot combined each reduction copy once.
    Stats.ComRecordsCommitted += Redux.objects().size() * Frontier.next();
    // "take effect only when the checkpoint is marked non-speculative":
    // only output from committed checkpoints is emitted.
    flushIo(CommittedIo, Options.Out);
  }

  if (Frontier.finish())
    onFail();
  Res.CommittedEnd = Frontier.committedEnd();
  Res.Misspec = Frontier.failed();
  if (Res.Misspec) {
    const CommitFrontier::Failure &F = Frontier.failure();
    Res.Reason = F.Reason;
    Res.MisspecPeriodEnd = Frontier.recoveryEnd();
    if (TraceOn && F.End < Res.CommittedEnd)
      Tc.record(trace::Kind::RecoveryClamp, 0, monotonicNanos(), F.End,
                Res.CommittedEnd, 0);
  }

  if (TraceOn) {
    for (unsigned I = 0; I < W; ++I)
      Tc.noteDrops(I, TraceRings[I].takeDropped());
    Tc.record(trace::Kind::Epoch, 0, monotonicNanos(), EpochStartNs,
              Plan.Begin, static_cast<uint32_t>(NumSlots));
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
  ActiveWorkerPlan = &Plan;
  LocalStats = WorkerStats();
  PendingIo.clear();
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
        (!PrivateFree && !Shadow.tryRemapCopyOnWrite()))
      misspecAbort("copy-on-write remap failed in worker");
    // Write-protect the read-only heap: a stray store becomes a SIGSEGV,
    // which the handler below converts into misspeculation.  A private-free
    // plan's periods outrun the one-byte timestamps, so its shadow admits
    // no access at all: every privacy check faults the same way.
    heap(HeapKind::ReadOnly).protect(PROT_READ);
    if (PrivateFree)
      Shadow.protect(PROT_NONE);
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

  MergeContext MergeCtx;
  MergeCtx.SelfPid = static_cast<uint32_t>(getpid());
  MergeCtx.WorkerId = Id;
  MergeCtx.Heartbeat = &Cb->WorkerHeartbeat[Id];
  MergeCtx.LocksBroken = &Cb->LocksBroken;
  MergeCtx.Injector = Injector;
  CheckpointScanStats MergeScan;
  MergeCtx.Scan = &MergeScan;

  // Faults of the period loop, snapshot after every period so they survive
  // a later misspecAbort, as the merge's scan stats do.
  uint64_t FaultsAtStart = minorFaults();
  bool Stopped = false;
  for (uint64_t P = 0, NumSlots = Plan.numSlots(); P < NumSlots && !Stopped;
       ++P) {
    uint64_t PeriodStart = Plan.periodBegin(P);
    uint64_t PeriodEnd = Plan.periodEnd(P);
    bool Executed = false;
    // UsefulSec is CPU time of the whole period loop, bookkeeping below
    // included: two thread-CPU clock reads per period instead of per
    // iteration, which for short bodies cost more than the body itself.
    // A period cut short by misspecAbort contributes nothing.
    double UsefulStart = cpuSeconds();
    // This worker's iterations of period P: its cyclic share.
    for (uint64_t I = Plan.firstAtOrAfter(Id, PeriodStart); I < PeriodEnd;
         I += Plan.NumWorkers) {
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
      if (Cb->periodDoomed(P)) {
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
                          Redux, PendingIo, Executed, MergeCtx);
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
      LocalStats.ComRecordsMerged += Executed ? Redux.objects().size() : 0;
    }
    LocalStats.WorkerMinorFaults = minorFaults() - FaultsAtStart;
    if (Cb->periodDoomed(P + 1))
      break;
  }

  LocalStats.WorkerMinorFaults = minorFaults() - FaultsAtStart;
  Cb->Stats[Id] = LocalStats;
  _exit(0);
}
