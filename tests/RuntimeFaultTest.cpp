//===- tests/RuntimeFaultTest.cpp - Fault-tolerance recovery tests -------===//
//
// Exercises the runtime's hardened fault model: workers SIGKILLed
// mid-epoch, workers stalled until the watchdog reclaims them, checkpoint
// slot locks orphaned by dead holders, fork failures, torn slot headers,
// and the adaptive sequential-backoff policy.  Every scenario must
// terminate (no hang) and produce output identical to the sequential run.
//
//===----------------------------------------------------------------------===//

#include "runtime/Privateer.h"
#include "support/Statistics.h"
#include "support/Timing.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

using namespace privateer;

namespace {

/// Paces an iteration at roughly \p Us microseconds so the main process's
/// commit pump demonstrably overlaps with live workers even on a one-core
/// host (the worker sleeps while the pump commits).
void paceIteration(long Us) {
  timespec Ts{0, Us * 1000};
  nanosleep(&Ts, nullptr);
}

class RuntimeFaultTest : public ::testing::Test {
protected:
  void SetUp() override {
    RuntimeConfig C;
    C.PrivateBytes = 1u << 20;
    C.ReadOnlyBytes = 1u << 20;
    C.ReduxBytes = 1u << 20;
    C.ShortLivedBytes = 1u << 20;
    C.UnrestrictedBytes = 1u << 20;
    Runtime::get().initialize(C);
  }
  void TearDown() override { Runtime::get().shutdown(); }

  /// The reference body: Out[I] = I*I + 7.  Any recovery path that loses,
  /// duplicates, or reorders an iteration's effect breaks the comparison.
  static long expected(uint64_t I) {
    return static_cast<long>(I) * static_cast<long>(I) + 7;
  }

  long *makeOut(uint64_t N) {
    return static_cast<long *>(h_alloc(N * sizeof(long), HeapKind::Private));
  }

  IterationFn makeBody(long *Out) {
    return [Out](uint64_t I) {
      private_write(&Out[I], sizeof(long));
      Out[I] = expected(I);
    };
  }

  static void expectSequentialResult(const long *Out, uint64_t N) {
    for (uint64_t I = 0; I < N; ++I)
      ASSERT_EQ(Out[I], expected(I)) << "iteration " << I;
  }
};

TEST_F(RuntimeFaultTest, WorkerKilledMidEpochRecovers) {
  constexpr uint64_t N = 200;
  long *Out = makeOut(N);

  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  // Worker 1 owns iteration 17 under cyclic scheduling (17 % 4 == 1); it
  // is SIGKILLed there, mid-epoch, leaving its checkpoint contributions
  // unmerged from that period onward.
  Opt.Faults.KillWorker = 1;
  Opt.Faults.KillAtIter = 17;

  InvocationStats Stats = Runtime::get().runParallel(N, Opt, makeBody(Out));

  EXPECT_GE(Stats.Misspecs, 1u);
  EXPECT_GT(Stats.RecoveredIterations, 0u);
  EXPECT_NE(Stats.FirstMisspecReason.find("worker"), std::string::npos)
      << Stats.FirstMisspecReason;
  expectSequentialResult(Out, N);
}

TEST_F(RuntimeFaultTest, FullMisspeculationRateStillComputesExactResult) {
  constexpr uint64_t N = 120;
  long *Out = makeOut(N);

  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  Opt.InjectMisspecRate = 1.0; // Every speculative iteration fails.

  InvocationStats Stats = Runtime::get().runParallel(N, Opt, makeBody(Out));

  EXPECT_GE(Stats.Misspecs, 1u);
  // With every epoch misspeculating, the adaptive policy must kick in and
  // run sequential backoff windows (default: after 3 consecutive misses).
  EXPECT_GE(Stats.DegradedEpochs, 1u);
  EXPECT_GT(Stats.DegradedIterations, 0u);
  expectSequentialResult(Out, N);
}

TEST_F(RuntimeFaultTest, StalledWorkerIsReclaimedByWatchdog) {
  constexpr uint64_t N = 100;
  long *Out = makeOut(N);

  StatisticRegistry &Reg = StatisticRegistry::instance();
  uint64_t StallsBefore = Reg.get("fault", "stalled-workers-killed");

  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  // Scaled so sanitizer CI (several-fold slower) cannot see a healthy
  // worker's merge mistaken for a stall.
  Opt.StallTimeoutSec = 0.3 * timeoutScale();
  // Worker 2 hangs forever at iteration 2; without the watchdog the join
  // would deadlock and this test would never finish.
  Opt.Faults.StallWorker = 2;
  Opt.Faults.StallAtIter = 2;
  Opt.Faults.StallSeconds = 3600.0;

  InvocationStats Stats = Runtime::get().runParallel(N, Opt, makeBody(Out));

  EXPECT_GE(Stats.StalledWorkersKilled, 1u);
  EXPECT_GE(Stats.Misspecs, 1u);
  EXPECT_NE(Stats.FirstMisspecReason.find("watchdog"), std::string::npos)
      << Stats.FirstMisspecReason;
  EXPECT_GE(Reg.get("fault", "stalled-workers-killed"), StallsBefore + 1);
  expectSequentialResult(Out, N);
}

TEST_F(RuntimeFaultTest, OrphanedSlotLockIsBrokenNotDeadlocked) {
  constexpr uint64_t N = 200;
  long *Out = makeOut(N);

  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  // Worker 1 dies by SIGKILL immediately after acquiring slot 0's lock.
  // Siblings merging slot 0 (or the committer) must detect the dead
  // holder, break the lock, and treat the slot as unusable.
  Opt.Faults.LockDeathWorker = 1;
  Opt.Faults.LockDeathSlot = 0;

  InvocationStats Stats = Runtime::get().runParallel(N, Opt, makeBody(Out));

  EXPECT_GE(Stats.LocksBroken, 1u);
  EXPECT_GE(Stats.Misspecs, 1u);
  expectSequentialResult(Out, N);
}

TEST_F(RuntimeFaultTest, ForkFailureDegradesToSequential) {
  constexpr uint64_t N = 150;
  long *Out = makeOut(N);

  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  Opt.Faults.FailForkN = 1; // The very first fork of the invocation fails.

  InvocationStats Stats = Runtime::get().runParallel(N, Opt, makeBody(Out));

  EXPECT_EQ(Stats.ForkFailures, 1u);
  EXPECT_GE(Stats.DegradedEpochs, 1u);
  EXPECT_NE(Stats.FirstDegradeReason.find("fork"), std::string::npos)
      << Stats.FirstDegradeReason;
  expectSequentialResult(Out, N);
}

TEST_F(RuntimeFaultTest, CorruptSlotHeaderIsDetectedAtCommit) {
  constexpr uint64_t N = 200;
  long *Out = makeOut(N);

  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  Opt.Faults.CorruptSlot = 1; // Tear slot 1's header mid-epoch.

  InvocationStats Stats = Runtime::get().runParallel(N, Opt, makeBody(Out));

  EXPECT_GE(Stats.Misspecs, 1u);
  EXPECT_NE(Stats.FirstMisspecReason.find("corrupt"), std::string::npos)
      << Stats.FirstMisspecReason;
  expectSequentialResult(Out, N);
}

TEST_F(RuntimeFaultTest, AdaptiveBackoffGrowsUnderPersistentHostility) {
  constexpr uint64_t N = 300;
  long *Out = makeOut(N);

  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  Opt.InjectMisspecRate = 1.0;
  Opt.DegradeAfterMisspecEpochs = 1; // Degrade aggressively.
  Opt.DegradeBasePeriods = 1;
  Opt.DegradeMaxPeriods = 16;

  InvocationStats Stats = Runtime::get().runParallel(N, Opt, makeBody(Out));

  // Hostile input: most of the loop must end up in sequential windows, and
  // the exponential backoff means few speculative epochs are attempted.
  EXPECT_GE(Stats.DegradedEpochs, 2u);
  EXPECT_GT(Stats.DegradedIterations, N / 4);
  expectSequentialResult(Out, N);
}

TEST_F(RuntimeFaultTest, HealthyRunTriggersNoFaultMachinery) {
  constexpr uint64_t N = 200;
  long *Out = makeOut(N);

  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 16;
  // Watchdog armed but must stay quiet; scaled for sanitizer builds.
  Opt.StallTimeoutSec = 0.5 * timeoutScale();

  InvocationStats Stats = Runtime::get().runParallel(N, Opt, makeBody(Out));

  EXPECT_EQ(Stats.Misspecs, 0u);
  EXPECT_EQ(Stats.StalledWorkersKilled, 0u);
  EXPECT_EQ(Stats.LocksBroken, 0u);
  EXPECT_EQ(Stats.DegradedEpochs, 0u);
  EXPECT_EQ(Stats.ForkFailures, 0u);
  expectSequentialResult(Out, N);
}

TEST_F(RuntimeFaultTest, IoOverflowRecoveryEmitsExactSequentialOutput) {
  // Slots whose deferred-output buffer overflows must misspeculate and be
  // re-executed sequentially — and the worker's pending records must stay
  // with the worker at merge time, not be dropped before recovery runs.
  // The observable contract: byte-identical output to the sequential run.
  constexpr uint64_t N = 96;
  long *Out = makeOut(N);

  std::string Expected;
  for (uint64_t I = 0; I < N; ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "it %llu v %ld\n",
                  static_cast<unsigned long long>(I), expected(I));
    Expected += Buf;
  }

  auto Body = [Out](uint64_t I) {
    private_write(&Out[I], sizeof(long));
    Out[I] = expected(I);
    Runtime::get().deferPrintf("it %llu v %ld\n",
                               static_cast<unsigned long long>(I),
                               expected(I));
  };

  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  // Far too small for a period's records: every speculative slot
  // overflows, so all output must arrive through misspec recovery.
  Opt.IoCapacityPerSlot = 32;
  std::FILE *Sink = std::tmpfile();
  ASSERT_NE(Sink, nullptr);
  Opt.Out = Sink;

  InvocationStats Stats = Runtime::get().runParallel(N, Opt, Body);

  EXPECT_GE(Stats.Misspecs, 1u);
  EXPECT_NE(Stats.FirstMisspecReason.find("overflow"), std::string::npos)
      << Stats.FirstMisspecReason;
  expectSequentialResult(Out, N);

  std::rewind(Sink);
  std::string Got;
  char Buf[4096];
  size_t R;
  while ((R = std::fread(Buf, 1, sizeof(Buf), Sink)) > 0)
    Got.append(Buf, R);
  std::fclose(Sink);
  EXPECT_EQ(Got, Expected) << "deferred output lost or duplicated across "
                              "I/O-overflow recovery";
}

TEST_F(RuntimeFaultTest, SlotChunkCapacityOverflowRecovers) {
  // A bounded per-slot chunk capacity (the knob that trades checkpoint
  // region size for overflow risk) must degrade soundly: a period dirtying
  // more chunks than the slot holds misspeculates and recovers, never
  // commits a truncated image.
  constexpr uint64_t N = 64;
  constexpr uint64_t kStride = 512; // longs; 4096 B — one chunk per iter.
  auto *Big = static_cast<long *>(
      h_alloc(N * kStride * sizeof(long), HeapKind::Private));

  auto Body = [Big](uint64_t I) {
    private_write(&Big[I * kStride], sizeof(long));
    Big[I * kStride] = expected(I);
  };

  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;  // 8 distinct chunks dirtied per period...
  Opt.CheckpointSlotChunks = 2; // ...into slots that can only hold 2.

  InvocationStats Stats = Runtime::get().runParallel(N, Opt, Body);

  EXPECT_GE(Stats.Misspecs, 1u);
  EXPECT_NE(Stats.FirstMisspecReason.find("chunk capacity"),
            std::string::npos)
      << Stats.FirstMisspecReason;
  for (uint64_t I = 0; I < N; ++I)
    ASSERT_EQ(Big[I * kStride], expected(I)) << "iteration " << I;
}

TEST_F(RuntimeFaultTest, DirtyChunkStatsTrackTouchedBytesNotFootprint) {
  constexpr uint64_t N = 128;
  long *Out = makeOut(N);
  // A large allocation nobody touches: it raises the checkpointed
  // footprint, and with dirty-range tracking it must cost the merges and
  // commits nothing at all.
  (void)h_alloc(512u << 10, HeapKind::Private);

  StatisticRegistry &Reg = StatisticRegistry::instance();
  uint64_t ChunksBefore = Reg.get("checkpoint", "dirty_chunks");

  ParallelOptions Opt;
  Opt.NumWorkers = 2;
  Opt.CheckpointPeriod = 16;

  InvocationStats Stats = Runtime::get().runParallel(N, Opt, makeBody(Out));

  EXPECT_EQ(Stats.Misspecs, 0u) << Stats.FirstMisspecReason;
  EXPECT_GT(Stats.CheckpointDirtyChunks, 0u);
  EXPECT_GE(Stats.PrivateFootprintBytes, 512u << 10);
  // The loop only ever touches Out (N*sizeof(long) bytes, a chunk or
  // two); merges and commits together must walk a small multiple of that,
  // far below footprint x periods, which is what the dense scan cost.
  uint64_t Walked =
      Stats.CheckpointBytesScanned + Stats.CheckpointBytesSkipped;
  EXPECT_GT(Walked, 0u);
  uint64_t Periods = (N + Opt.CheckpointPeriod - 1) / Opt.CheckpointPeriod;
  EXPECT_LT(Walked, Stats.PrivateFootprintBytes * Periods / 4)
      << "checkpoint walk cost still scales with the footprint";
  EXPECT_GT(Reg.get("checkpoint", "dirty_chunks"), ChunksBefore);
  expectSequentialResult(Out, N);
}

TEST_F(RuntimeFaultTest, EagerCommitOverlapsCommitsWithLiveWorkers) {
  // Healthy epoch, paced iterations: the pump must commit nearly every
  // slot while workers are still running, and the EagerCommit=false
  // baseline must behave identically except for the overlap counters.
  constexpr uint64_t N = 200;
  long *Out = makeOut(N);

  StatisticRegistry &Reg = StatisticRegistry::instance();
  uint64_t EagerBefore = Reg.get("commit", "eager_slots");

  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  auto Body = [this, Out](uint64_t I) {
    paceIteration(100);
    makeBody(Out)(I);
  };

  InvocationStats Stats = Runtime::get().runParallel(N, Opt, Body);

  EXPECT_EQ(Stats.Misspecs, 0u) << Stats.FirstMisspecReason;
  EXPECT_EQ(Stats.Checkpoints, N / Opt.CheckpointPeriod);
  EXPECT_GE(Stats.EagerSlots, 1u)
      << "no slot committed while a worker was alive";
  EXPECT_GT(Stats.OverlapSec, 0.0);
  EXPECT_EQ(Stats.EarlyCutoffs, 0u);
  EXPECT_GE(Reg.get("commit", "eager_slots"), EagerBefore + 1);
  expectSequentialResult(Out, N);

  // The gate: post-join commit must still work and never report overlap.
  long *Out2 = makeOut(N);
  Opt.EagerCommit = false;
  InvocationStats PostJoin =
      Runtime::get().runParallel(N, Opt, [this, Out2](uint64_t I) {
        paceIteration(100);
        makeBody(Out2)(I);
      });
  EXPECT_EQ(PostJoin.Misspecs, 0u) << PostJoin.FirstMisspecReason;
  EXPECT_EQ(PostJoin.Checkpoints, N / Opt.CheckpointPeriod);
  EXPECT_EQ(PostJoin.EagerSlots, 0u);
  EXPECT_EQ(PostJoin.OverlapSec, 0.0);
  expectSequentialResult(Out2, N);
}

TEST_F(RuntimeFaultTest, CommitPhaseMisspecCutsOffWorkersMidEpoch) {
  // A loop-carried flow dependence at distance 9 with period 8: the read
  // lands one period after the write, in a different worker, so the inline
  // Table 2 test cannot see it — only the ordered commit's phase-2 check
  // against the master shadow.  With the pump, that check runs mid-epoch:
  // the misspec flag must go up while workers still have most of the epoch
  // ahead of them, and the iterations they skip are pure savings because
  // every period past the doomed one is re-executed after recovery anyway.
  constexpr uint64_t N = 256;
  constexpr uint64_t kDist = 9;
  auto *A = static_cast<long *>(h_alloc(N * sizeof(long), HeapKind::Private));
  for (uint64_t I = 0; I < N; ++I)
    A[I] = 0;

  std::vector<long> Want(N);
  for (uint64_t I = 0; I < N; ++I)
    Want[I] = static_cast<long>(I) + 1 + (I >= kDist ? Want[I - kDist] : 0);

  StatisticRegistry &Reg = StatisticRegistry::instance();
  uint64_t SavedBefore = Reg.get("commit", "early_cutoff_iters_saved");

  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  auto Body = [A](uint64_t I) {
    paceIteration(100);
    long V = static_cast<long>(I) + 1;
    if (I >= kDist) {
      private_read(&A[I - kDist], sizeof(long));
      V += A[I - kDist];
    }
    private_write(&A[I], sizeof(long));
    A[I] = V;
  };

  InvocationStats Stats = Runtime::get().runParallel(N, Opt, Body);

  EXPECT_GE(Stats.Misspecs, 1u);
  EXPECT_NE(Stats.FirstMisspecReason.find("flow dependence"),
            std::string::npos)
      << Stats.FirstMisspecReason;
  EXPECT_GE(Stats.EarlyCutoffs, 1u)
      << "the pump never caught the violation while workers were alive";
  EXPECT_GT(Stats.EarlyCutoffItersSaved, 0u);
  EXPECT_GT(Reg.get("commit", "early_cutoff_iters_saved"), SavedBefore);
  for (uint64_t I = 0; I < N; ++I)
    ASSERT_EQ(A[I], Want[I]) << "iteration " << I;
}

TEST_F(RuntimeFaultTest, WorkerKilledAfterEagerCommitsRecoversFromFrontier) {
  // Worker 2 is SIGKILLed deep into the epoch, long after the pump has
  // committed the early slots.  Recovery must restart from the committed
  // frontier — the periods the pump already committed stay committed and
  // are never re-executed — and the final output must match sequential.
  constexpr uint64_t N = 200;
  constexpr uint64_t kPeriod = 8;
  long *Out = makeOut(N);

  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = kPeriod;
  Opt.Faults.KillWorker = 2;
  Opt.Faults.KillAtIter = 150; // Period 18 of 25; 150 % 4 == 2.
  auto Body = [this, Out](uint64_t I) {
    paceIteration(100);
    makeBody(Out)(I);
  };

  InvocationStats Stats = Runtime::get().runParallel(N, Opt, Body);

  EXPECT_GE(Stats.Misspecs, 1u);
  EXPECT_NE(Stats.FirstMisspecReason.find("worker"), std::string::npos)
      << Stats.FirstMisspecReason;
  EXPECT_GE(Stats.EagerSlots, 1u)
      << "paced iterations must give the pump time to commit mid-epoch";
  // Every slot before the victim's period had all four merges, so all 18
  // commit; the kill costs only its own period's recovery window, plus the
  // clean follow-up epoch for the rest.
  EXPECT_GE(Stats.Checkpoints, 18u);
  EXPECT_LE(Stats.RecoveredIterations, 2 * kPeriod)
      << "recovery restarted behind the eagerly committed frontier";
  expectSequentialResult(Out, N);
}

TEST_F(RuntimeFaultTest, CorruptSlotHeaderIsCaughtByThePumpMidEpoch) {
  // The injector scribbles slot 1's header right after spawn.  The pump
  // polls stable header fields every pass, so it must observe the damage
  // as soon as slot 0 commits — while workers are still executing later
  // periods — and cut the epoch short instead of leaving detection to the
  // post-join sweep.
  constexpr uint64_t N = 256;
  long *Out = makeOut(N);

  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  Opt.Faults.CorruptSlot = 1;
  auto Body = [this, Out](uint64_t I) {
    paceIteration(100);
    makeBody(Out)(I);
  };

  InvocationStats Stats = Runtime::get().runParallel(N, Opt, Body);

  EXPECT_GE(Stats.Misspecs, 1u);
  EXPECT_NE(Stats.FirstMisspecReason.find("corrupt"), std::string::npos)
      << Stats.FirstMisspecReason;
  EXPECT_GE(Stats.EarlyCutoffs, 1u)
      << "detection was left to the post-join sweep";
  EXPECT_GT(Stats.EarlyCutoffItersSaved, 0u);
  expectSequentialResult(Out, N);
}

TEST_F(RuntimeFaultTest, RandomizedWorkerKillsConvergeDeterministically) {
  constexpr uint64_t N = 160;
  long *Out = makeOut(N);

  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  Opt.Faults.KillRate = 0.02; // Seed-driven: same iterations die each run.
  Opt.Faults.Seed = 7;

  InvocationStats Stats = Runtime::get().runParallel(N, Opt, makeBody(Out));

  EXPECT_GE(Stats.Misspecs, 1u);
  expectSequentialResult(Out, N);
}

// --- DOACROSS token chain rollback ------------------------------------
//
// A distance-1 chain: iteration I waits for I-1's token on channel 0,
// stores prev*5 + I*I + 7 and posts it.  At W=3 every token crosses to
// another worker, so the chain is a pipeline whose stages are the
// workers, and losing an iteration without a correct rollback and
// in-order sequential re-post would surface as a wrong Out[I] downstream.

namespace doacross {

uint64_t step(uint64_t Prev, uint64_t I) { return Prev * 5 + I * I + 7; }

IterationFn makeBody(long *Out) {
  return [Out](uint64_t I) {
    Runtime &Rt = Runtime::get();
    uint64_t V = step(Rt.waitDep(I - 1, 0), I);
    Rt.postDep(I, 0, V);
    private_write(&Out[I], sizeof(long));
    Out[I] = static_cast<long>(V);
  };
}

ParallelOptions options() {
  ParallelOptions Opt;
  Opt.NumWorkers = 3;
  Opt.CheckpointPeriod = 8;
  Opt.NumDepChannels = 1;
  // Iteration 0's wait targets iteration -1, which nobody posts.
  Runtime::get().setDepFloor(0);
  return Opt;
}

void expectChain(const long *Out, uint64_t N) {
  uint64_t V = 0;
  for (uint64_t I = 0; I < N; ++I) {
    V = step(V, I);
    ASSERT_EQ(Out[I], static_cast<long>(V)) << "iteration " << I;
  }
}

} // namespace doacross

TEST_F(RuntimeFaultTest, HealthyStagedPipelineMatchesSequential) {
  constexpr uint64_t N = 200;
  long *Out = makeOut(N);

  InvocationStats Stats = Runtime::get().runParallel(
      N, doacross::options(), doacross::makeBody(Out));

  EXPECT_EQ(Stats.Misspecs, 0u) << Stats.FirstMisspecReason;
  EXPECT_GT(Stats.DepPosts, 0u);
  EXPECT_GT(Stats.DepWaits, 0u);
  doacross::expectChain(Out, N);
}

TEST_F(RuntimeFaultTest, StageWorkerKilledMidPipelineRecovers) {
  constexpr uint64_t N = 200;
  long *Out = makeOut(N);

  ParallelOptions Opt = doacross::options();
  // Iteration 16 is in worker 1's cyclic share (16 % 3 == 1).  Its token
  // never arrives; the committed prefix stays and recovery re-runs and
  // re-posts the rest of the chain in order.
  Opt.Faults.KillWorker = 1;
  Opt.Faults.KillAtIter = 16;

  InvocationStats Stats =
      Runtime::get().runParallel(N, Opt, doacross::makeBody(Out));

  EXPECT_GE(Stats.Misspecs, 1u);
  EXPECT_GT(Stats.RecoveredIterations, 0u);
  doacross::expectChain(Out, N);
}

TEST_F(RuntimeFaultTest, CorruptStageCommitSlotRollsBackToFrontier) {
  constexpr uint64_t N = 200;
  long *Out = makeOut(N);

  ParallelOptions Opt = doacross::options();
  Opt.Faults.CorruptSlot = 1; // Tear a slot header mid-epoch.

  InvocationStats Stats =
      Runtime::get().runParallel(N, Opt, doacross::makeBody(Out));

  EXPECT_GE(Stats.Misspecs, 1u);
  EXPECT_NE(Stats.FirstMisspecReason.find("corrupt"), std::string::npos)
      << Stats.FirstMisspecReason;
  doacross::expectChain(Out, N);
}

TEST_F(RuntimeFaultTest, StalledStageProducerIsReclaimedNotDeadlocked) {
  constexpr uint64_t N = 120;
  long *Out = makeOut(N);

  ParallelOptions Opt = doacross::options();
  Opt.StallTimeoutSec = 0.3 * timeoutScale();
  // Worker 0 hangs forever at iteration 6, before posting its token.
  // Worker 1 blocks in waitDep for it at iteration 7; without the
  // watchdog (or the bounded dependence wait) the join would deadlock and
  // this test would never finish.
  Opt.Faults.StallWorker = 0;
  Opt.Faults.StallAtIter = 6;
  Opt.Faults.StallSeconds = 3600.0;

  InvocationStats Stats =
      Runtime::get().runParallel(N, Opt, doacross::makeBody(Out));

  EXPECT_GE(Stats.Misspecs, 1u);
  doacross::expectChain(Out, N);
}

} // namespace
