//===- tests/EpochBookkeepingTest.cpp - Per-invocation epoch state -------===//
//
// The control block is mapped once per parallel invocation and re-armed at
// every epoch start, and the trace rings get their own mapping only when
// tracing.  These tests run many epochs through one block, put a
// misspeculation, a worker death or an orphaned lock into an early epoch
// only, and check that nothing from that epoch leaks into the later ones.
// They also check that InvocationStats totals add every field.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "runtime/Privateer.h"
#include "transform/Pipeline.h"
#include "workloads/IrPrograms.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace privateer;

namespace {

class EpochBookkeepingTest : public ::testing::Test {
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

  static long expected(uint64_t I) {
    return static_cast<long>(I) * static_cast<long>(I) + 7;
  }

  long *makeOut(uint64_t N) {
    return static_cast<long *>(h_alloc(N * sizeof(long), HeapKind::Private));
  }

  void expectSequentialResult(const long *Out, uint64_t N) {
    for (uint64_t I = 0; I < N; ++I)
      EXPECT_EQ(Out[I], expected(I)) << "iteration " << I;
  }
};

std::string readAll(std::FILE *F) {
  std::string S;
  std::rewind(F);
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    S.append(Buf, N);
  return S;
}

/// Shared anonymous mappings of exactly \p Bytes (rounded to pages) in the
/// calling process.
int sharedMappingsOfSize(uint64_t Bytes) {
  uint64_t Page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  uint64_t Want = (Bytes + Page - 1) / Page * Page;
  std::FILE *F = std::fopen("/proc/self/maps", "r");
  if (!F)
    return -1;
  int Count = 0;
  char Line[512];
  while (std::fgets(Line, sizeof(Line), F)) {
    uint64_t Lo = 0, Hi = 0;
    char Perms[8] = {};
    if (std::sscanf(Line, "%" SCNx64 "-%" SCNx64 " %7s", &Lo, &Hi, Perms) ==
            3 &&
        Perms[3] == 's' && Hi - Lo == Want)
      ++Count;
  }
  std::fclose(F);
  return Count;
}

TEST(ControlBlockReset, ClearsEpochStateForTheEpochsWorkersOnly) {
  auto Cb = std::make_unique<ControlBlock>();
  Cb->raiseMisspec(40, 5, "stale reason");
  Cb->LocksBroken.store(3);
  for (unsigned I = 0; I < kMaxWorkers; ++I) {
    Cb->WorkerIter[I].store(99);
    Cb->WorkerHeartbeat[I].store(7);
    Cb->Stats[I].SeparationChecks = 11;
  }
  Cb->resetForEpoch(/*NumWorkers=*/3, /*BaseIter=*/64, /*NowNs=*/1000);
  EXPECT_EQ(Cb->MisspecFlag.load(), 0u);
  EXPECT_EQ(Cb->EarliestMisspecIter.load(), kNoMisspec);
  EXPECT_EQ(Cb->EarliestMisspecPeriod.load(), kNoMisspec);
  EXPECT_STREQ(Cb->MisspecReason, "");
  EXPECT_EQ(Cb->LocksBroken.load(), 0u);
  for (unsigned I = 0; I < 3; ++I) {
    EXPECT_EQ(Cb->WorkerIter[I].load(), 64u);
    EXPECT_EQ(Cb->WorkerHeartbeat[I].load(), 1000u);
    EXPECT_EQ(Cb->Stats[I].SeparationChecks, 0u);
  }
  // O(W): entries past the epoch's workers are left alone.
  EXPECT_EQ(Cb->Stats[3].SeparationChecks, 11u);

  // After a reset the next raise wins the reason again; later raisers
  // only lower the earliest iteration and period.
  Cb->raiseMisspec(80, 2, std::string(300, 'x').c_str());
  Cb->raiseMisspec(70, 1, "second");
  EXPECT_EQ(Cb->MisspecFlag.load(), 1u);
  EXPECT_EQ(Cb->EarliestMisspecIter.load(), 70u);
  EXPECT_EQ(Cb->EarliestMisspecPeriod.load(), 1u);
  EXPECT_EQ(std::string(Cb->MisspecReason),
            std::string(sizeof(Cb->MisspecReason) - 1, 'x'));
}

TEST_F(EpochBookkeepingTest, EarlyMisspecDoesNotLeakIntoLaterEpochs) {
  // Eight epochs through one control block.
  constexpr uint64_t Period = 8;
  constexpr uint64_t EpochLen = ParallelOptions::MaxSlotsPerEpoch * Period;
  constexpr uint64_t N = 8 * EpochLen;
  // In the second epoch's last period, so recovery ends at the epoch's
  // boundary and the later epochs keep theirs.
  constexpr uint64_t BadIter = 2 * EpochLen - Period + 3;
  long *Out = makeOut(N);
  std::FILE *Tmp = std::tmpfile();
  ASSERT_NE(Tmp, nullptr);

  ParallelOptions Opt;
  Opt.NumWorkers = 3;
  Opt.CheckpointPeriod = Period;
  Opt.Out = Tmp;
  InvocationStats Stats = Runtime::get().runParallel(N, Opt, [&](uint64_t I) {
    private_write(&Out[I], sizeof(long));
    Out[I] = expected(I);
    Runtime::get().deferPrintf("iter %llu\n",
                               static_cast<unsigned long long>(I));
    // Only the second epoch misspeculates; recovery re-runs it
    // sequentially, where the check is a no-op.
    speculate(I != BadIter, "early-epoch test misspeculation");
  });

  std::string Expected;
  for (uint64_t I = 0; I < N; ++I)
    Expected += "iter " + std::to_string(I) + "\n";
  EXPECT_EQ(readAll(Tmp), Expected);
  std::fclose(Tmp);
  expectSequentialResult(Out, N);

  // A flag, earliest-period or reason left over from epoch 1 would fail
  // every later epoch.
  EXPECT_EQ(Stats.Epochs, N / EpochLen);
  EXPECT_EQ(Stats.Misspecs, 1u) << Stats.FirstMisspecReason;
  EXPECT_EQ(Stats.Checkpoints, N / Period - 1);
  EXPECT_EQ(Stats.RecoveredIterations, Period);
  EXPECT_NE(Stats.FirstMisspecReason.find("early-epoch"), std::string::npos)
      << Stats.FirstMisspecReason;
  EXPECT_EQ(Stats.LocksBroken, 0u);
}

TEST_F(EpochBookkeepingTest, DeadWorkerStatsDoNotLeakFromEarlierEpoch) {
  constexpr uint64_t Period = 8;
  constexpr uint64_t EpochLen = ParallelOptions::MaxSlotsPerEpoch * Period;
  constexpr uint64_t N = 4 * EpochLen;
  constexpr uint64_t HeavyWrites = 100;
  long *Out = makeOut(N);

  ParallelOptions Opt;
  Opt.NumWorkers = 2;
  Opt.CheckpointPeriod = Period;
  // Worker 1 dies on its first iteration of epoch 1 and never writes its
  // stats entry; the entry must read as zero, not as epoch 0's.
  Opt.Faults.KillWorker = 1;
  Opt.Faults.KillAtIter = EpochLen + 1;
  InvocationStats Stats = Runtime::get().runParallel(N, Opt, [&](uint64_t I) {
    uint64_t Writes = I < EpochLen ? HeavyWrites : 1;
    for (uint64_t K = 0; K < Writes; ++K)
      private_write(&Out[I], sizeof(long));
    Out[I] = expected(I);
  });

  expectSequentialResult(Out, N);
  EXPECT_EQ(Stats.Misspecs, 1u) << Stats.FirstMisspecReason;
  EXPECT_EQ(Stats.Checkpoints, N / Period - 1);
  // Epoch 0 writes EpochLen * HeavyWrites, and the epochs after the
  // recovered period one per iteration; in epoch 1 only worker 0's share
  // (at most EpochLen / 2) can count.
  uint64_t Clean = EpochLen * HeavyWrites + (N - EpochLen - Period);
  EXPECT_GE(Stats.PrivateWriteCalls, Clean);
  EXPECT_LE(Stats.PrivateWriteCalls, Clean + EpochLen / 2);
}

TEST_F(EpochBookkeepingTest, OrphanedLockInOneEpochIsCountedOnce) {
  constexpr uint64_t N = 24, Period = 8;
  long *Out = makeOut(N);

  ParallelOptions Opt;
  Opt.NumWorkers = 2;
  Opt.CheckpointPeriod = Period;
  // Epoch 0 has slots 0 to 2.  Its misspeculation at slot 1 ends it
  // there, and the recovery leaves epoch 1 only slot 0: the lock death on
  // slot 1 happens in the first epoch only.
  Opt.Faults.LockDeathWorker = 1;
  Opt.Faults.LockDeathSlot = 1;
  InvocationStats Stats = Runtime::get().runParallel(N, Opt, [&](uint64_t I) {
    private_write(&Out[I], sizeof(long));
    Out[I] = expected(I);
  });

  expectSequentialResult(Out, N);
  EXPECT_EQ(Stats.Epochs, 2u);
  EXPECT_EQ(Stats.Misspecs, 1u) << Stats.FirstMisspecReason;
  EXPECT_EQ(Stats.Checkpoints, 2u);
  // Broken at most once, by the surviving worker or by the join; a count
  // carried into epoch 1 would report it twice.
  EXPECT_LE(Stats.LocksBroken, 1u);
}

TEST_F(EpochBookkeepingTest, TraceRingsAreMappedOnlyWhenTraced) {
  constexpr unsigned W = 2;
  constexpr uint64_t N = 16;
  const uint64_t RingBytes = W * sizeof(trace::Ring);
  std::string TracePath =
      ::testing::TempDir() + "privateer-epoch-rings.json";
  for (bool Traced : {false, true}) {
    long *Out = makeOut(N);
    ParallelOptions Opt;
    Opt.NumWorkers = W;
    Opt.CheckpointPeriod = 8;
    if (Traced)
      Opt.TracePath = TracePath;
    InvocationStats Stats =
        Runtime::get().runParallel(N, Opt, [&](uint64_t I) {
          private_write(&Out[I], sizeof(long));
          Out[I] = sharedMappingsOfSize(RingBytes);
        });
    ASSERT_EQ(Stats.Misspecs, 0u) << Stats.FirstMisspecReason;
    for (uint64_t I = 0; I < N; ++I)
      EXPECT_EQ(Out[I], Traced ? 1 : 0)
          << (Traced ? "traced" : "untraced") << " iteration " << I;
  }
  trace::Collector::instance().enable(std::string());
  std::remove(TracePath.c_str());
}

TEST(InvocationStatsSum, AddsEveryField) {
  std::vector<uint64_t InvocationStats::*> Counters = {
      &InvocationStats::Iterations,
      &InvocationStats::Checkpoints,
      &InvocationStats::Misspecs,
      &InvocationStats::RecoveredIterations,
      &InvocationStats::Epochs,
      &InvocationStats::PrivateReadCalls,
      &InvocationStats::PrivateReadBytes,
      &InvocationStats::PrivateWriteCalls,
      &InvocationStats::PrivateWriteBytes,
      &InvocationStats::SeparationChecks,
      &InvocationStats::CheckpointDirtyChunks,
      &InvocationStats::CheckpointBytesScanned,
      &InvocationStats::CheckpointBytesSkipped,
      &InvocationStats::EagerSlots,
      &InvocationStats::EarlyCutoffs,
      &InvocationStats::EarlyCutoffItersSaved,
      &InvocationStats::StalledWorkersKilled,
      &InvocationStats::LocksBroken,
      &InvocationStats::ForkFailures,
      &InvocationStats::ResourceFailures,
      &InvocationStats::DegradedEpochs,
      &InvocationStats::DegradedIterations,
      &InvocationStats::DepPosts,
      &InvocationStats::DepWaits,
      &InvocationStats::DepWaitSpins,
      &InvocationStats::DepWaitTimeouts,
      &InvocationStats::ComUpdates,
      &InvocationStats::ComRecordsMerged,
      &InvocationStats::ComRecordsCommitted,
      &InvocationStats::ComOverflows};
  std::vector<double InvocationStats::*> Seconds = {
      &InvocationStats::OverlapSec,      &InvocationStats::UsefulSec,
      &InvocationStats::PrivateReadSec,  &InvocationStats::PrivateWriteSec,
      &InvocationStats::CheckpointSec,   &InvocationStats::WallSec};

  InvocationStats A, B;
  for (size_t K = 0; K < Counters.size(); ++K) {
    A.*Counters[K] = 1 + K;
    B.*Counters[K] = 1000 + 3 * K;
  }
  for (size_t K = 0; K < Seconds.size(); ++K) {
    A.*Seconds[K] = 0.5 + K;
    B.*Seconds[K] = 0.25 * (K + 1);
  }
  A.PrivateFootprintBytes = 4096;
  B.PrivateFootprintBytes = 1024;
  B.FirstMisspecReason = "later";
  B.FirstDegradeReason = "degraded later";
  for (unsigned H = 0; H < kNumHeapKinds; ++H) {
    A.HeapLiveObjects[H] = 1;
    B.HeapLiveObjects[H] = 2 + H;
    B.HeapHighWaterBytes[H] = 64 * H;
  }

  InvocationStats Sum = A;
  Sum += B;
  for (size_t K = 0; K < Counters.size(); ++K)
    EXPECT_EQ(Sum.*Counters[K], A.*Counters[K] + B.*Counters[K])
        << "counter " << K;
  for (size_t K = 0; K < Seconds.size(); ++K)
    EXPECT_DOUBLE_EQ(Sum.*Seconds[K], A.*Seconds[K] + B.*Seconds[K])
        << "seconds " << K;
  EXPECT_EQ(Sum.PrivateFootprintBytes, 4096u);
  // An empty reason takes the later one; a set reason keeps the first.
  EXPECT_EQ(Sum.FirstMisspecReason, "later");
  EXPECT_EQ(Sum.FirstDegradeReason, "degraded later");
  InvocationStats C;
  C.FirstMisspecReason = "third";
  Sum += C;
  EXPECT_EQ(Sum.FirstMisspecReason, "later");
  // The heap footprint is an end-of-invocation snapshot: latest wins.
  for (unsigned H = 0; H < kNumHeapKinds; ++H) {
    EXPECT_EQ(Sum.HeapLiveObjects[H], C.HeapLiveObjects[H]);
    EXPECT_EQ(Sum.HeapHighWaterBytes[H], C.HeapHighWaterBytes[H]);
  }
}

TEST(InvocationStatsSum, LoadedImageRunReportsTimes) {
  std::string Err;
  auto M = ir::parseModule(reductionSumIrText(2000), Err);
  ASSERT_NE(M, nullptr) << Err;
  ASSERT_TRUE(ir::verifyModule(*M).empty());
  analysis::FunctionAnalyses FA(*M);
  transform::PipelineOptions Opt;
  std::FILE *TrainSink = std::tmpfile();
  Runtime::get().setSequentialOutput(TrainSink);
  transform::PipelineResult R = transform::runPrivateerPipeline(*M, FA, Opt);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(TrainSink);
  ASSERT_TRUE(R.Transformed);
  std::string WhyNot;
  auto Prog = transform::lowerForPrivatized(*M, FA, R.Assignment, WhyNot);
  ASSERT_NE(Prog, nullptr) << WhyNot;

  ParallelOptions Par;
  Par.NumWorkers = 2;
  Par.CheckpointPeriod = 16;
  std::FILE *Out = std::tmpfile();
  transform::ExecutionResult E = transform::executeLoadedParallel(
      *Prog, Opt, Par, RuntimeConfig(), Out);
  std::fclose(Out);
  EXPECT_EQ(E.Stats.Misspecs, 0u) << E.Stats.FirstMisspecReason;
  EXPECT_GT(E.Stats.Epochs, 0u);
  EXPECT_GT(E.Stats.WallSec, 0.0);
  EXPECT_GT(E.Stats.UsefulSec, 0.0);
  EXPECT_GT(E.Stats.CheckpointSec, 0.0);
  EXPECT_GT(E.Stats.Checkpoints, 0u);
}

TEST(InvocationStatsSum, WorkloadTotalSumsItsInvocations) {
  auto W = makeWorkload("alvinn", Workload::Scale::Small);
  ASSERT_NE(W, nullptr);
  ASSERT_GE(W->invocations(), 2u);
  ParallelOptions Opt;
  Opt.NumWorkers = 2;
  Opt.CheckpointPeriod = 16;
  Runtime &Rt = Runtime::get();

  // runWorkloadParallel's total.
  Rt.initialize(W->runtimeConfig());
  W->setUp();
  InvocationStats Total;
  runWorkloadParallel(*W, Opt, &Total);
  W->tearDown();
  Rt.shutdown();

  // The same invocations driven one by one.
  Rt.initialize(W->runtimeConfig());
  W->setUp();
  std::FILE *Io = std::tmpfile();
  ParallelOptions Each = Opt;
  Each.Out = Io;
  Rt.setSequentialOutput(Io);
  std::vector<InvocationStats> Parts;
  for (uint64_t K = 0; K < W->invocations(); ++K) {
    W->beginInvocation(K);
    Parts.push_back(Rt.runParallel(W->iterationsPerInvocation(), Each,
                                   [&](uint64_t I) { W->body(I); }));
    W->endInvocation(K);
  }
  Rt.setSequentialOutput(nullptr);
  std::fclose(Io);
  W->tearDown();
  Rt.shutdown();

  // Fields that do not depend on timing must match the field-wise sum.
  uint64_t Iterations = 0, Epochs = 0, Checkpoints = 0, Writes = 0,
           Reads = 0, Checks = 0;
  for (const InvocationStats &S : Parts) {
    Iterations += S.Iterations;
    Epochs += S.Epochs;
    Checkpoints += S.Checkpoints;
    Writes += S.PrivateWriteCalls;
    Reads += S.PrivateReadCalls;
    Checks += S.SeparationChecks;
  }
  EXPECT_EQ(Total.Misspecs, 0u) << Total.FirstMisspecReason;
  EXPECT_EQ(Total.Iterations, Iterations);
  EXPECT_EQ(Total.Epochs, Epochs);
  EXPECT_EQ(Total.Checkpoints, Checkpoints);
  EXPECT_EQ(Total.PrivateWriteCalls, Writes);
  EXPECT_EQ(Total.PrivateReadCalls, Reads);
  EXPECT_EQ(Total.SeparationChecks, Checks);
  // Times used to be dropped by the hand-copied accumulation.
  EXPECT_GT(Total.WallSec, 0.0);
  EXPECT_GT(Total.UsefulSec, 0.0);
  EXPECT_GT(Total.CheckpointSec, 0.0);
}

} // namespace
