//===- tests/RuntimeSmokeTest.cpp - End-to-end runtime smoke tests -------===//
//
// Exercises the full speculative pipeline on small synthetic loops: heap
// tagging, privatization, reductions, short-lived arenas, deferred output,
// misspeculation injection and recovery.
//
//===----------------------------------------------------------------------===//

#include "runtime/Privateer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

using namespace privateer;

namespace {

class RuntimeSmokeTest : public ::testing::Test {
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
};

TEST_F(RuntimeSmokeTest, AllocatedPointersCarryHeapTags) {
  for (HeapKind K : {HeapKind::ReadOnly, HeapKind::Private, HeapKind::Redux,
                     HeapKind::ShortLived, HeapKind::Unrestricted}) {
    void *P = h_alloc(64, K);
    ASSERT_NE(P, nullptr);
    EXPECT_TRUE(addressInHeap(reinterpret_cast<uint64_t>(P), K))
        << heapKindName(K);
    h_dealloc(P, K);
  }
}

TEST_F(RuntimeSmokeTest, PrivatizedLoopMatchesSequential) {
  constexpr uint64_t N = 200;
  constexpr int Width = 64;
  // A reuse-limited loop: every iteration scribbles over the same private
  // array, then publishes one live-out element per iteration.
  auto *Scratch =
      static_cast<int *>(h_alloc(Width * sizeof(int), HeapKind::Private));
  auto *Out =
      static_cast<long *>(h_alloc(N * sizeof(long), HeapKind::Private));

  auto Body = [&](uint64_t I) {
    Runtime &Rt = Runtime::get();
    for (int J = 0; J < Width; ++J) {
      private_write(&Scratch[J], sizeof(int));
      Scratch[J] = static_cast<int>(I) + J;
    }
    long Sum = 0;
    for (int J = 0; J < Width; ++J) {
      private_read(&Scratch[J], sizeof(int));
      Sum += Scratch[J];
    }
    private_write(&Out[I], sizeof(long));
    Out[I] = Sum;
    (void)Rt;
  };

  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 16;
  InvocationStats Stats = Runtime::get().runParallel(N, Opt, Body);

  EXPECT_EQ(Stats.Misspecs, 0u);
  EXPECT_GT(Stats.Checkpoints, 0u);
  for (uint64_t I = 0; I < N; ++I) {
    long Expect = 0;
    for (int J = 0; J < Width; ++J)
      Expect += static_cast<long>(I) + J;
    EXPECT_EQ(Out[I], Expect) << "iteration " << I;
  }
}

// A speculative worker's private heap is a copy-on-write mapping: its first
// store to each page copies the page, which getrusage counts as a minor
// fault in the worker's period loop.
TEST_F(RuntimeSmokeTest, SpeculativeWorkerReportsMinorFaults) {
  constexpr uint64_t N = 64;
  auto *Out =
      static_cast<long *>(h_alloc(N * sizeof(long), HeapKind::Private));
  ParallelOptions Opt;
  Opt.NumWorkers = 1;
  InvocationStats Stats = Runtime::get().runParallel(N, Opt, [&](uint64_t I) {
    private_write(&Out[I], sizeof(long));
    Out[I] = static_cast<long>(I);
  });
  EXPECT_EQ(Stats.Misspecs, 0u);
  EXPECT_GT(Stats.WorkerMinorFaults, 0u);
  for (uint64_t I = 0; I < N; ++I)
    EXPECT_EQ(Out[I], static_cast<long>(I));
  h_dealloc(Out, HeapKind::Private);
}

TEST_F(RuntimeSmokeTest, SumReductionAcrossWorkers) {
  constexpr uint64_t N = 500;
  auto *Acc = static_cast<long *>(h_alloc(sizeof(long), HeapKind::Redux));
  *Acc = 17; // Pre-loop live-in value must survive.
  Runtime::get().registerReduction(Acc, sizeof(long), ReduxElem::I64,
                                   ReduxOp::Add);

  ParallelOptions Opt;
  Opt.NumWorkers = 3;
  Opt.CheckpointPeriod = 32;
  InvocationStats Stats = Runtime::get().runParallel(
      N, Opt, [&](uint64_t I) { *Acc += static_cast<long>(I); });

  EXPECT_EQ(Stats.Misspecs, 0u);
  long Expect = 17 + static_cast<long>(N * (N - 1) / 2);
  EXPECT_EQ(*Acc, Expect);
}

TEST_F(RuntimeSmokeTest, ShortLivedObjectsRecycledPerIteration) {
  constexpr uint64_t N = 100;
  auto *Out =
      static_cast<long *>(h_alloc(N * sizeof(long), HeapKind::Private));
  auto Body = [&](uint64_t I) {
    auto *Node =
        static_cast<long *>(h_alloc(3 * sizeof(long), HeapKind::ShortLived));
    Node[0] = static_cast<long>(I);
    Node[1] = 2;
    Node[2] = Node[0] * Node[1];
    private_write(&Out[I], sizeof(long));
    Out[I] = Node[2];
    h_dealloc(Node, HeapKind::ShortLived);
  };
  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  InvocationStats Stats = Runtime::get().runParallel(N, Opt, Body);
  EXPECT_EQ(Stats.Misspecs, 0u);
  for (uint64_t I = 0; I < N; ++I)
    EXPECT_EQ(Out[I], static_cast<long>(2 * I));
}

TEST_F(RuntimeSmokeTest, LeakedShortLivedObjectMisspeculatesAndRecovers) {
  constexpr uint64_t N = 60;
  auto *Out =
      static_cast<long *>(h_alloc(N * sizeof(long), HeapKind::Private));
  auto Body = [&](uint64_t I) {
    void *Node = h_alloc(16, HeapKind::ShortLived);
    private_write(&Out[I], sizeof(long));
    Out[I] = static_cast<long>(I);
    // Iteration 23 leaks its node: lifetime speculation fails there.
    if (I != 23)
      h_dealloc(Node, HeapKind::ShortLived);
  };
  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  InvocationStats Stats = Runtime::get().runParallel(N, Opt, Body);
  EXPECT_GE(Stats.Misspecs, 1u);
  // Recovery must still produce the exact sequential result.
  for (uint64_t I = 0; I < N; ++I)
    EXPECT_EQ(Out[I], static_cast<long>(I));
}

TEST_F(RuntimeSmokeTest, InjectedMisspeculationStillComputesExactResult) {
  constexpr uint64_t N = 300;
  auto *Out =
      static_cast<long *>(h_alloc(N * sizeof(long), HeapKind::Private));
  auto Body = [&](uint64_t I) {
    private_write(&Out[I], sizeof(long));
    Out[I] = static_cast<long>(I * I);
  };
  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 16;
  Opt.InjectMisspecRate = 0.05;
  InvocationStats Stats = Runtime::get().runParallel(N, Opt, Body);
  EXPECT_GE(Stats.Misspecs, 1u);
  EXPECT_GT(Stats.RecoveredIterations, 0u);
  for (uint64_t I = 0; I < N; ++I)
    EXPECT_EQ(Out[I], static_cast<long>(I * I));
}

TEST_F(RuntimeSmokeTest, GenuineLoopCarriedFlowIsDetected) {
  constexpr uint64_t N = 40;
  auto *Cell = static_cast<long *>(h_alloc(sizeof(long), HeapKind::Private));
  *Cell = 0;
  // A true recurrence: iteration I reads the value iteration I-1 wrote.
  // Privatization is unsound here; validation must catch it, and recovery
  // must still deliver the sequential answer.
  auto Body = [&](uint64_t I) {
    private_read(Cell, sizeof(long));
    long V = *Cell;
    private_write(Cell, sizeof(long));
    *Cell = V + static_cast<long>(I);
  };
  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  InvocationStats Stats = Runtime::get().runParallel(N, Opt, Body);
  EXPECT_GE(Stats.Misspecs, 1u);
  EXPECT_EQ(*Cell, static_cast<long>(N * (N - 1) / 2));
}

TEST_F(RuntimeSmokeTest, DeferredOutputCommitsInIterationOrder) {
  constexpr uint64_t N = 64;
  std::FILE *Tmp = std::tmpfile();
  ASSERT_NE(Tmp, nullptr);
  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  Opt.Out = Tmp;
  InvocationStats Stats = Runtime::get().runParallel(N, Opt, [&](uint64_t I) {
    Runtime::get().deferPrintf("iter %llu\n",
                               static_cast<unsigned long long>(I));
  });
  EXPECT_EQ(Stats.Misspecs, 0u);
  std::rewind(Tmp);
  char Line[64];
  for (uint64_t I = 0; I < N; ++I) {
    ASSERT_NE(std::fgets(Line, sizeof(Line), Tmp), nullptr) << "line " << I;
    char Expect[64];
    std::snprintf(Expect, sizeof(Expect), "iter %llu\n",
                  static_cast<unsigned long long>(I));
    EXPECT_STREQ(Line, Expect);
  }
  std::fclose(Tmp);
}

TEST_F(RuntimeSmokeTest, LongDeferredPrintfIsNotTruncated) {
  // Text past any fixed formatting buffer must come out whole, from
  // speculative and non-speculative workers alike.
  constexpr uint64_t N = 6;
  const std::string Long(5000, 'x');
  for (bool NonSpec : {false, true}) {
    std::FILE *Tmp = std::tmpfile();
    ASSERT_NE(Tmp, nullptr);
    ParallelOptions Opt;
    Opt.NumWorkers = 2;
    Opt.CheckpointPeriod = 2;
    Opt.NonSpeculative = NonSpec;
    Opt.Out = Tmp;
    InvocationStats Stats =
        Runtime::get().runParallel(N, Opt, [&](uint64_t I) {
          Runtime::get().deferPrintf("%llu %s\n",
                                     static_cast<unsigned long long>(I),
                                     Long.c_str());
        });
    EXPECT_EQ(Stats.Misspecs, 0u);
    std::fflush(Tmp);
    std::rewind(Tmp);
    std::string Got;
    char Buf[4096];
    for (size_t R; (R = std::fread(Buf, 1, sizeof(Buf), Tmp)) > 0;)
      Got.append(Buf, R);
    std::fclose(Tmp);
    std::vector<std::string> Lines, Expected;
    for (size_t At = 0, End; (End = Got.find('\n', At)) != std::string::npos;
         At = End + 1)
      Lines.push_back(Got.substr(At, End + 1 - At));
    for (uint64_t I = 0; I < N; ++I)
      Expected.push_back(std::to_string(I) + " " + Long + "\n");
    // Non-speculative workers write as they go, in no fixed order.
    if (NonSpec)
      std::sort(Lines.begin(), Lines.end());
    EXPECT_EQ(Got.size(), N * (Long.size() + 3));
    EXPECT_EQ(Lines, Expected) << (NonSpec ? "non-speculative" : "speculative");
  }
}

TEST_F(RuntimeSmokeTest, SeparationCheckCatchesWrongHeapPointer) {
  constexpr uint64_t N = 30;
  auto *Good = static_cast<long *>(h_alloc(sizeof(long), HeapKind::Private));
  auto *Wrong =
      static_cast<long *>(h_alloc(sizeof(long), HeapKind::Unrestricted));
  auto Body = [&](uint64_t I) {
    // Iteration 11's pointer computation escapes its assumed heap.
    long *P = (I == 11) ? Wrong : Good;
    check_heap(P, HeapKind::Private);
    private_write(Good, sizeof(long));
    *Good = static_cast<long>(I);
  };
  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  InvocationStats Stats = Runtime::get().runParallel(N, Opt, Body);
  EXPECT_GE(Stats.Misspecs, 1u);
  EXPECT_EQ(*Good, static_cast<long>(N - 1));
}

} // namespace
