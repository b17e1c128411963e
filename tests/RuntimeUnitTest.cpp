//===- tests/RuntimeUnitTest.cpp - Runtime component tests ----------------===//
//
// Unit and property tests below the DOALL driver: heap tagging invariants,
// the in-heap allocator, reduction combination algebra, deferred-output
// serialization, and the cross-worker (phase 2) privacy cases that the
// inline Table 2 test alone cannot catch.
//
//===----------------------------------------------------------------------===//

#include "runtime/Privateer.h"
#include "support/DeterministicRng.h"
#include "support/Timing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include <sys/wait.h>
#include <unistd.h>

using namespace privateer;

namespace {

TEST(HeapTags, TagsAreDistinctAndInBits44To46) {
  std::set<uint64_t> Tags;
  for (unsigned I = 0; I < kNumHeapKinds; ++I) {
    HeapKind K = static_cast<HeapKind>(I);
    uint64_t T = heapTag(K);
    EXPECT_GE(T, 1u);
    EXPECT_LE(T, 7u);
    EXPECT_TRUE(Tags.insert(T).second) << heapKindName(K);
    EXPECT_EQ((heapBase(K) & kHeapTagMask) >> kHeapTagShift, T);
    EXPECT_EQ(heapBase(K) & ~kHeapTagMask, kHeapSlide);
  }
  EXPECT_FALSE(Tags.count(kShadowTag));
}

TEST(HeapTags, ShadowDiffersFromPrivateByExactlyOneBit) {
  uint64_t Diff = heapTag(HeapKind::Private) ^ kShadowTag;
  EXPECT_EQ(Diff & (Diff - 1), 0u) << "must differ in exactly one bit";
  // shadowAddress is a single OR.
  uint64_t P = heapBase(HeapKind::Private) + 0x1234;
  EXPECT_EQ(shadowAddress(P), shadowHeapBase() + 0x1234);
}

TEST(HeapTags, AddressInHeapSweep) {
  for (unsigned I = 0; I < kNumHeapKinds; ++I) {
    HeapKind K = static_cast<HeapKind>(I);
    for (unsigned J = 0; J < kNumHeapKinds; ++J) {
      HeapKind L = static_cast<HeapKind>(J);
      EXPECT_EQ(addressInHeap(heapBase(K) + 42, L), K == L);
    }
  }
  EXPECT_FALSE(addressInHeap(0x1000, HeapKind::Private));
}

class HeapAllocatorTest : public ::testing::Test {
protected:
  // 1 TiB above the runtime's own unrestricted heap, which an earlier test
  // in this process may have left parked there; still inside the tag range.
  void SetUp() override {
    Heap.create(heapBase(HeapKind::Unrestricted) + (1ull << 40), 1u << 20,
                /*WithAllocator=*/true);
  }
  void TearDown() override { Heap.destroy(); }
  SharedHeap Heap;
};

TEST_F(HeapAllocatorTest, AllocationsAreAlignedDisjointAndTagged) {
  std::vector<std::pair<uint64_t, size_t>> Blocks;
  DeterministicRng Rng(3);
  for (int I = 0; I < 100; ++I) {
    size_t N = 1 + Rng.nextBelow(200);
    void *P = Heap.allocate(N);
    ASSERT_NE(P, nullptr);
    uint64_t A = reinterpret_cast<uint64_t>(P);
    EXPECT_EQ(A % 16, 0u);
    EXPECT_TRUE(addressInHeap(A, HeapKind::Unrestricted));
    for (const auto &[B, BN] : Blocks)
      EXPECT_TRUE(A + N <= B || B + BN <= A) << "blocks overlap";
    Blocks.emplace_back(A, N);
  }
  EXPECT_EQ(Heap.liveCount(), 100u);
}

TEST_F(HeapAllocatorTest, FreeListReusesBlocks) {
  void *A = Heap.allocate(64);
  size_t HighAfterFirst = Heap.highWater();
  Heap.deallocate(A);
  void *B = Heap.allocate(64);
  EXPECT_EQ(A, B) << "freed block should be reused first-fit";
  EXPECT_EQ(Heap.highWater(), HighAfterFirst) << "no new carving";
  Heap.deallocate(B);
  EXPECT_EQ(Heap.liveCount(), 0u);
}

TEST_F(HeapAllocatorTest, ResetRecyclesArena) {
  for (int I = 0; I < 10; ++I)
    Heap.allocate(100);
  size_t High = Heap.highWater();
  Heap.resetAllocations();
  EXPECT_EQ(Heap.liveCount(), 0u);
  void *P = Heap.allocate(100);
  EXPECT_EQ(reinterpret_cast<uint64_t>(P),
            Heap.base() + SharedHeap::dataStartOffset() + 16)
      << "bump pointer rewound to the arena start";
  EXPECT_EQ(Heap.highWater(), High) << "high water is monotone";
}

TEST_F(HeapAllocatorTest, ExhaustionReturnsNull) {
  EXPECT_EQ(Heap.allocate(2u << 20), nullptr);
  void *P = Heap.allocate(1000);
  EXPECT_NE(P, nullptr);
}

TEST(ReductionAlgebra, IdentityAndCombinePerOpAndType) {
  std::vector<int64_t> A(4), B(4);
  ReductionRegistry Reg;
  Reg.registerObject(A.data(), 4 * sizeof(int64_t), ReduxElem::I64,
                     ReduxOp::Add);
  Reg.fillIdentity();
  EXPECT_EQ(A[0], 0);
  B = {5, -3, 7, 0};
  Reg.commitFrom(
      reinterpret_cast<const uint8_t *>(B.data()));
  EXPECT_EQ(A[1], -3);

  std::vector<double> F(2), G(2);
  ReductionRegistry RegF;
  RegF.registerObject(F.data(), 2 * sizeof(double), ReduxElem::F64,
                      ReduxOp::Mul);
  RegF.fillIdentity();
  EXPECT_EQ(F[0], 1.0);
  G = {2.5, 4.0};
  RegF.commitFrom(
      reinterpret_cast<const uint8_t *>(G.data()));
  EXPECT_EQ(F[0], 2.5);
  EXPECT_EQ(F[1], 4.0);

  std::vector<int32_t> Mn(3), Src(3);
  ReductionRegistry RegM;
  RegM.registerObject(Mn.data(), 3 * sizeof(int32_t), ReduxElem::I32,
                      ReduxOp::Min);
  RegM.fillIdentity();
  EXPECT_EQ(Mn[0], std::numeric_limits<int32_t>::max());
  Src = {3, -1, 9};
  RegM.commitFrom(
      reinterpret_cast<const uint8_t *>(Src.data()));
  EXPECT_EQ(Mn[0], 3);
  EXPECT_EQ(Mn[1], -1);

  std::vector<float> Mx(2), Sf(2);
  ReductionRegistry RegX;
  RegX.registerObject(Mx.data(), 2 * sizeof(float), ReduxElem::F32,
                      ReduxOp::Max);
  RegX.fillIdentity();
  EXPECT_EQ(Mx[0], -std::numeric_limits<float>::infinity());
  Sf = {1.5f, -2.0f};
  RegX.commitFrom(
      reinterpret_cast<const uint8_t *>(Sf.data()));
  EXPECT_EQ(Mx[0], 1.5f);
}

TEST(ReductionAlgebra, FloatMinMaxIdentitiesAreInfinities) {
  // Regression: with max()/lowest() identities, a sequential result of
  // +-inf (e.g. min over a stream containing +inf only, or max over
  // -inf) clamps to the finite extreme after combine and diverges from
  // sequential execution.  The identities must be the infinities.
  std::vector<double> Mn(2), Src(2);
  ReductionRegistry RegMn;
  RegMn.registerObject(Mn.data(), 2 * sizeof(double), ReduxElem::F64,
                       ReduxOp::Min);
  RegMn.fillIdentity();
  EXPECT_EQ(Mn[0], std::numeric_limits<double>::infinity());
  // A partial that is itself +inf (the sequential min of {+inf}) must
  // survive the combine, not collapse to numeric_limits::max().
  Src = {std::numeric_limits<double>::infinity(),
         std::numeric_limits<double>::max()};
  RegMn.commitFrom(
      reinterpret_cast<const uint8_t *>(Src.data()));
  EXPECT_EQ(Mn[0], std::numeric_limits<double>::infinity());
  EXPECT_EQ(Mn[1], std::numeric_limits<double>::max());

  std::vector<float> Mx(2), Sf(2);
  ReductionRegistry RegMx;
  RegMx.registerObject(Mx.data(), 2 * sizeof(float), ReduxElem::F32,
                       ReduxOp::Max);
  RegMx.fillIdentity();
  EXPECT_EQ(Mx[0], -std::numeric_limits<float>::infinity());
  Sf = {-std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::lowest()};
  RegMx.commitFrom(
      reinterpret_cast<const uint8_t *>(Sf.data()));
  EXPECT_EQ(Mx[0], -std::numeric_limits<float>::infinity());
  EXPECT_EQ(Mx[1], std::numeric_limits<float>::lowest());
}

TEST(ReductionAlgebra, InfinitePartialsSurviveParallelMinMax) {
  // End-to-end regression for the identity fix: a min reduction over data
  // containing +inf must commit exactly what sequential execution
  // produces (+inf stays +inf; finite values are unaffected).
  RuntimeConfig C;
  C.PrivateBytes = 1u << 16;
  C.ReadOnlyBytes = 1u << 16;
  C.ReduxBytes = 1u << 16;
  C.ShortLivedBytes = 1u << 16;
  C.UnrestrictedBytes = 1u << 16;
  Runtime &Rt = Runtime::get();
  Rt.initialize(C);
  auto *Acc =
      static_cast<double *>(Rt.heapAlloc(2 * sizeof(double), HeapKind::Redux));
  Rt.registerReduction(Acc, 2 * sizeof(double), ReduxElem::F64, ReduxOp::Min);
  Acc[0] = std::numeric_limits<double>::infinity(); // Min over {+inf,...}.
  Acc[1] = std::numeric_limits<double>::infinity();
  auto Body = [&](uint64_t I) {
    Acc[0] = std::min(Acc[0], std::numeric_limits<double>::infinity());
    Acc[1] = std::min(Acc[1], 100.0 + static_cast<double>(I));
  };
  ParallelOptions Opt;
  Opt.NumWorkers = 2;
  Opt.CheckpointPeriod = 4;
  InvocationStats S = Rt.runParallel(16, Opt, Body);
  EXPECT_EQ(S.Misspecs, 0u) << S.FirstMisspecReason;
  EXPECT_EQ(Acc[0], std::numeric_limits<double>::infinity())
      << "min over an all-infinite stream must stay +inf, not clamp to "
         "numeric_limits::max()";
  EXPECT_EQ(Acc[1], 100.0);
  Rt.shutdown();
}

TEST(ReductionAlgebra, CombineIsOrderIndependentForIntegers) {
  DeterministicRng Rng(17);
  constexpr int Workers = 5;
  std::vector<std::vector<int64_t>> Partials(Workers,
                                             std::vector<int64_t>(8));
  for (auto &P : Partials)
    for (auto &V : P)
      V = static_cast<int64_t>(Rng.next() % 1000) - 500;

  auto CombineInOrder = [&](const std::vector<int> &Order) {
    std::vector<int64_t> Acc(8);
    ReductionRegistry Reg;
    Reg.registerObject(Acc.data(), 8 * sizeof(int64_t), ReduxElem::I64,
                       ReduxOp::Add);
    Reg.fillIdentity();
    for (int W : Order)
      Reg.commitFrom(
      reinterpret_cast<const uint8_t *>(Partials[W].data()));
    return Acc;
  };
  std::vector<int> Fwd{0, 1, 2, 3, 4}, Rev{4, 3, 2, 1, 0},
      Mix{2, 0, 4, 1, 3};
  EXPECT_EQ(CombineInOrder(Fwd), CombineInOrder(Rev));
  EXPECT_EQ(CombineInOrder(Fwd), CombineInOrder(Mix));
}

TEST(ReductionAlgebra, WorkerCopiesOfEveryIntegerOperatorMatchSequential) {
  // One object per width and operator (min/max only at 8 bytes, as the
  // classifier admits them), packed into one slot image.  Three workers'
  // copies start at the identity, take their share of a random update
  // stream, merge, and commit into the master: the bytes must equal the
  // stream applied in order to the master.
  struct Obj {
    unsigned Width;
    ComOp Op;
    alignas(8) uint8_t Cells[24];
  };
  std::vector<Obj> Objs;
  for (unsigned Width : {1u, 2u, 4u, 8u})
    for (unsigned Op = 0; Op < (Width == 8 ? 7u : 5u); ++Op)
      Objs.push_back({Width, static_cast<ComOp>(Op), {}});
  DeterministicRng Rng(31);
  ReductionRegistry Reg;
  for (Obj &O : Objs) {
    for (uint8_t &B : O.Cells)
      B = static_cast<uint8_t>(Rng.next());
    Reg.registerObject(O.Cells, sizeof(O.Cells), reduxIntElem(O.Width), O.Op);
  }
  struct Update {
    size_t Obj;
    unsigned Cell;
    int64_t Value;
  };
  std::vector<Update> Stream;
  for (int K = 0; K < 600; ++K) {
    size_t I = Rng.nextBelow(Objs.size());
    Stream.push_back({I,
                      static_cast<unsigned>(Rng.nextBelow(24 / Objs[I].Width)),
                      static_cast<int64_t>(Rng.next() | 1)});
  }
  auto Apply = [&](const Update &U) {
    const Obj &O = Objs[U.Obj];
    applyComUpdate(reinterpret_cast<uint64_t>(O.Cells) + U.Cell * O.Width,
                   O.Op, O.Width, U.Value);
  };
  auto Snapshot = [&] {
    std::string S;
    for (const Obj &O : Objs)
      S.append(reinterpret_cast<const char *>(O.Cells), sizeof(O.Cells));
    return S;
  };
  auto Restore = [&](const std::string &S) {
    for (size_t I = 0; I < Objs.size(); ++I)
      std::memcpy(Objs[I].Cells, S.data() + I * 24, 24);
  };

  std::string Master = Snapshot();
  for (const Update &U : Stream)
    Apply(U);
  std::string Sequential = Snapshot();

  std::vector<uint8_t> Packed(Reg.packedBytes());
  for (unsigned W = 0; W < 3; ++W) {
    Reg.fillIdentity();
    for (size_t K = W; K < Stream.size(); K += 3)
      Apply(Stream[K]);
    Reg.mergeInto(Packed.data(), /*First=*/W == 0);
  }
  Restore(Master);
  Reg.commitFrom(Packed.data());
  EXPECT_EQ(Snapshot(), Sequential);
}

TEST(OwnerLock, BreaksAReapedHoldersLockBeforeTheFirstYield) {
  // A holder that died is caught by the probe before the first yield, not
  // after a batch of them: 256 yields cost tens of microseconds however
  // fast the host, one probe about one.  The fastest of five breaks must
  // show it.
  uint64_t FastestNs = ~0ULL;
  for (int Rep = 0; Rep < 5; ++Rep) {
    pid_t Child = fork();
    if (Child == 0)
      _exit(0);
    ASSERT_GT(Child, 0);
    ASSERT_EQ(waitpid(Child, nullptr, 0), Child);
    OwnerLock Lock;
    ASSERT_FALSE(Lock.lockOrBreak(static_cast<uint32_t>(Child), [] {}));
    unsigned Probes = 0;
    uint64_t T0 = monotonicNanos();
    EXPECT_TRUE(Lock.lockOrBreak(static_cast<uint32_t>(getpid()),
                                 [&Probes] { ++Probes; }));
    FastestNs = std::min(FastestNs, monotonicNanos() - T0);
    EXPECT_EQ(Probes, 1u);
    EXPECT_EQ(Lock.holder(), static_cast<uint32_t>(getpid()));
  }
  EXPECT_LT(FastestNs, 10000u);
}

TEST(DeferredIo, SerializeDeserializeRoundTrip) {
  std::vector<IoRecord> In = {
      {7, 0, "hello\n"}, {3, 0, ""}, {3, 1, "x"}, {100, 2, std::string(500, 'q')}};
  std::vector<uint8_t> Buf(4096);
  uint64_t Used = 0;
  ASSERT_TRUE(serializeIoRecords(In, Buf.data(), Buf.size(), Used));
  std::vector<IoRecord> Out;
  deserializeIoRecords(Buf.data(), Used, Out);
  ASSERT_EQ(Out.size(), In.size());
  for (size_t I = 0; I < In.size(); ++I) {
    EXPECT_EQ(Out[I].Iteration, In[I].Iteration);
    EXPECT_EQ(Out[I].Sequence, In[I].Sequence);
    EXPECT_EQ(Out[I].Text, In[I].Text);
  }
  sortIoRecords(Out);
  EXPECT_EQ(Out.front().Iteration, 3u);
  EXPECT_EQ(Out.front().Sequence, 0u);
  EXPECT_EQ(Out.back().Iteration, 100u);
}

TEST(DeferredIo, SerializeReportsOverflow) {
  std::vector<IoRecord> In = {{1, 0, std::string(100, 'a')}};
  std::vector<uint8_t> Buf(50);
  uint64_t Used = 0;
  EXPECT_FALSE(serializeIoRecords(In, Buf.data(), Buf.size(), Used));
}

// --- Cross-worker (phase 2) privacy validation -------------------------

class CrossWorkerPrivacyTest : public ::testing::Test {
protected:
  void SetUp() override {
    RuntimeConfig C;
    C.PrivateBytes = 1u << 16;
    C.ReadOnlyBytes = 1u << 16;
    C.ReduxBytes = 1u << 16;
    C.ShortLivedBytes = 1u << 16;
    C.UnrestrictedBytes = 1u << 16;
    Runtime::get().initialize(C);
  }
  void TearDown() override { Runtime::get().shutdown(); }
};

TEST_F(CrossWorkerPrivacyTest, ReadLiveInAfterEarlierPeriodWriteIsCaught) {
  // Iteration 2 writes a byte; iteration 9 — a different checkpoint
  // period AND (with 2 workers) a different worker — reads it "live-in"
  // from its stale copy-on-write view.  Only the ordered commit-time
  // validation (phase 2 against the master shadow) can catch this.
  auto *Cell = static_cast<long *>(h_alloc(sizeof(long), HeapKind::Private));
  *Cell = 42;
  auto *Out =
      static_cast<long *>(h_alloc(16 * sizeof(long), HeapKind::Private));
  auto Body = [&](uint64_t I) {
    if (I == 2) {
      private_write(Cell, sizeof(long));
      *Cell = 1000;
    }
    long V = 0;
    if (I == 9) {
      private_read(Cell, sizeof(long));
      V = *Cell;
    }
    private_write(&Out[I], sizeof(long));
    Out[I] = static_cast<long>(I) + V;
  };
  ParallelOptions Opt;
  Opt.NumWorkers = 2;
  Opt.CheckpointPeriod = 4; // Iterations 2 and 9 in different periods.
  InvocationStats S = Runtime::get().runParallel(16, Opt, Body);
  EXPECT_GE(S.Misspecs, 1u) << "phase-2 validation missed the flow dep";
  // Recovery must deliver the sequential result: Out[9] = 9 + 1000.
  EXPECT_EQ(Out[9], 1009);
  EXPECT_EQ(*Cell, 1000);
}

TEST_F(CrossWorkerPrivacyTest, SamePeriodWriteThenLaterReadIsCaught) {
  // Write at iteration 1 (worker 1), read-live-in at iteration 2 (worker
  // 0), same checkpoint period: the slot-merge conflict rule
  // (read-live-in meets another worker's write) must flag it
  // conservatively.
  auto *Cell = static_cast<long *>(h_alloc(sizeof(long), HeapKind::Private));
  *Cell = 5;
  auto Body = [&](uint64_t I) {
    if (I == 1) {
      private_write(Cell, sizeof(long));
      *Cell = 77;
    }
    if (I == 2) {
      private_read(Cell, sizeof(long));
      (void)*Cell;
    }
  };
  ParallelOptions Opt;
  Opt.NumWorkers = 2;
  Opt.CheckpointPeriod = 8;
  InvocationStats S = Runtime::get().runParallel(8, Opt, Body);
  EXPECT_GE(S.Misspecs, 1u);
  EXPECT_EQ(*Cell, 77);
}

TEST_F(CrossWorkerPrivacyTest, DisjointReadersAndWritersDoNotConflict) {
  // Reading live-in data that nobody writes is always fine, from any
  // worker and every period.
  auto *Table =
      static_cast<long *>(h_alloc(64 * sizeof(long), HeapKind::Private));
  for (int I = 0; I < 64; ++I)
    Table[I] = I * 11;
  auto *Out =
      static_cast<long *>(h_alloc(64 * sizeof(long), HeapKind::Private));
  auto Body = [&](uint64_t I) {
    private_read(&Table[I], sizeof(long));
    long V = Table[I];
    private_write(&Out[I], sizeof(long));
    Out[I] = V * 2;
  };
  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  InvocationStats S = Runtime::get().runParallel(64, Opt, Body);
  EXPECT_EQ(S.Misspecs, 0u) << S.FirstMisspecReason;
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(Out[I], I * 22);
}

TEST_F(CrossWorkerPrivacyTest, OutputDependenceResolvesToLastWriter) {
  // Several iterations write the same byte (output dependence): the
  // privatization criterion allows it, and the committed value must be
  // the highest iteration's, as sequential execution would leave it.
  auto *Cell = static_cast<long *>(h_alloc(sizeof(long), HeapKind::Private));
  *Cell = -1;
  auto Body = [&](uint64_t I) {
    private_write(Cell, sizeof(long));
    *Cell = static_cast<long>(I);
  };
  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  InvocationStats S = Runtime::get().runParallel(40, Opt, Body);
  EXPECT_EQ(S.Misspecs, 0u) << S.FirstMisspecReason;
  EXPECT_EQ(*Cell, 39);
}

TEST_F(CrossWorkerPrivacyTest, StoreToProtectedReadOnlyHeapMisspeculates) {
  auto *Ro = static_cast<long *>(h_alloc(sizeof(long), HeapKind::ReadOnly));
  *Ro = 7;
  auto *Out =
      static_cast<long *>(h_alloc(32 * sizeof(long), HeapKind::Private));
  auto Body = [&](uint64_t I) {
    if (I == 11)
      *Ro = 8; // SIGSEGV in the worker -> misspeculation -> recovery.
    private_write(&Out[I], sizeof(long));
    Out[I] = static_cast<long>(I) + *Ro;
  };
  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 8;
  InvocationStats S = Runtime::get().runParallel(32, Opt, Body);
  EXPECT_GE(S.Misspecs, 1u);
  // Sequential recovery performs the store for real (original semantics).
  EXPECT_EQ(*Ro, 8);
  for (int I = 0; I < 32; ++I)
    EXPECT_EQ(Out[I], I + (I < 11 ? 7 : 8)) << I;
}

TEST_F(CrossWorkerPrivacyTest, MultiInvocationReusesHeapsCleanly) {
  // Back-to-back invocations (alvinn-style) must each start from a clean
  // shadow: bytes written during invocation k are ordinary live-ins for
  // invocation k+1.  (Within one iteration the roles stay disjoint — a
  // same-iteration read-live-in-then-write is Table 2's documented
  // conservative misspeculation, exercised elsewhere.)
  auto *Src =
      static_cast<long *>(h_alloc(8 * sizeof(long), HeapKind::Private));
  auto *Dst =
      static_cast<long *>(h_alloc(8 * sizeof(long), HeapKind::Private));
  for (int I = 0; I < 8; ++I)
    Src[I] = 0;
  ParallelOptions Opt;
  Opt.NumWorkers = 3;
  Opt.CheckpointPeriod = 4;
  for (int Epoch = 0; Epoch < 3; ++Epoch) {
    InvocationStats S =
        Runtime::get().runParallel(8, Opt, [&](uint64_t I) {
          private_read(&Src[I], sizeof(long));
          long V = Src[I];
          private_write(&Dst[I], sizeof(long));
          Dst[I] = V + 1;
        });
    EXPECT_EQ(S.Misspecs, 0u)
        << "epoch " << Epoch << ": " << S.FirstMisspecReason;
    std::swap(Src, Dst); // Sequential region between invocations.
  }
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(Src[I], 3);
}

TEST_F(CrossWorkerPrivacyTest, ShadowResetCoversGrownThenShrunkFootprint) {
  // The per-invocation shadow reset clears only up to the private heap's
  // high-water mark, not the whole mapping.  A footprint that grows (big
  // allocation, widely written) and then shrinks (freed, small arrays
  // reallocated over the same addresses) is exactly the case where an
  // under-measured reset would leave stale old-write timestamps behind:
  // the next invocation's live-in reads of those addresses would then be
  // misclassified as reads of speculative writes and misspeculate.
  constexpr uint64_t kBigBytes = 40u << 10; // Well past any later use.
  auto *Big = static_cast<unsigned char *>(
      h_alloc(kBigBytes, HeapKind::Private));
  ParallelOptions Opt;
  Opt.NumWorkers = 3;
  Opt.CheckpointPeriod = 4;
  InvocationStats Grow = Runtime::get().runParallel(32, Opt, [&](uint64_t I) {
    // Touch a byte every KiB so speculative writes land across the whole
    // grown footprint, not just its front.
    unsigned char *P = Big + (I * 1024) % kBigBytes;
    private_write(P, 1);
    *P = static_cast<unsigned char>(I + 1);
  });
  EXPECT_EQ(Grow.Misspecs, 0u) << Grow.FirstMisspecReason;
  h_dealloc(Big, HeapKind::Private);

  // First-fit reuses the freed range, so Src sits on addresses whose
  // shadow bytes carried old-write marks a moment ago.
  auto *Src =
      static_cast<long *>(h_alloc(16 * sizeof(long), HeapKind::Private));
  auto *Dst =
      static_cast<long *>(h_alloc(16 * sizeof(long), HeapKind::Private));
  ASSERT_GE(reinterpret_cast<unsigned char *>(Src), Big);
  ASSERT_LT(reinterpret_cast<unsigned char *>(Src + 16), Big + kBigBytes);
  for (int I = 0; I < 16; ++I)
    Src[I] = I * 3;
  InvocationStats S = Runtime::get().runParallel(16, Opt, [&](uint64_t I) {
    private_read(&Src[I], sizeof(long));
    long V = Src[I];
    private_write(&Dst[I], sizeof(long));
    Dst[I] = V + 1;
  });
  EXPECT_EQ(S.Misspecs, 0u)
      << "stale shadow state survived the reset: " << S.FirstMisspecReason;
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(Dst[I], I * 3 + 1) << I;
}

TEST_F(CrossWorkerPrivacyTest, WriteAfterReadLiveInIsConservativeMisspec) {
  // Table 2's documented false positive: a byte read as live-in and then
  // overwritten before the checkpoint "will conservatively report a
  // misspeculation" — and recovery must still produce the exact result.
  auto *Cell = static_cast<long *>(h_alloc(sizeof(long), HeapKind::Private));
  *Cell = 10;
  auto Body = [&](uint64_t I) {
    if (I != 5)
      return;
    private_read(Cell, sizeof(long));
    long V = *Cell;
    private_write(Cell, sizeof(long));
    *Cell = V + 1;
  };
  ParallelOptions Opt;
  Opt.NumWorkers = 2;
  Opt.CheckpointPeriod = 8;
  InvocationStats S = Runtime::get().runParallel(16, Opt, Body);
  EXPECT_GE(S.Misspecs, 1u);
  EXPECT_EQ(*Cell, 11);
}

} // namespace

namespace {

TEST_F(CrossWorkerPrivacyTest, ByteGranularWritesWithinOneWordDoNotConflict) {
  // Two workers write *different bytes* of the same 8-byte word in the
  // same checkpoint period: byte-granular metadata must merge both
  // without a conflict, and the committed word must interleave exactly
  // as sequential execution would leave it.
  auto *Word =
      static_cast<uint8_t *>(h_alloc(8 * sizeof(uint8_t), HeapKind::Private));
  for (int I = 0; I < 8; ++I)
    Word[I] = 0xEE;
  auto Body = [&](uint64_t I) {
    if (I >= 8)
      return;
    private_write(&Word[I], 1);
    Word[I] = static_cast<uint8_t>(0xA0 + I);
  };
  ParallelOptions Opt;
  Opt.NumWorkers = 2; // Even bytes from worker 0, odd from worker 1.
  Opt.CheckpointPeriod = 8;
  InvocationStats S = Runtime::get().runParallel(8, Opt, Body);
  EXPECT_EQ(S.Misspecs, 0u) << S.FirstMisspecReason;
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(Word[I], 0xA0 + I) << "byte " << I;
}

TEST_F(CrossWorkerPrivacyTest, ByteGranularReadWriteSplitWithinOneWord) {
  // Worker 0 reads bytes [0,4) live-in while worker 1 writes bytes [4,8)
  // of the same word: disjoint byte ranges, no violation.
  auto *Word =
      static_cast<uint8_t *>(h_alloc(8 * sizeof(uint8_t), HeapKind::Private));
  for (int I = 0; I < 8; ++I)
    Word[I] = static_cast<uint8_t>(I);
  auto *Sink = static_cast<long *>(h_alloc(sizeof(long), HeapKind::Private));
  *Sink = 0;
  auto Body = [&](uint64_t I) {
    if (I == 0) { // Worker 0: read the low half.
      private_read(&Word[0], 4);
      long V = Word[0] + Word[1] + Word[2] + Word[3];
      private_write(Sink, sizeof(long));
      *Sink = V;
    }
    if (I == 1) { // Worker 1: write the high half.
      private_write(&Word[4], 4);
      for (int B = 4; B < 8; ++B)
        Word[B] = static_cast<uint8_t>(0x50 + B);
    }
  };
  ParallelOptions Opt;
  Opt.NumWorkers = 2;
  Opt.CheckpointPeriod = 4;
  InvocationStats S = Runtime::get().runParallel(4, Opt, Body);
  EXPECT_EQ(S.Misspecs, 0u) << S.FirstMisspecReason;
  EXPECT_EQ(*Sink, 0 + 1 + 2 + 3);
  for (int B = 4; B < 8; ++B)
    EXPECT_EQ(Word[B], 0x50 + B);
}

} // namespace
