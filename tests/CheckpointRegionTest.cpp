//===- tests/CheckpointRegionTest.cpp - Flat checkpoint slot tests --------===//
//
// Direct tests of CheckpointRegion's flat slot images: merges fold only the
// chunks a worker's dirty mask names into the chunk's place in each plane,
// age the worker's shadow and clear its mask as they go, and page in only
// the planes' dirty chunks; commits walk the union mask; a short last
// slot's header rejects torn iteration counts; commutative copies combine
// at commit; and deferred I/O survives a slot-buffer overflow for the
// recovery path to replay.  Overflowed slots are refused by the commit
// frontier's verdict, which every commit passes first.
//
//===----------------------------------------------------------------------===//

#include "runtime/Checkpoint.h"
#include "runtime/ShadowMetadata.h"
#include "support/DeterministicRng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

using namespace privateer;

namespace {

class CheckpointRegionTest : public ::testing::Test {
protected:
  static constexpr uint64_t kFootprint = 16 * kDirtyChunkBytes; // 16 chunks.
  /// One period of eight iterations for two workers, or for one.
  static constexpr EpochPlan kOneSlot{0, 8, 8, 2};
  static constexpr EpochPlan kOneWorker{0, 8, 8, 1};

  void makeRegion(const EpochPlan &Plan, uint64_t IoCapacity = 4096,
                  uint64_t Bytes = kFootprint) {
    Footprint = Bytes;
    CheckpointRegion::Config C;
    C.Plan = Plan;
    C.PrivateBytes = Footprint;
    C.ReduxBytes = Redux.packedBytes();
    C.IoCapacity = IoCapacity;
    ASSERT_TRUE(Region.create(C));
    LocalShadow.assign(Footprint, shadow::kLiveIn);
    LocalPrivate.assign(Footprint, 0);
    MasterShadow.assign(Footprint, shadow::kLiveIn);
    MasterPrivate.assign(Footprint, 0);
    Mask.assign(dirtyMaskWords(dirtyChunkCount(Footprint)), 0);
  }

  void merge(CheckpointScanStats *Scan = nullptr) {
    Region.workerMerge(0, LocalShadow.data(), LocalPrivate.data(),
                       Mask.data(), Redux, Io, /*Executed=*/true, ctx(Scan));
  }

  MergeContext ctx(CheckpointScanStats *Scan = nullptr) {
    MergeContext Ctx;
    Ctx.SelfPid = static_cast<uint32_t>(getpid());
    Ctx.Scan = Scan;
    return Ctx;
  }

  /// Simulates one instrumented write of \p Value at \p Off in the
  /// worker's view: shadow timestamp + value + dirty bit, exactly what the
  /// private_write fast path leaves behind.
  void workerWrite(uint64_t Off, uint8_t Value,
                   uint8_t Ts = shadow::kFirstTimestamp) {
    LocalShadow[Off] = Ts;
    LocalPrivate[Off] = Value;
    markDirtyChunks(Mask.data(), dirtyChunkCount(Footprint), Off, 1);
  }

  void workerReadLiveIn(uint64_t Off) {
    LocalShadow[Off] = shadow::kReadLiveIn;
    markDirtyChunks(Mask.data(), dirtyChunkCount(Footprint), Off, 1);
  }

  /// Commits slot \p P into the master image; true when the walk refused
  /// it, with the reason in Why.
  bool commitFails(uint64_t P, CheckpointScanStats *Scan = nullptr) {
    SlotFailure Bad = Region.commitSlot(P, MasterShadow.data(),
                                        MasterPrivate.data(), Redux, OutIo,
                                        Scan);
    Why = Bad ? Bad.Why : "";
    return static_cast<bool>(Bad);
  }

  /// The frontier's verdict on slot 0 once every worker is reaped; a
  /// failure's reason lands in Why and its trace code in Code.
  CommitFrontier::Verdict verdictAtJoin() {
    Cb.resetForEpoch(Region.config().Plan.NumWorkers, 0, 0);
    CommitFrontier Frontier(Region.config().Plan, &Region, Cb);
    CommitFrontier::Verdict V = Frontier.verdict(/*WorkersGone=*/true);
    Why = Frontier.failure().Reason;
    Code = Frontier.failure().Code;
    return V;
  }

  uint64_t Footprint = kFootprint;
  CheckpointRegion Region;
  ControlBlock Cb;
  trace::Reason Code = trace::Reason::Generic;
  ReductionRegistry Redux;
  std::vector<uint8_t> LocalShadow, LocalPrivate, MasterShadow, MasterPrivate;
  std::vector<uint64_t> Mask;
  std::vector<IoRecord> Io, OutIo;
  std::string Why;
};

TEST_F(CheckpointRegionTest, SparseMergeAndCommitApplyOnlyDirtyChunks) {
  makeRegion(kOneSlot);
  workerWrite(/*chunk 1*/ 1 * kDirtyChunkBytes + 17, 0xAB);
  workerWrite(/*chunk 9*/ 9 * kDirtyChunkBytes + 4090, 0xCD,
              shadow::kFirstTimestamp + 3);
  workerReadLiveIn(1 * kDirtyChunkBytes + 100);

  CheckpointScanStats MergeScan;
  merge(&MergeScan);
  EXPECT_EQ(MergeScan.DirtyChunks, 2u);
  // Only the two dirty chunks were walked at all; everything outside them
  // cost nothing.
  EXPECT_LE(MergeScan.BytesScanned + MergeScan.BytesSkipped,
            2 * kDirtyChunkBytes);
  // Within them, the skip loop took the word path almost everywhere.
  EXPECT_GT(MergeScan.BytesSkipped, MergeScan.BytesScanned);

  // The slot records exactly the contributed chunks, each byte at its
  // footprint offset in both planes.
  EXPECT_EQ(Region.slotDirtyMask(0)[0], (1ULL << 1) | (1ULL << 9));
  const uint8_t *Meta = Region.slotMeta(0);
  const uint8_t *Values = Region.slotValues(0);
  EXPECT_EQ(Meta[1 * kDirtyChunkBytes + 17], shadow::kFirstTimestamp);
  EXPECT_EQ(Values[1 * kDirtyChunkBytes + 17], 0xAB);
  EXPECT_EQ(Meta[9 * kDirtyChunkBytes + 4090], shadow::kFirstTimestamp + 3);
  EXPECT_EQ(Values[9 * kDirtyChunkBytes + 4090], 0xCD);
  EXPECT_EQ(Meta[1 * kDirtyChunkBytes + 100], shadow::kReadLiveIn);
  EXPECT_EQ(static_cast<uint64_t>(std::count(Meta, Meta + kFootprint, 0)),
            kFootprint - 3);

  CheckpointScanStats CommitScan;
  ASSERT_FALSE(commitFails(0, &CommitScan))
      << Why;
  EXPECT_EQ(CommitScan.DirtyChunks, 2u);
  EXPECT_EQ(MasterPrivate[1 * kDirtyChunkBytes + 17], 0xAB);
  EXPECT_EQ(MasterShadow[1 * kDirtyChunkBytes + 17], shadow::kOldWrite);
  EXPECT_EQ(MasterPrivate[9 * kDirtyChunkBytes + 4090], 0xCD);
  // The validated read-live-in byte commits no write.
  EXPECT_EQ(MasterShadow[1 * kDirtyChunkBytes + 100], shadow::kLiveIn);
  // Clean chunks stay untouched.
  EXPECT_EQ(MasterPrivate[5 * kDirtyChunkBytes + 1], 0);
}

TEST_F(CheckpointRegionTest, DirtyMasksUnionAcrossWorkers) {
  makeRegion(kOneSlot);
  workerWrite(2 * kDirtyChunkBytes + 8, 0x11);
  merge();

  // Second worker: fresh view, different chunk.
  LocalShadow.assign(kFootprint, shadow::kLiveIn);
  std::fill(Mask.begin(), Mask.end(), 0);
  workerWrite(14 * kDirtyChunkBytes + 8, 0x22,
              shadow::kFirstTimestamp + 1);
  merge();

  EXPECT_EQ(Region.slotDirtyMask(0)[0], (1ULL << 2) | (1ULL << 14));
  EXPECT_EQ(Region.slotMeta(0)[2 * kDirtyChunkBytes + 8],
            shadow::kFirstTimestamp);
  EXPECT_EQ(Region.slotMeta(0)[14 * kDirtyChunkBytes + 8],
            shadow::kFirstTimestamp + 1);
  EXPECT_EQ(Region.slotValues(0)[14 * kDirtyChunkBytes + 8], 0x22);
  ASSERT_FALSE(commitFails(0))
      << Why;
  EXPECT_EQ(MasterPrivate[2 * kDirtyChunkBytes + 8], 0x11);
  EXPECT_EQ(MasterPrivate[14 * kDirtyChunkBytes + 8], 0x22);
}

TEST_F(CheckpointRegionTest, CommitDetectsFlowDependenceInsideDirtyChunk) {
  makeRegion(kOneSlot);
  workerReadLiveIn(3 * kDirtyChunkBytes + 77);
  merge();
  // An earlier committed period wrote the byte: phase-2 must reject.
  MasterShadow[3 * kDirtyChunkBytes + 77] = shadow::kOldWrite;
  EXPECT_TRUE(commitFails(0));
  EXPECT_NE(Why.find("flow dependence"), std::string::npos) << Why;
}

TEST_F(CheckpointRegionTest, ShortLastSlotRejectsTornIterationCounts) {
  // Iterations [100, 125) in periods of 10: three slots, the last holding
  // only the five iterations left.
  makeRegion({/*Begin=*/100, /*End=*/125, /*Period=*/10, /*NumWorkers=*/2});
  EXPECT_EQ(Region.slot(0)->NumIters, 10u);
  EXPECT_EQ(Region.slot(2)->BaseIter, 120u);
  EXPECT_EQ(Region.slot(2)->NumIters, 5u);
  for (uint64_t S = 0; S < 3; ++S)
    EXPECT_TRUE(Region.slotHeaderSane(S)) << "slot " << S;
  // A wrapped count (what a torn header can contain) must be rejected.
  Region.slot(2)->NumIters = ~0ULL - 119;
  EXPECT_FALSE(Region.slotHeaderSane(2));
  Region.slot(2)->NumIters = 10; // Ignores the epoch-end clamp.
  EXPECT_FALSE(Region.slotHeaderSane(2));
}

TEST_F(CheckpointRegionTest, DefaultCapacityCoversWholeFootprintLosslessly) {
  makeRegion(kOneSlot);
  // Dirty every chunk: a slot has a place for each of them.
  for (uint64_t C = 0; C < dirtyChunkCount(kFootprint); ++C)
    workerWrite(C * kDirtyChunkBytes, static_cast<uint8_t>(C + 1));
  merge();
  EXPECT_EQ(Region.slotDirtyMask(0)[0], (1ULL << 16) - 1);
  ASSERT_FALSE(commitFails(0))
      << Why;
  for (uint64_t C = 0; C < dirtyChunkCount(kFootprint); ++C)
    EXPECT_EQ(MasterPrivate[C * kDirtyChunkBytes],
              static_cast<uint8_t>(C + 1));
}

TEST_F(CheckpointRegionTest, MergeAgesWorkerStateAndClearsItsMask) {
  int64_t Cell = 0;
  Redux.registerObject(&Cell, 8, ReduxElem::I64, ReduxOp::Add);
  makeRegion(kOneWorker);
  // Any code may sit in a dirty chunk; a clean chunk holds only codes
  // below read-live-in (no access this period reached it).
  DeterministicRng Rng(33);
  for (uint64_t Off = 0; Off < kFootprint; ++Off)
    LocalShadow[Off] = static_cast<uint8_t>(Rng.nextBelow(2));
  for (uint64_t C : {0u, 5u, 6u, 15u}) {
    for (uint64_t Off = 0; Off < kDirtyChunkBytes; ++Off) {
      uint64_t Roll = Rng.nextBelow(8);
      LocalShadow[C * kDirtyChunkBytes + Off] =
          Roll < 4 ? static_cast<uint8_t>(Roll)
                   : static_cast<uint8_t>(Rng.nextBelow(256));
    }
    markDirtyChunks(Mask.data(), dirtyChunkCount(kFootprint),
                    C * kDirtyChunkBytes, kDirtyChunkBytes);
  }
  std::vector<uint8_t> Before = LocalShadow;
  Cell = 9; // The worker's partial for the period.
  merge();

  for (uint64_t Off = 0; Off < kFootprint; ++Off)
    ASSERT_EQ(LocalShadow[Off], shadow::resetAtCheckpoint(Before[Off]))
        << "byte " << Off;
  EXPECT_TRUE(std::all_of(Mask.begin(), Mask.end(),
                          [](uint64_t W) { return W == 0; }));
  EXPECT_EQ(Cell, 0) << "the worker's copy must restart from the identity";
  EXPECT_EQ(Region.slotDirtyMask(0)[0],
            (1ULL << 0) | (1ULL << 5) | (1ULL << 6) | (1ULL << 15));
}

TEST_F(CheckpointRegionTest, MergeOfTwoChunksPagesInOnlyTheirPlanePages) {
  // Two slots, so the span of slot 0 is the distance to slot 1.
  const uint64_t Footprint16M = 16u << 20;
  makeRegion({0, 16, 8, 1}, 4096, Footprint16M);
  workerWrite(1 * kDirtyChunkBytes + 17, 0xAB);
  workerWrite(3000 * kDirtyChunkBytes + 5, 0xCD);
  merge();

  const long Page = sysconf(_SC_PAGESIZE);
  uint8_t *Begin = reinterpret_cast<uint8_t *>(Region.slot(0));
  uint64_t Span = reinterpret_cast<uint8_t *>(Region.slot(1)) - Begin;
  std::vector<unsigned char> Resident((Span + Page - 1) / Page);
  ASSERT_EQ(mincore(Begin, Span, Resident.data()), 0);
  uint64_t Pages = 0;
  for (unsigned char R : Resident)
    Pages += R & 1;
  const uint64_t HeaderAndMaskPages =
      (sizeof(SlotHeader) + 64 +
       dirtyMaskWords(dirtyChunkCount(Footprint16M)) * sizeof(uint64_t) +
       Page - 1) /
      Page;
  // Each dirty chunk costs one metadata page and one value page.
  EXPECT_GE(Pages, 4u);
  EXPECT_LE(Pages, HeaderAndMaskPages + 4);
}

TEST_F(CheckpointRegionTest, CommutativeCopiesFromBothWorkersCombineAtCommit) {
  int64_t Cells[2] = {};
  Redux.registerObject(&Cells[0], 8, ReduxElem::I64, ReduxOp::Add);
  Redux.registerObject(&Cells[1], 8, ReduxElem::I64, ReduxOp::Max);
  makeRegion(kOneSlot);
  // Each worker's copy starts at the identity and takes only its own
  // plain updates; the first merge copies it, the second combines.
  auto Worker = [&](int64_t Add, int64_t Max) {
    Redux.fillIdentity();
    Cells[0] += Add;
    Cells[1] = std::max(Cells[1], Max);
    merge();
  };
  Worker(5, 100);
  Worker(7, 42);

  Cells[0] = 30; // The master's values before the commit.
  Cells[1] = 50;
  ASSERT_FALSE(commitFails(0)) << Why;
  EXPECT_EQ(Cells[0], 42) << "adds from both workers must combine";
  EXPECT_EQ(Cells[1], 100) << "max keeps the larger contribution";
}

TEST_F(CheckpointRegionTest, IoOverflowKeepsWorkerRecordsForRecovery) {
  makeRegion(kOneWorker, /*IoCapacity=*/32);
  Io.push_back(IoRecord{0, 0, std::string(128, 'x')}); // Can't fit in 32 B.
  merge();
  EXPECT_EQ(Region.slot(0)->IoOverflow, 1u);
  // The records must stay with the worker: dropping them before the
  // misspec recovery re-executes the period would lose the output.
  ASSERT_EQ(Io.size(), 1u);
  EXPECT_EQ(Io[0].Text.size(), 128u);
  EXPECT_EQ(verdictAtJoin(), CommitFrontier::Verdict::Fail);
  EXPECT_NE(Why.find("overflow"), std::string::npos) << Why;
  EXPECT_EQ(Code, trace::Reason::IoOverflow);
}

} // namespace
