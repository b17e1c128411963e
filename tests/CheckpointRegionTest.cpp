//===- tests/CheckpointRegionTest.cpp - Sparse checkpoint slot tests ------===//
//
// Direct tests of CheckpointRegion's sparse dirty-chunk layout: merges fold
// only the chunks a worker's dirty mask names, commits walk the union mask,
// a short last slot's header rejects torn iteration counts, a
// scribbled chunk count overflows to a conservative misspeculation,
// commutative copies combine at commit, and deferred I/O survives a
// slot-buffer overflow for the recovery path to replay.  Overflowed slots are refused by the commit frontier's verdict,
// which every commit passes first.
//
//===----------------------------------------------------------------------===//

#include "runtime/Checkpoint.h"
#include "runtime/ShadowMetadata.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include <unistd.h>

using namespace privateer;

namespace {

class CheckpointRegionTest : public ::testing::Test {
protected:
  static constexpr uint64_t kFootprint = 16 * kDirtyChunkBytes; // 16 chunks.
  /// One period of eight iterations for two workers, or for one.
  static constexpr EpochPlan kOneSlot{0, 8, 8, 2};
  static constexpr EpochPlan kOneWorker{0, 8, 8, 1};

  void makeRegion(const EpochPlan &Plan, uint64_t IoCapacity = 4096) {
    CheckpointRegion::Config C;
    C.Plan = Plan;
    C.PrivateBytes = kFootprint;
    C.ReduxBytes = Redux.packedBytes();
    C.IoCapacity = IoCapacity;
    ASSERT_TRUE(Region.create(C));
    LocalShadow.assign(kFootprint, shadow::kLiveIn);
    LocalPrivate.assign(kFootprint, 0);
    MasterShadow.assign(kFootprint, shadow::kLiveIn);
    MasterPrivate.assign(kFootprint, 0);
    Mask.assign(dirtyMaskWords(dirtyChunkCount(kFootprint)), 0);
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
    markDirtyChunks(Mask.data(), dirtyChunkCount(kFootprint), Off, 1);
  }

  void workerReadLiveIn(uint64_t Off) {
    LocalShadow[Off] = shadow::kReadLiveIn;
    markDirtyChunks(Mask.data(), dirtyChunkCount(kFootprint), Off, 1);
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
  Region.workerMerge(0, LocalShadow.data(), LocalPrivate.data(), Mask.data(),
                     Redux, Io, /*Executed=*/true, ctx(&MergeScan));
  EXPECT_EQ(MergeScan.DirtyChunks, 2u);
  // Only the two dirty chunks were walked at all; everything outside them
  // cost nothing.
  EXPECT_LE(MergeScan.BytesScanned + MergeScan.BytesSkipped,
            2 * kDirtyChunkBytes);
  // Within them, the skip loop took the word path almost everywhere.
  EXPECT_GT(MergeScan.BytesSkipped, MergeScan.BytesScanned);

  // The slot records exactly the contributed chunks.
  EXPECT_EQ(Region.slot(0)->ChunksUsed, 2u);
  const uint64_t *SlotMask = Region.slotDirtyMask(0);
  EXPECT_EQ(SlotMask[0], (1ULL << 1) | (1ULL << 9));

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
  Region.workerMerge(0, LocalShadow.data(), LocalPrivate.data(), Mask.data(),
                     Redux, Io, true, ctx());

  // Second worker: fresh view, different chunk.
  LocalShadow.assign(kFootprint, shadow::kLiveIn);
  std::fill(Mask.begin(), Mask.end(), 0);
  workerWrite(14 * kDirtyChunkBytes + 8, 0x22,
              shadow::kFirstTimestamp + 1);
  Region.workerMerge(0, LocalShadow.data(), LocalPrivate.data(), Mask.data(),
                     Redux, Io, true, ctx());

  EXPECT_EQ(Region.slotDirtyMask(0)[0], (1ULL << 2) | (1ULL << 14));
  EXPECT_EQ(Region.slot(0)->ChunksUsed, 2u);
  ASSERT_FALSE(commitFails(0))
      << Why;
  EXPECT_EQ(MasterPrivate[2 * kDirtyChunkBytes + 8], 0x11);
  EXPECT_EQ(MasterPrivate[14 * kDirtyChunkBytes + 8], 0x22);
}

TEST_F(CheckpointRegionTest, CommitDetectsFlowDependenceInsideDirtyChunk) {
  makeRegion(kOneSlot);
  workerReadLiveIn(3 * kDirtyChunkBytes + 77);
  Region.workerMerge(0, LocalShadow.data(), LocalPrivate.data(), Mask.data(),
                     Redux, Io, true, ctx());
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

TEST_F(CheckpointRegionTest, ChunkCapacityOverflowBecomesMisspec) {
  // A slot holds an entry for every footprint chunk, so only a scribbled
  // ChunksUsed can exhaust it; the merge must then mark the slot
  // incomplete rather than allocate an entry past the slot.
  makeRegion(kOneWorker);
  Region.slot(0)->ChunksUsed =
      static_cast<uint32_t>(Region.slotChunkCapacity());
  workerWrite(0 * kDirtyChunkBytes + 5, 0x33);
  workerWrite(7 * kDirtyChunkBytes + 5, 0x44);
  Region.workerMerge(0, LocalShadow.data(), LocalPrivate.data(), Mask.data(),
                     Redux, Io, true, ctx());
  EXPECT_EQ(Region.slot(0)->ChunkOverflow, 1u);
  EXPECT_TRUE(Region.slotHeaderSane(0));
  EXPECT_EQ(verdictAtJoin(), CommitFrontier::Verdict::Fail);
  EXPECT_NE(Why.find("chunk capacity"), std::string::npos) << Why;
  EXPECT_EQ(Code, trace::Reason::ChunkOverflow);
  // Nothing from the overflowed slot reached the master image.
  EXPECT_EQ(MasterPrivate[0 * kDirtyChunkBytes + 5], 0);
  EXPECT_EQ(MasterPrivate[7 * kDirtyChunkBytes + 5], 0);
}

TEST_F(CheckpointRegionTest, DefaultCapacityCoversWholeFootprintLosslessly) {
  makeRegion(kOneSlot);
  EXPECT_EQ(Region.slotChunkCapacity(), dirtyChunkCount(kFootprint));
  // Dirty every chunk: a slot holds them all, so this can never overflow.
  for (uint64_t C = 0; C < dirtyChunkCount(kFootprint); ++C)
    workerWrite(C * kDirtyChunkBytes, static_cast<uint8_t>(C + 1));
  Region.workerMerge(0, LocalShadow.data(), LocalPrivate.data(), Mask.data(),
                     Redux, Io, true, ctx());
  EXPECT_EQ(Region.slot(0)->ChunkOverflow, 0u);
  ASSERT_FALSE(commitFails(0))
      << Why;
  for (uint64_t C = 0; C < dirtyChunkCount(kFootprint); ++C)
    EXPECT_EQ(MasterPrivate[C * kDirtyChunkBytes],
              static_cast<uint8_t>(C + 1));
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
    Region.workerMerge(0, LocalShadow.data(), LocalPrivate.data(),
                       Mask.data(), Redux, Io, true, ctx());
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
  Region.workerMerge(0, LocalShadow.data(), LocalPrivate.data(), Mask.data(),
                     Redux, Io, true, ctx());
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
