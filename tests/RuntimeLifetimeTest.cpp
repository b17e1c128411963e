//===- tests/RuntimeLifetimeTest.cpp - Fixed costs paid once --------------===//
//
// Two fixed costs that used to be paid per period or per job: the
// checkpoint period, which 0 now derives from the trip count and worker
// count, and the runtime's heaps, which shutdown parks and the next
// initialize in the same process reuses.  A reused heap must be
// byte-identical to a fresh one, and a forked child must never pick up
// its parent's parked heaps.
//
//===----------------------------------------------------------------------===//

#include "runtime/Privateer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace privateer;

namespace {

uint64_t periodFor(uint64_t Requested, uint64_t N, unsigned W) {
  ParallelOptions Opt;
  Opt.CheckpointPeriod = Requested;
  Opt.NumWorkers = W;
  return checkpointPeriodFor(Opt, N);
}

TEST(CheckpointPeriodRule, DerivedPeriodIsClampedQuarterShare) {
  EXPECT_EQ(ParallelOptions().CheckpointPeriod, 0u);
  // The paper programs' trip counts keep today's 64.
  EXPECT_EQ(periodFor(0, 256, 2), 64u);
  EXPECT_EQ(periodFor(0, 512, 2), 64u);
  EXPECT_EQ(periodFor(0, 1, 4), 64u);
  // ceil(N / 4W) between the bounds.
  EXPECT_EQ(periodFor(0, 1000, 2), 125u);
  EXPECT_EQ(periodFor(0, 1001, 2), 126u);
  // Long loops stop one below the paper's 253 ceiling, never at it.
  EXPECT_EQ(periodFor(0, 40000, 2), 252u);
  EXPECT_EQ(periodFor(0, 253 * 8, 2), 252u);
  EXPECT_EQ(periodFor(0, 1ull << 40, 1), 252u);
}

TEST(CheckpointPeriodRule, PrivateFreeLoopsPlanByTripCount) {
  auto PrivateFree = [](uint64_t Requested, uint64_t N, unsigned W) {
    ParallelOptions Opt;
    Opt.CheckpointPeriod = Requested;
    Opt.NumWorkers = W;
    return checkpointPeriodFor(Opt, N, /*PrivateFree=*/true);
  };
  // ceil(N / 4W), at least 64, with no cap: no timestamps to overflow.
  EXPECT_EQ(PrivateFree(0, 40000, 2), 5000u);
  EXPECT_EQ(PrivateFree(0, 300000, 4), 18750u);
  EXPECT_EQ(PrivateFree(0, 1000, 2), 125u);
  EXPECT_EQ(PrivateFree(0, 100, 4), 64u);
  // Explicit periods keep their clamp.
  EXPECT_EQ(PrivateFree(1000, 40000, 2), 252u);
  EXPECT_EQ(PrivateFree(16, 40000, 2), 16u);
}

TEST(CheckpointPeriodRule, ExplicitPeriodIsHonoured) {
  EXPECT_EQ(periodFor(1, 40000, 2), 1u);
  EXPECT_EQ(periodFor(16, 40000, 2), 16u);
  EXPECT_EQ(periodFor(64, 100000, 4), 64u);
  EXPECT_EQ(periodFor(252, 10, 2), 252u);
  EXPECT_EQ(periodFor(253, 10, 2), 252u);
  EXPECT_EQ(periodFor(1000, 10, 2), 252u);
}

TEST(CheckpointPeriodRule, DefaultOptionsCommitOneCheckpointPer252) {
  constexpr uint64_t N = 40000;
  Runtime &Rt = Runtime::get();
  Rt.initialize();
  auto *Out = static_cast<uint64_t *>(h_alloc(N * 8, HeapKind::Private));
  auto Body = [Out](uint64_t I) {
    private_write(&Out[I], 8);
    Out[I] = I * 2654435761u + 17;
  };
  Rt.runSequential(0, N, Body);
  std::vector<uint64_t> Expected(Out, Out + N);
  std::memset(Out, 0, N * 8);

  ParallelOptions Opt;
  Opt.NumWorkers = 2;
  InvocationStats S = Rt.runParallel(N, Opt, Body);
  EXPECT_EQ(S.Misspecs, 0u) << S.FirstMisspecReason;
  EXPECT_EQ(S.Checkpoints, (N + 251) / 252);
  EXPECT_EQ(std::memcmp(Out, Expected.data(), N * 8), 0);
  Rt.shutdown();
}

ino_t inodeOf(int Fd) {
  struct stat St {};
  EXPECT_EQ(fstat(Fd, &St), 0);
  return St.st_ino;
}

RuntimeConfig smallConfig() {
  RuntimeConfig C;
  C.ReadOnlyBytes = 1u << 20;
  C.PrivateBytes = 1u << 20;
  C.ReduxBytes = 1u << 20;
  C.ShortLivedBytes = 1u << 20;
  C.UnrestrictedBytes = 1u << 20;
  C.CommutativeBytes = 1u << 20;
  return C;
}

/// Fills a fresh 64 KiB allocation in every heap, plus the shadow bytes
/// under the private one, with \p Byte; returns the allocations.
std::vector<uint8_t *> dirtyEveryHeap(uint8_t Byte) {
  Runtime &Rt = Runtime::get();
  std::vector<uint8_t *> Blocks;
  for (unsigned I = 0; I < kNumHeapKinds; ++I) {
    auto *P = static_cast<uint8_t *>(
        Rt.heapAlloc(64 << 10, static_cast<HeapKind>(I)));
    std::memset(P, Byte, 64 << 10);
    Blocks.push_back(P);
  }
  uint64_t Priv = reinterpret_cast<uint64_t>(
      Blocks[static_cast<unsigned>(HeapKind::Private)]);
  std::memset(reinterpret_cast<void *>(shadowAddress(Priv)), Byte, 64 << 10);
  return Blocks;
}

bool allZero(uint64_t Base, size_t Bytes) {
  const auto *P = reinterpret_cast<const uint8_t *>(Base);
  for (size_t I = 0; I < Bytes; ++I)
    if (P[I] != 0)
      return false;
  return true;
}

TEST(ParkedHeaps, ReusedHeapsAreByteIdenticalToFreshOnes) {
  Runtime &Rt = Runtime::get();
  Rt.initialize(smallConfig());
  std::vector<uint8_t *> First = dirtyEveryHeap(0xA5);
  // A freed block leaves a free list behind, the allocator state a fresh
  // heap must not inherit.
  Rt.heapDealloc(Rt.heapAlloc(128, HeapKind::ShortLived),
                 HeapKind::ShortLived);
  std::vector<ino_t> Inodes;
  std::vector<size_t> HighWater;
  for (unsigned I = 0; I < kNumHeapKinds; ++I) {
    Inodes.push_back(inodeOf(Rt.heap(static_cast<HeapKind>(I)).fd()));
    HighWater.push_back(Rt.heap(static_cast<HeapKind>(I)).highWater());
  }
  Rt.shutdown();
  EXPECT_FALSE(Rt.isInitialized());
  EXPECT_TRUE(Rt.heap(HeapKind::Private).isCreated()) << "not parked";

  Rt.initialize(smallConfig());
  for (unsigned I = 0; I < kNumHeapKinds; ++I) {
    SharedHeap &H = Rt.heap(static_cast<HeapKind>(I));
    SCOPED_TRACE(heapKindName(static_cast<HeapKind>(I)));
    EXPECT_EQ(inodeOf(H.fd()), Inodes[I]) << "heap was not parked";
    EXPECT_EQ(H.liveCount(), 0u);
    EXPECT_EQ(H.highWater(), SharedHeap::dataStartOffset());
    // Skip the header: it is live allocator state, checked above.
    EXPECT_TRUE(allZero(H.base() + SharedHeap::dataStartOffset(),
                        HighWater[I] - SharedHeap::dataStartOffset()));
  }
  EXPECT_TRUE(allZero(shadowHeapBase(),
                      HighWater[static_cast<unsigned>(HeapKind::Private)]));
  // A fresh allocator hands out the same addresses again.
  std::vector<uint8_t *> Second = dirtyEveryHeap(0x5A);
  EXPECT_EQ(Second, First);
  Rt.shutdown();
}

TEST(ParkedHeaps, ChangedSizeRecreatesThatHeap) {
  Runtime &Rt = Runtime::get();
  Rt.initialize(smallConfig());
  dirtyEveryHeap(0xC3);
  ino_t Priv = inodeOf(Rt.heap(HeapKind::Private).fd());
  ino_t Redux = inodeOf(Rt.heap(HeapKind::Redux).fd());
  Rt.shutdown();

  RuntimeConfig Bigger = smallConfig();
  Bigger.PrivateBytes = 2u << 20;
  Rt.initialize(Bigger);
  SharedHeap &P = Rt.heap(HeapKind::Private);
  EXPECT_NE(inodeOf(P.fd()), Priv);
  EXPECT_EQ(P.size(), Bigger.PrivateBytes);
  EXPECT_EQ(inodeOf(Rt.heap(HeapKind::Redux).fd()), Redux);
  EXPECT_TRUE(allZero(P.base() + SharedHeap::dataStartOffset(),
                      P.size() - SharedHeap::dataStartOffset()));
  EXPECT_TRUE(allZero(shadowHeapBase(), Bigger.PrivateBytes));
  Rt.shutdown();
}

TEST(ParkedHeaps, ForkedChildSharesNoHeapWithItsParent) {
  Runtime &Rt = Runtime::get();
  Rt.initialize(smallConfig());
  dirtyEveryHeap(0x11);
  std::vector<ino_t> Parked;
  for (unsigned I = 0; I < kNumHeapKinds; ++I)
    Parked.push_back(inodeOf(Rt.heap(static_cast<HeapKind>(I)).fd()));
  Rt.shutdown();

  int ToChild[2], ToParent[2];
  ASSERT_EQ(pipe(ToChild), 0);
  ASSERT_EQ(pipe(ToParent), 0);
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    // Child: initialize after the parent wrote its own heaps, check none
    // of that shows, then write over everything for the parent to check.
    char C;
    if (read(ToChild[0], &C, 1) != 1)
      _exit(10);
    Rt.initialize(smallConfig());
    int Rc = 0;
    for (unsigned I = 0; I < kNumHeapKinds && !Rc; ++I) {
      SharedHeap &H = Rt.heap(static_cast<HeapKind>(I));
      if (inodeOf(H.fd()) == Parked[I])
        Rc = 11;
      else if (!allZero(H.base() + SharedHeap::dataStartOffset(), 64 << 10))
        Rc = 16; // The parent's writes reached the child.
    }
    std::vector<uint8_t *> Mine = dirtyEveryHeap(0xEE);
    for (uint8_t *P : Mine)
      if (!Rc && P[0] != 0xEE)
        Rc = 12;
    if (write(ToParent[1], "w", 1) != 1)
      Rc = 13;
    if (read(ToChild[0], &C, 1) != 1)
      Rc = 14;
    for (uint8_t *P : Mine)
      if (!Rc && P[100] != 0xEE)
        Rc = 15; // The parent's writes reached the child.
    _exit(Rc);
  }
  Rt.initialize(smallConfig());
  std::vector<uint8_t *> Mine = dirtyEveryHeap(0x77);
  ASSERT_EQ(write(ToChild[1], "p", 1), 1);
  char C;
  ASSERT_EQ(read(ToParent[0], &C, 1), 1);
  for (uint8_t *P : Mine)
    EXPECT_EQ(P[0], 0x77) << "the child's writes reached the parent";
  for (uint8_t *P : Mine)
    P[100] = 0x33;
  ASSERT_EQ(write(ToChild[1], "p", 1), 1);
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  EXPECT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  for (int Fd : {ToChild[0], ToChild[1], ToParent[0], ToParent[1]})
    close(Fd);
  Rt.shutdown();
}

} // namespace
