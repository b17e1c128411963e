//===- tests/ShadowMetadataTest.cpp - Table 2 property tests --------------===//
//
// Exhaustive and randomized validation of the shadow-metadata transition
// rules (paper Table 2) and of the word-at-a-time range fast paths, which
// must be observationally identical to the per-byte reference rules.
//
//===----------------------------------------------------------------------===//

#include "runtime/ShadowMetadata.h"
#include "support/DeterministicRng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

using namespace privateer;
using namespace privateer::shadow;

namespace {

TEST(ShadowMetadata, Table2ReadRows) {
  uint8_t B = timestampFor(9, 0);
  uint8_t A = timestampFor(2, 0);
  // Read 0 -> 2.
  EXPECT_FALSE(applyRead(kLiveIn, B).Misspec);
  EXPECT_EQ(applyRead(kLiveIn, B).After, kReadLiveIn);
  // Read 1 -> misspec.
  EXPECT_TRUE(applyRead(kOldWrite, B).Misspec);
  // Read 2 -> 2.
  EXPECT_FALSE(applyRead(kReadLiveIn, B).Misspec);
  EXPECT_EQ(applyRead(kReadLiveIn, B).After, kReadLiveIn);
  // Read a (earlier) -> misspec.
  EXPECT_TRUE(applyRead(A, B).Misspec);
  // Read B -> B (intra-iteration flow).
  EXPECT_FALSE(applyRead(B, B).Misspec);
  EXPECT_EQ(applyRead(B, B).After, B);
}

TEST(ShadowMetadata, Table2WriteRows) {
  uint8_t B = timestampFor(9, 0);
  uint8_t A = timestampFor(2, 0);
  EXPECT_FALSE(applyWrite(kLiveIn, B).Misspec);
  EXPECT_EQ(applyWrite(kLiveIn, B).After, B);
  EXPECT_FALSE(applyWrite(kOldWrite, B).Misspec);
  EXPECT_EQ(applyWrite(kOldWrite, B).After, B);
  // Write to read-live-in: the conservative false positive.
  EXPECT_TRUE(applyWrite(kReadLiveIn, B).Misspec);
  EXPECT_FALSE(applyWrite(A, B).Misspec);
  EXPECT_EQ(applyWrite(A, B).After, B);
  EXPECT_FALSE(applyWrite(B, B).Misspec);
}

TEST(ShadowMetadata, TimestampEncodingAndPeriodCeiling) {
  EXPECT_EQ(timestampFor(0, 0), kFirstTimestamp);
  EXPECT_EQ(timestampFor(5, 3), kFirstTimestamp + 2);
  // The 253-iteration ceiling keeps the code within a byte.
  EXPECT_EQ(static_cast<unsigned>(
                timestampFor(kMaxCheckpointPeriod - 1, 0)),
            255u);
}

TEST(ShadowMetadata, ResetAgesWritesAndRevertsReads) {
  uint8_t B = timestampFor(7, 0);
  EXPECT_EQ(resetAtCheckpoint(B), kOldWrite);
  EXPECT_EQ(resetAtCheckpoint(kFirstTimestamp), kOldWrite);
  EXPECT_EQ(resetAtCheckpoint(kReadLiveIn), kLiveIn);
  EXPECT_EQ(resetAtCheckpoint(kLiveIn), kLiveIn);
  EXPECT_EQ(resetAtCheckpoint(kOldWrite), kOldWrite);
}

/// Per-byte reference implementations for the range fast paths.
bool refReadRange(std::vector<uint8_t> &Meta, uint8_t Ts) {
  for (uint8_t &M : Meta) {
    Transition T = applyRead(M, Ts);
    if (T.Misspec)
      return false;
    M = T.After;
  }
  return true;
}

bool refWriteRange(std::vector<uint8_t> &Meta, uint8_t Ts) {
  for (uint8_t &M : Meta) {
    Transition T = applyWrite(M, Ts);
    if (T.Misspec)
      return false;
    M = T.After;
  }
  return true;
}

class RangeFastPathProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RangeFastPathProperty, MatchesPerByteReference) {
  DeterministicRng Rng(GetParam());
  for (int Trial = 0; Trial < 200; ++Trial) {
    size_t N = 1 + Rng.nextBelow(70);
    size_t Pad = Rng.nextBelow(8); // Unaligned starts too.
    std::vector<uint8_t> A(N + Pad), B;
    for (size_t I = 0; I < A.size(); ++I) {
      // Bias toward the interesting codes.
      switch (Rng.nextBelow(6)) {
      case 0:
        A[I] = kLiveIn;
        break;
      case 1:
        A[I] = kOldWrite;
        break;
      case 2:
        A[I] = kReadLiveIn;
        break;
      default:
        A[I] = static_cast<uint8_t>(kFirstTimestamp + Rng.nextBelow(12));
      }
    }
    B = A;
    uint8_t Ts = static_cast<uint8_t>(kFirstTimestamp + Rng.nextBelow(12));
    bool IsRead = Rng.next() & 1;

    std::vector<uint8_t> RefSlice(A.begin() + Pad, A.end());
    bool RefOk = IsRead ? refReadRange(RefSlice, Ts)
                        : refWriteRange(RefSlice, Ts);
    bool FastOk = IsRead ? applyReadRange(B.data() + Pad, N, Ts)
                         : applyWriteRange(B.data() + Pad, N, Ts);
    ASSERT_EQ(FastOk, RefOk) << "trial " << Trial;
    if (RefOk) {
      // On success the resulting metadata must match byte for byte.
      for (size_t I = 0; I < N; ++I)
        ASSERT_EQ(B[Pad + I], RefSlice[I]) << "trial " << Trial << " byte "
                                           << I;
    }
    // Prefix bytes before the range must never be touched.
    for (size_t I = 0; I < Pad; ++I)
      ASSERT_EQ(B[I], A[I]);
  }
}

// Ranges up to 1 KiB reach the whole-block rules.  Each range is in one
// state (for reads one code throughout, mostly one the read rule takes
// whole; for writes any codes but read-live-in) with 0-2 planted bytes of
// any code, some at offsets 63 and 64 and on the last byte, so a plant
// lands in the first block, opens the second, or closes the range.
// Verdict, stop position and every byte, canaries on both sides included,
// must match the per-byte reference.
TEST_P(RangeFastPathProperty, BlockRangesMatchPerByteReference) {
  DeterministicRng Rng(GetParam());
  constexpr size_t kCanary = 8;
  for (int Trial = 0; Trial < 400; ++Trial) {
    size_t N = 1 + Rng.nextBelow(1024);
    size_t Pad = Trial % 8; // Every start alignment.
    uint8_t Ts =
        static_cast<uint8_t>(kFirstTimestamp + 1 + Rng.nextBelow(12));
    uint8_t Earlier = static_cast<uint8_t>(Ts - 1); // Still a timestamp.
    bool IsRead = Rng.next() & 1;
    alignas(64) uint8_t Buf[8 + 1024 + kCanary];
    std::memset(Buf, 0xEE, sizeof(Buf));
    uint8_t *Meta = Buf + Pad;
    // Mostly the three states a read takes whole; now and then a range a
    // read refuses from its first byte.
    const uint8_t ReadStates[] = {Ts,          Ts,          kLiveIn,
                                  kLiveIn,     kReadLiveIn, kReadLiveIn,
                                  kOldWrite,   Earlier};
    const uint8_t WriteCodes[] = {kLiveIn, kOldWrite, Ts, Earlier, 255};
    uint8_t Fill = ReadStates[Rng.nextBelow(8)];
    for (size_t I = 0; I < N; ++I)
      Meta[I] = IsRead ? Fill : WriteCodes[Rng.nextBelow(5)];
    const uint8_t AnyCode[] = {kLiveIn, kOldWrite, kReadLiveIn, Ts, Earlier};
    for (uint64_t P = Rng.nextBelow(3); P > 0; --P) {
      size_t Offsets[] = {63, 64, N - 1, Rng.nextBelow(N)};
      size_t Off = std::min(Offsets[Rng.nextBelow(4)], N - 1);
      Meta[Off] = AnyCode[Rng.nextBelow(5)];
    }

    std::vector<uint8_t> Ref(Buf, Buf + sizeof(Buf));
    std::vector<uint8_t> RefSlice(Ref.begin() + Pad, Ref.begin() + Pad + N);
    bool RefOk =
        IsRead ? refReadRange(RefSlice, Ts) : refWriteRange(RefSlice, Ts);
    std::copy(RefSlice.begin(), RefSlice.end(), Ref.begin() + Pad);
    bool FastOk = IsRead ? applyReadRange(Meta, N, Ts)
                         : applyWriteRange(Meta, N, Ts);
    ASSERT_EQ(FastOk, RefOk) << "trial " << Trial << " N " << N;
    for (size_t I = 0; I < sizeof(Buf); ++I)
      ASSERT_EQ(Buf[I], Ref[I]) << "trial " << Trial << " N " << N
                                << " byte " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeFastPathProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(ShadowMetadata, WriteRangeWordRuleMatchesPerByteOnRandomWords) {
  // Only a read-live-in byte refuses a write, so a whole word of other
  // codes, earlier iterations' timestamps and the slot alphabet's 254 and
  // 255 included, becomes the current timestamp at once.  Half the ranges
  // hold no read-live-in byte and take the word path end to end.
  DeterministicRng Rng(77);
  const uint8_t Ts = timestampFor(9, 0);
  const uint8_t Codes[] = {kLiveIn, kOldWrite, kReadLiveIn, kFirstTimestamp,
                           Ts,      254,       255};
  for (int Trial = 0; Trial < 2000; ++Trial) {
    size_t N = 8 * (1 + Rng.nextBelow(32));
    bool AllowReadLiveIn = Rng.next() & 1;
    alignas(8) uint8_t Fast[256];
    std::vector<uint8_t> Ref(N);
    for (size_t I = 0; I < N; ++I) {
      uint8_t C;
      do
        C = Codes[Rng.nextBelow(7)];
      while (C == kReadLiveIn && !(AllowReadLiveIn && Rng.nextBelow(16) == 0));
      Fast[I] = Ref[I] = C;
    }
    bool RefOk = refWriteRange(Ref, Ts);
    ASSERT_EQ(applyWriteRange(Fast, N, Ts), RefOk) << "trial " << Trial;
    // A refused write stops at the same byte on both paths.
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(Fast[I], Ref[I]) << "trial " << Trial << " byte " << I;
  }
}

// --- Word-boundary properties of the range fast paths ------------------
//
// The fast paths consume an unaligned head byte-by-byte, then whole
// aligned words, then a tail; the checkpoint merge loops lean on the same
// structure.  These tests pin the boundary behavior deterministically:
// every head alignment, mixed words straddling the head/tail seams, and a
// misspeculating byte planted inside a word the fast path would otherwise
// consume in one compare.

/// Fills [0, N) with a deterministic mix of every code class.
void fillMixed(uint8_t *Meta, size_t N, uint8_t Ts) {
  for (size_t I = 0; I < N; ++I) {
    switch (I % 5) {
    case 0:
      Meta[I] = kLiveIn;
      break;
    case 1:
      Meta[I] = kOldWrite;
      break;
    case 2:
      Meta[I] = kReadLiveIn;
      break;
    case 3:
      Meta[I] = Ts;
      break;
    default:
      Meta[I] = static_cast<uint8_t>(kFirstTimestamp + (I % 7));
    }
  }
}

TEST(ShadowMetadataBoundary, AllEightHeadAlignmentsMatchReference) {
  uint8_t Ts = timestampFor(5, 0);
  alignas(8) uint8_t Buf[96];
  for (size_t Pad = 0; Pad < 8; ++Pad) {
    for (size_t N : {size_t(1), size_t(7), size_t(8), size_t(9), size_t(15),
                     size_t(16), size_t(17), size_t(40)}) {
      for (bool IsRead : {true, false}) {
        std::memset(Buf, 0xEE, sizeof(Buf)); // Canary outside the range.
        // Only writable codes inside, so both paths succeed: live-in,
        // old-write (write-only rows handled below), current timestamp.
        for (size_t I = 0; I < N; ++I)
          Buf[Pad + I] = (I % 3 == 0) ? kLiveIn
                         : (I % 3 == 1 && !IsRead) ? kOldWrite
                                                   : Ts;
        std::vector<uint8_t> Ref(Buf + Pad, Buf + Pad + N);
        bool RefOk = IsRead ? refReadRange(Ref, Ts) : refWriteRange(Ref, Ts);
        bool FastOk = IsRead ? applyReadRange(Buf + Pad, N, Ts)
                             : applyWriteRange(Buf + Pad, N, Ts);
        ASSERT_TRUE(RefOk);
        ASSERT_EQ(FastOk, RefOk) << "pad " << Pad << " n " << N;
        for (size_t I = 0; I < N; ++I)
          ASSERT_EQ(Buf[Pad + I], Ref[I])
              << "pad " << Pad << " n " << N << " byte " << I;
        // The fast path must not touch a byte outside [Pad, Pad+N).
        for (size_t I = 0; I < Pad; ++I)
          ASSERT_EQ(Buf[I], 0xEE);
        for (size_t I = Pad + N; I < sizeof(Buf); ++I)
          ASSERT_EQ(Buf[I], 0xEE);
      }
    }
  }
}

TEST(ShadowMetadataBoundary, MixedWordsStraddlingHeadAndTailMatchReference) {
  // Layout: unaligned mixed head, one uniform fast-path word, a mixed
  // word, another uniform word, then a mixed partial tail — so the loop
  // transitions head->fast->slow->fast->tail in one invocation.
  uint8_t Ts = timestampFor(9, 0);
  for (size_t Pad = 1; Pad < 8; ++Pad) {
    alignas(8) uint8_t Buf[64];
    size_t N = 8 - Pad /*head*/ + 8 + 8 + 8 + 5 /*tail*/;
    fillMixed(Buf + Pad, N, Ts);
    // Second full word uniform all-live-in (fast), third mixed (slow).
    size_t W0 = 8; // First aligned offset in Buf.
    std::memset(Buf + W0, kLiveIn, 8);
    fillMixed(Buf + W0 + 8, 8, Ts);
    std::memset(Buf + W0 + 16, kLiveIn, 8);

    std::vector<uint8_t> RefBuf(Buf, Buf + sizeof(Buf));
    // Each direction rejects some codes; patch those out so the success
    // path is exercised across every seam in one invocation.
    for (bool IsRead : {true, false}) {
      std::vector<uint8_t> A(RefBuf);
      std::vector<uint8_t> R;
      if (IsRead) {
        // Reads misspeculate on old-write and stale timestamps: keep only
        // live-in / read-live-in / current-Ts bytes.
        for (size_t I = 0; I < N; ++I)
          if (A[Pad + I] == kOldWrite || (isTimestamp(A[Pad + I]) &&
                                          A[Pad + I] != Ts))
            A[Pad + I] = kReadLiveIn;
      } else {
        for (size_t I = 0; I < N; ++I)
          if (A[Pad + I] == kReadLiveIn)
            A[Pad + I] = kOldWrite;
      }
      R.assign(A.begin() + Pad, A.begin() + Pad + N);
      bool RefOk = IsRead ? refReadRange(R, Ts) : refWriteRange(R, Ts);
      ASSERT_TRUE(RefOk);
      bool FastOk = IsRead ? applyReadRange(A.data() + Pad, N, Ts)
                           : applyWriteRange(A.data() + Pad, N, Ts);
      ASSERT_TRUE(FastOk) << "pad " << Pad;
      for (size_t I = 0; I < N; ++I)
        ASSERT_EQ(A[Pad + I], R[I]) << "pad " << Pad << " byte " << I;
    }
  }
}

TEST(ShadowMetadataBoundary, MisspecByteInsideFastPathWordIsCaught) {
  // A word that is uniform except for one misspeculating byte must not be
  // consumed by the whole-word compare; the per-byte fallback has to stop
  // exactly where the reference stops, leaving identical partial state.
  uint8_t Ts = timestampFor(4, 0);
  for (size_t Bad = 0; Bad < 8; ++Bad) {
    for (bool IsRead : {true, false}) {
      alignas(8) uint8_t Buf[24];
      std::memset(Buf, kLiveIn, sizeof(Buf));
      // Word 1 carries the poison byte; words 0 and 2 are fast-path.
      Buf[8 + Bad] = IsRead ? kOldWrite : kReadLiveIn;
      std::vector<uint8_t> Ref(Buf, Buf + sizeof(Buf));

      bool FastOk = IsRead ? applyReadRange(Buf, sizeof(Buf), Ts)
                           : applyWriteRange(Buf, sizeof(Buf), Ts);
      std::vector<uint8_t> R(Ref);
      bool RefOk = IsRead ? refReadRange(R, Ts) : refWriteRange(R, Ts);
      EXPECT_FALSE(FastOk) << "bad byte " << Bad;
      EXPECT_FALSE(RefOk);
      // Both stop at the poison byte; everything before it transitioned,
      // everything at and after it is untouched.
      std::vector<uint8_t> Expect(Ref);
      for (size_t I = 0; I < 8 + Bad; ++I)
        Expect[I] = IsRead ? applyRead(Ref[I], Ts).After
                           : applyWrite(Ref[I], Ts).After;
      for (size_t I = 0; I < sizeof(Buf); ++I)
        ASSERT_EQ(Buf[I], Expect[I])
            << (IsRead ? "read" : "write") << " bad " << Bad << " byte "
            << I;
    }
  }
}

} // namespace
