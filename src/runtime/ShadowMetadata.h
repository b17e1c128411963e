//===- runtime/ShadowMetadata.h - Table 2 transition rules ------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-byte privacy metadata codes and the transition rules of the
/// paper's Table 2.  "Every byte of metadata contains one of four codes:
/// live-in (0), old-write (1), read-live-in (2), or a timestamp 3+(i-i0)
/// encoding the iteration i after the most recent checkpoint i0."
///
/// Table 2 (op, metadata before -> after), where B is the timestamp for the
/// current iteration and a a timestamp for an earlier iteration:
///
///   Read   0            -> 2        read a live-in value
///   Read   1            -> misspec  loop-carried flow dependence
///   Read   2            -> 2        read a live-in value
///   Read   a (2<a<B)    -> misspec  loop-carried flow dependence
///   Read   B            -> B        intra-iteration (private) flow
///   Write  0            -> B        overwrite a live-in value
///   Write  1            -> B        overwrite an old write
///   Write  2            -> misspec  conservative false positive
///   Write  a (2<a<=B)   -> B        overwrite a recent write
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_RUNTIME_SHADOWMETADATA_H
#define PRIVATEER_RUNTIME_SHADOWMETADATA_H

#include "runtime/DirtyChunks.h"

#include <algorithm>
#include <cstdint>

namespace privateer {
namespace shadow {

inline constexpr uint8_t kLiveIn = 0;
inline constexpr uint8_t kOldWrite = 1;
inline constexpr uint8_t kReadLiveIn = 2;
/// Timestamp code of iteration \p I after the most recent checkpoint \p I0.
inline constexpr uint8_t kFirstTimestamp = 3;

/// "Privateer triggers a checkpoint operation at least every 253
/// iterations" so that 3+(i-i0) never overflows a byte.
inline constexpr uint64_t kMaxCheckpointPeriod = 253;

inline constexpr uint8_t timestampFor(uint64_t Iter, uint64_t PeriodBase) {
  return static_cast<uint8_t>(kFirstTimestamp + (Iter - PeriodBase));
}

inline constexpr bool isTimestamp(uint8_t Code) {
  return Code >= kFirstTimestamp;
}

struct Transition {
  uint8_t After;
  bool Misspec;
};

/// Applies the "Read" half of Table 2 for current-iteration timestamp
/// \p CurrentTs (which must itself be a timestamp code).
inline constexpr Transition applyRead(uint8_t Before, uint8_t CurrentTs) {
  if (Before == kLiveIn)
    return {kReadLiveIn, false}; // Read a live-in value.
  if (Before == kOldWrite)
    return {Before, true}; // Loop-carried flow dependence.
  if (Before == kReadLiveIn)
    return {kReadLiveIn, false}; // Read a live-in value.
  if (Before == CurrentTs)
    return {CurrentTs, false}; // Intra-iteration (private) flow.
  return {Before, true};       // Earlier iteration: loop-carried flow.
}

/// Applies the "Write" half of Table 2.
inline constexpr Transition applyWrite(uint8_t Before, uint8_t CurrentTs) {
  if (Before == kLiveIn)
    return {CurrentTs, false}; // Overwrite a live-in value.
  if (Before == kOldWrite)
    return {CurrentTs, false}; // Overwrite an old write.
  if (Before == kReadLiveIn)
    return {Before, true}; // Conservative false positive.
  return {CurrentTs, false}; // Overwrite a recent write.
}

/// The range rules take whole blocks of this many metadata bytes at a time
/// while every block is in one common state.
inline constexpr uint64_t kRangeBlockBytes = 64;

/// Sixteen metadata bytes as two words: GCC and Clang keep it in one SIMD
/// register where the target has one, and fall back to word pairs where not.
typedef uint64_t MetaLanes __attribute__((vector_size(16)));

/// The OR over the block at \p Meta of \p F applied to each of its 16-byte
/// lanes, folded to one word: a branch-free reduction.
template <typename Fn> inline uint64_t reduceBlock(const uint8_t *Meta, Fn F) {
  MetaLanes Acc = {0, 0};
  for (uint64_t J = 0; J < kRangeBlockBytes; J += sizeof(MetaLanes)) {
    MetaLanes L;
    __builtin_memcpy(&L, Meta + J, sizeof(L));
    Acc |= F(L);
  }
  return Acc[0] | Acc[1];
}

/// Applies the Read rule to \p N consecutive metadata bytes.  Whole 64-byte
/// blocks go first, each tested branch-free by OR-reducing its words: a
/// block of current timestamps (intra-iteration flow) or of read-live-in
/// bytes stays as it is, and a block of live-in bytes becomes read-live-in.
/// From the first mixed block on, a word-at-a-time loop takes the same
/// three states and hands any other word to the per-byte rule.  Returns
/// false on the first misspeculating byte, with every byte before it
/// updated as the per-byte rule would.  This is the loop behind
/// private_read: a few instructions per block in the common case, as the
/// paper requires.
inline bool applyReadRange(uint8_t *Meta, uint64_t N, uint8_t CurrentTs) {
  const uint64_t TsWord = kByteLowBits * CurrentTs;
  const uint64_t ReadLiveInWord = kByteLowBits * kReadLiveIn;
  uint64_t I = 0;
  for (; I + kRangeBlockBytes <= N; I += kRangeBlockBytes) {
    // Zero exactly when every byte of the block equals Word's.
    auto Differs = [Block = Meta + I](uint64_t Word) {
      return reduceBlock(Block, [Word](MetaLanes L) { return L ^ Word; });
    };
    if (Differs(TsWord) == 0 || Differs(ReadLiveInWord) == 0)
      continue; // A read leaves both as they are.
    if (Differs(0) != 0)
      break; // A mixed block: the word loop takes it from here.
    __builtin_memset(Meta + I, kReadLiveIn, kRangeBlockBytes);
  }
  auto Slow = [&](uint64_t End) {
    for (; I < End; ++I) {
      Transition T = applyRead(Meta[I], CurrentTs);
      if (T.Misspec)
        return false;
      Meta[I] = T.After;
    }
    return true;
  };
  uint64_t Head = std::min<uint64_t>(
      N, I + ((8 - (reinterpret_cast<uintptr_t>(Meta + I) & 7)) & 7));
  if (!Slow(Head))
    return false;
  while (I + 8 <= N) {
    uint64_t W;
    __builtin_memcpy(&W, Meta + I, 8);
    if (W == TsWord || W == ReadLiveInWord) { // Unchanged by a read.
      I += 8;
      continue;
    }
    if (W == 0) { // All live-in.
      __builtin_memcpy(Meta + I, &ReadLiveInWord, 8);
      I += 8;
      continue;
    }
    if (!Slow(I + 8)) // Mixed word: per-byte rules (advances I).
      return false;
  }
  return Slow(N);
}

/// Applies the Write rule to \p N consecutive metadata bytes.  Only a
/// read-live-in byte refuses a write, so a block or word without one
/// becomes the current timestamp whole, whatever earlier iterations left in
/// it.  Whole 64-byte blocks go first, each tested branch-free by OR-ing
/// its words' zero-byte tests against read-live-in; from the first block
/// that holds one, the word loop and then the per-byte rule find it.
/// Returns false on the first misspeculating (read-live-in) byte.
inline bool applyWriteRange(uint8_t *Meta, uint64_t N, uint8_t CurrentTs) {
  const uint64_t TsWord = kByteLowBits * CurrentTs;
  const uint64_t ReadLiveInWord = kByteLowBits * kReadLiveIn;
  uint64_t I = 0;
  for (; I + kRangeBlockBytes <= N; I += kRangeBlockBytes) {
    // wordHasByte's test for read-live-in, OR-ed over the block.
    uint64_t ZeroBytes = reduceBlock(Meta + I, [=](MetaLanes L) {
      MetaLanes X = L ^ ReadLiveInWord;
      return (X - kByteLowBits) & ~X;
    });
    if (ZeroBytes & kByteHighBits)
      break; // A read-live-in byte: the word loop takes it from here.
    __builtin_memset(Meta + I, CurrentTs, kRangeBlockBytes);
  }
  auto Slow = [&](uint64_t End) {
    for (; I < End; ++I) {
      Transition T = applyWrite(Meta[I], CurrentTs);
      if (T.Misspec)
        return false;
      Meta[I] = T.After;
    }
    return true;
  };
  uint64_t Head = std::min<uint64_t>(
      N, I + ((8 - (reinterpret_cast<uintptr_t>(Meta + I) & 7)) & 7));
  if (!Slow(Head))
    return false;
  while (I + 8 <= N) {
    uint64_t W;
    __builtin_memcpy(&W, Meta + I, 8);
    if (!wordHasByte(W, kReadLiveIn)) {
      __builtin_memcpy(Meta + I, &TsWord, 8);
      I += 8;
      continue;
    }
    if (!Slow(I + 8)) // A read-live-in byte: per-byte rules up to it.
      return false;
  }
  return Slow(N);
}

/// Checkpoint-time reset (paper §5.1): "A checkpoint resets the metadata
/// range by replacing all writes before the checkpoint (metadata a >= 3)
/// with old-write (1)."  Validated read-live-in bytes revert to live-in:
/// their privacy for the finished period has been established, and any
/// later-period read still sees the original live-in value (worker copies
/// are never refreshed mid-invocation).
inline constexpr uint8_t resetAtCheckpoint(uint8_t Code) {
  if (isTimestamp(Code))
    return kOldWrite;
  if (Code == kReadLiveIn)
    return kLiveIn;
  return Code;
}

} // namespace shadow
} // namespace privateer

#endif // PRIVATEER_RUNTIME_SHADOWMETADATA_H
