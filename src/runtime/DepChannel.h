//===- runtime/DepChannel.h - Cross-iteration token rings -------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Post/wait token channels for speculative DOACROSS scheduling (ROADMAP
/// item 3).  A channel is a fixed-size ring of (tag, value) slots indexed
/// by iteration number; the producer of a cross-iteration value posts it
/// under tag Iter+1 and consumers accept a slot only on an exact tag
/// match, so a slot left over from an earlier loop, epoch, or ring wrap
/// reads as "not yet posted" instead of as a stale value.
///
/// The rings live in one MAP_SHARED region created by runParallel and
/// inherited by every forked worker, which is what lets values cross the
/// copy-on-write isolation boundary that the rest of the speculation
/// system relies on.  Sequential execution (including misspeculation
/// recovery) posts into the same ring in iteration order, overwriting any
/// doomed speculative tokens before a re-executed consumer can read them.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_RUNTIME_DEPCHANNEL_H
#define PRIVATEER_RUNTIME_DEPCHANNEL_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace privateer {
namespace depchan {

/// Slots per channel ring (power of two).  A ring must out-span the largest
/// skew between a token's producer and its consumers: one epoch plus the
/// dependence distance, since workers whose chains never cross (distance a
/// multiple of W) can drift a whole epoch apart.  runParallel caps epochs
/// at kRingSlots - kMaxDistance iterations when dep channels are mapped.
constexpr uint32_t kRingSlots = 16384;

/// Largest dependence distance a channel may carry; the dependence-distance
/// analysis plans nothing farther.
constexpr uint32_t kMaxDistance = 4096;

/// One token slot.  Tag holds Iter+1 (0 = never posted).
struct DepSlot {
  std::atomic<uint64_t> Tag;
  std::atomic<uint64_t> Value;
};
static_assert(sizeof(DepSlot) == 16, "DepSlot must stay two words");

inline size_t ringBytes(uint32_t Channels) {
  return static_cast<size_t>(Channels) * kRingSlots * sizeof(DepSlot);
}

inline DepSlot &slotFor(DepSlot *Base, uint32_t Chan, uint64_t Iter) {
  return Base[static_cast<size_t>(Chan) * kRingSlots +
              (Iter & (kRingSlots - 1))];
}

inline void post(DepSlot *Base, uint32_t Chan, uint64_t Iter, uint64_t V) {
  DepSlot &S = slotFor(Base, Chan, Iter);
  S.Value.store(V, std::memory_order_relaxed);
  S.Tag.store(Iter + 1, std::memory_order_release);
}

/// Non-blocking probe: true (with *V filled in) when iteration \p Iter's
/// token is present on \p Chan.  The relaxed value read is ordered by the
/// acquire tag load; a producer kRingSlots iterations ahead could in
/// principle overwrite Value between the two loads, but the epoch cap
/// keeps producer/consumer skew below the ring size.
inline bool probe(DepSlot *Base, uint32_t Chan, uint64_t Iter, uint64_t *V) {
  DepSlot &S = slotFor(Base, Chan, Iter);
  if (S.Tag.load(std::memory_order_acquire) != Iter + 1)
    return false;
  *V = S.Value.load(std::memory_order_relaxed);
  return true;
}

} // namespace depchan
} // namespace privateer

#endif // PRIVATEER_RUNTIME_DEPCHANNEL_H
