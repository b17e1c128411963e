//===- runtime/HeapKind.h - Logical heaps and tagged addresses --*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five logical heaps of paper §4.2 and the tagged-address scheme of
/// §5.1: "Bits 44-46 of the address hold a 3-bit heap tag, allowing the
/// runtime to quickly determine if a pointer references an address within
/// the correct heap. ... The bit patterns for the private and shadow heaps
/// are chosen so they differ by only one bit.  For a byte at address p
/// within the private heap, the system computes the address of the
/// corresponding byte of metadata in the shadow heap with a single bit-wise
/// OR instruction."
///
/// Tag assignment (bits 46..44):
///   0b001 ReadOnly      0b010 Private       0b011 Shadow (= Private|bit44)
///   0b100 Redux         0b101 ShortLived    0b110 Unrestricted
///   0b111 Commutative
///
/// Commutative is the sixth classification (beyond the paper's five):
/// objects whose every loop access is a recognized read-modify-write with a
/// commutative-associative integer operator.  Its objects are registered
/// reductions (runtime/Reduction.h): each speculative worker updates its
/// own copy, and checkpoint commits combine the copies into the master, so
/// cross-worker updates to the same cell never misspeculate.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_RUNTIME_HEAPKIND_H
#define PRIVATEER_RUNTIME_HEAPKIND_H

#include <cstdint>

namespace privateer {

/// The access-pattern classifications of paper §4.2 plus the commutative
/// extension.  Shadow is an internal region holding privacy metadata; it is
/// never a classification.
enum class HeapKind : uint8_t {
  ReadOnly = 0,
  Private = 1,
  Redux = 2,
  ShortLived = 3,
  Unrestricted = 4,
  Commutative = 5,
};

/// Must track the enum above: every HeapKind switch in the tree is audited
/// to cover all kinds with no default, so adding a kind without growing
/// this count (or vice versa) fails to compile right here.
inline constexpr unsigned kNumHeapKinds = 6;
static_assert(static_cast<unsigned>(HeapKind::Commutative) + 1 ==
                  kNumHeapKinds,
              "kNumHeapKinds must cover the last HeapKind enumerator");

inline constexpr const char *heapKindName(HeapKind K) {
  switch (K) {
  case HeapKind::ReadOnly:
    return "read-only";
  case HeapKind::Private:
    return "private";
  case HeapKind::Redux:
    return "redux";
  case HeapKind::ShortLived:
    return "short-lived";
  case HeapKind::Unrestricted:
    return "unrestricted";
  case HeapKind::Commutative:
    return "commutative";
  }
  // Unreachable for in-range kinds; out-of-range bytes (e.g. a corrupted
  // image) must be rejected by the caller before casting to HeapKind.
  return "<invalid>";
}

/// Bit position of the least-significant tag bit (paper: bits 44-46).
inline constexpr unsigned kHeapTagShift = 44;
inline constexpr uint64_t kHeapTagMask = 0x7ULL << kHeapTagShift;

/// The single bit by which the private and shadow tags differ, enabling
/// shadowAddress() to be one OR instruction.
inline constexpr uint64_t kShadowBit = 1ULL << kHeapTagShift;

/// 3-bit tag for each logical heap.  Private=0b010 and Shadow=0b011 differ
/// only in bit 44.
inline constexpr uint64_t heapTag(HeapKind K) {
  switch (K) {
  case HeapKind::ReadOnly:
    return 0b001;
  case HeapKind::Private:
    return 0b010;
  case HeapKind::Redux:
    return 0b100;
  case HeapKind::ShortLived:
    return 0b101;
  case HeapKind::Unrestricted:
    return 0b110;
  case HeapKind::Commutative:
    return 0b111;
  }
  return 0;
}

static_assert(heapTag(HeapKind::Commutative) == 0b111 &&
                  heapTag(HeapKind::ReadOnly) == 0b001,
              "every logical heap must own a distinct non-zero 3-bit tag");

inline constexpr uint64_t kShadowTag = 0b011;

/// AddressSanitizer reserves fixed regions that overlap the paper's bare
/// tag bases: its high shadow covers 0x100000000000 (tag 0b001) and its
/// allocator space covers 0x600000000000 (tag 0b110).  Sanitizer builds
/// therefore slide every heap by a uniform offset below the tag bits; the
/// tag extraction and the private->shadow OR are unaffected because the
/// slide keeps bits 44-46 intact and is identical across heaps.
#if defined(__SANITIZE_ADDRESS__)
#define PRIVATEER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PRIVATEER_ASAN 1
#endif
#endif
#ifndef PRIVATEER_ASAN
#define PRIVATEER_ASAN 0
#endif
inline constexpr uint64_t kHeapSlide =
    PRIVATEER_ASAN ? (1ULL << 43) : 0; // 8 TB, strictly below the tag bits.

/// Base virtual address of a logical heap; every object allocated from the
/// heap inherits its tag because the heap is subdivided by allocation.
inline constexpr uint64_t heapBase(HeapKind K) {
  return (heapTag(K) << kHeapTagShift) + kHeapSlide;
}

inline constexpr uint64_t shadowHeapBase() {
  return (kShadowTag << kHeapTagShift) + kHeapSlide;
}

/// Extracts the 3-bit tag of \p Addr.
inline constexpr uint64_t addressTag(uint64_t Addr) {
  return (Addr & kHeapTagMask) >> kHeapTagShift;
}

/// The separation check of §5.1: does \p Addr carry the tag of heap \p K?
/// "The runtime tests the pointer's heap tag via bit arithmetic, reporting
/// misspeculation upon mismatch."
inline constexpr bool addressInHeap(uint64_t Addr, HeapKind K) {
  return (Addr & kHeapTagMask) == (heapTag(K) << kHeapTagShift);
}

/// Address of the metadata byte for private byte \p PrivateAddr: a single
/// bit-wise OR, as in the paper.
inline constexpr uint64_t shadowAddress(uint64_t PrivateAddr) {
  return PrivateAddr | kShadowBit;
}

} // namespace privateer

#endif // PRIVATEER_RUNTIME_HEAPKIND_H
