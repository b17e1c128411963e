//===- runtime/CommutativeLog.h - Deferred commutative updates --*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The commutative-update heap class (HeapKind::Commutative, the sixth
/// logical heap).  Objects whose every loop access is a recognized
/// read-modify-write with a commutative-associative integer operator — a
/// histogram bump, a degree counter, a set-membership OR, a min/max map —
/// never need privacy validation: any application order of the updates
/// yields the same bytes.  Following "Flexible Support for Fast Parallel
/// Commutative Updates" (arXiv 1709.09491), a speculative worker defers
/// each update into a per-worker typed log; workerMerge serializes the
/// period's log into the checkpoint slot, and commitSlot folds the records
/// into the master heap with the operator — combine at commit, exactly the
/// shape the reduction merge already has, but sparse: cost is O(updates),
/// not O(object bytes).
///
/// Operators are integer-only on purpose.  Wrapping two's-complement add,
/// mul, and the bitwise/min/max family are associative and commutative bit
/// for bit, so the deferred fold is byte-identical to sequential execution
/// in any application order — which is what lets the randomized
/// differential sweep compare parallel against sequential with memcmp.
/// Floating-point reductions stay on the dense redux heap where the paper
/// put them.
///
/// Update semantics (shared by the interpreter, the bytecode VM, and the
/// commit fold through applyComUpdate): load Bytes at Addr, sign-extend to
/// 64 bits (the IR's i64 load semantics), apply the operator in 64-bit
/// wrapping arithmetic, store back the low Bytes.
///
/// Misspeculation interaction: a log is squashed with its worker (records
/// die with the process) and a slot whose log section overflows is marked
/// ComOverflow, which commitSlot converts into ordinary misspeculation —
/// the period is then recovered sequentially, where updates apply directly.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_RUNTIME_COMMUTATIVELOG_H
#define PRIVATEER_RUNTIME_COMMUTATIVELOG_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace privateer {

/// The recognized commutative-associative update operators.  All wrap in
/// 64-bit two's complement; Min/Max compare signed (matching the IR's
/// sign-extending i64 loads).
enum class ComOp : uint8_t {
  Add = 0,
  Mul = 1,
  And = 2,
  Or = 3,
  Xor = 4,
  Min = 5,
  Max = 6,
};

inline constexpr unsigned kNumComOps = 7;

const char *comOpName(ComOp Op);

/// One deferred update: "fold Value into the Bytes-wide cell at Addr with
/// Op".  Addr is the absolute tagged address in the commutative heap, valid
/// in every process of the invocation (the heaps live at fixed bases).
struct ComRecord {
  uint64_t Addr = 0;
  int64_t Value = 0;
  ComOp Op = ComOp::Add;
  uint8_t Bytes = 8;
};

/// Applies one update to live memory.  The single definition every engine
/// and the commit fold share — byte-exactness across sequential, worker,
/// and recovery execution holds by construction.
void applyComUpdate(uint64_t Addr, ComOp Op, unsigned Bytes, int64_t Value);

/// The combine itself, without the memory access: Cur op Value in 64-bit
/// wrapping arithmetic.
int64_t combineComValues(ComOp Op, int64_t Cur, int64_t Value);

//===----------------------------------------------------------------------===//
// Slot wire format
//===----------------------------------------------------------------------===//
//
// Fixed 16-byte records so the slot section needs no parsing state:
//   word0 = Addr (bits 0..47) | Op (bits 48..55) | Bytes (bits 56..63)
//   word1 = Value
// Addresses fit 48 bits: the tag bits live at 44-46 and the sanitizer
// slide stays below bit 44, so every heap address is < 2^47.

inline constexpr uint64_t kComRecordBytes = 16;

/// Serializes \p Records into \p Buf (capacity \p Cap bytes), setting
/// \p Used.  Returns false (and leaves \p Used at 0) when they do not fit —
/// the caller marks the slot overflowed and keeps the records.
bool serializeComRecords(const std::vector<ComRecord> &Records, uint8_t *Buf,
                         uint64_t Cap, uint64_t &Used);

/// Decodes and applies \p Used bytes of records from \p Buf to live memory.
/// Every record is validated against [HeapLo, HeapLo + HeapSpan) before one
/// byte is written: a corrupted slot must become misspeculation, never a
/// scribble over master state.  Returns false on a malformed or
/// out-of-range record; \p Applied counts records folded in.
bool applyComRecords(const uint8_t *Buf, uint64_t Used, uint64_t HeapLo,
                     uint64_t HeapSpan, uint64_t &Applied);

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

/// One registered commutative object (a global the classifier routed to
/// the commutative heap).  Registration is observability and bounds
/// metadata: unlike reductions there is no identity fill and no per-object
/// combine walk — the log records carry everything commit needs.
struct ComObject {
  uint64_t Addr = 0;
  uint64_t SizeBytes = 0;
  ComOp Op = ComOp::Add;
  uint8_t ElemBytes = 8;
};

class CommutativeRegistry {
public:
  void registerObject(void *Addr, uint64_t SizeBytes, ComOp Op,
                      uint8_t ElemBytes) {
    Objects.push_back({reinterpret_cast<uint64_t>(Addr), SizeBytes, Op,
                       ElemBytes});
  }

  void clear() { Objects.clear(); }
  const std::vector<ComObject> &objects() const { return Objects; }

private:
  std::vector<ComObject> Objects;
};

} // namespace privateer

#endif // PRIVATEER_RUNTIME_COMMUTATIVELOG_H
