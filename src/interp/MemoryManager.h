//===- interp/MemoryManager.h - Interpreter memory backends -----*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memory backends for the interpreter and the bytecode VM.  The
/// interpreter and sequential VM runs use plain host malloc; privatized
/// programs on the VM route annotated allocation sites and heap-assigned
/// globals to the Privateer runtime's logical heaps — the operational half
/// of §4.4 Replace Allocation.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_INTERP_MEMORYMANAGER_H
#define PRIVATEER_INTERP_MEMORYMANAGER_H

#include "runtime/HeapKind.h"
#include "runtime/Reduction.h"

namespace privateer {
namespace interp {

namespace detail {

/// Intrusive bookkeeping for plain-malloc blocks: each allocation carries
/// a hidden header linked into a doubly-linked list, so tracking a block
/// is O(1) pointer surgery instead of the ordered-set insert/erase this
/// replaced — program malloc/free sits on the hot path of queue-churning
/// workloads (dijkstra enqueues per relaxation) in both execution engines.
/// A magic word in the header keeps frees of untracked or already-freed
/// pointers loudly fatal, and the destructor reclaims leaked blocks.
class BlockList {
public:
  ~BlockList();
  /// Returns zeroed user storage of \p Bytes (malloc'd memory reads as
  /// zero in both engines, like the calloc it replaced).
  void *allocate(uint64_t Bytes);
  /// Unlinks and frees \p P; false if it is not a live tracked block.
  bool deallocate(void *P);

private:
  struct BlockHeader {
    BlockHeader *Prev;
    BlockHeader *Next;
    uint64_t Magic;
    uint64_t Pad; ///< Keeps user storage 16-byte aligned.
  };
  BlockHeader *Head = nullptr;
};

} // namespace detail

class MemoryManager {
public:
  virtual ~MemoryManager() = default;

  /// Allocates storage for an alloc site or global whose heap assignment
  /// (\p HasHeap, \p K) the bytecode program carries as plain data (a
  /// BytecodeProgram is relocatable).  \p Zero requests zero-fill even on
  /// the logical-heap path (globals).
  virtual void *allocateTagged(uint64_t Bytes, bool HasHeap, HeapKind K,
                               bool Zero) = 0;
  virtual void deallocate(void *P) = 0;
  /// Declares the \p Bytes at \p P, just allocated for a reduction site, a
  /// reduction object; host memory needs no registration.
  virtual void registerReduction(void *, uint64_t, ReduxElem, ReduxOp) {}
};

/// Host malloc/free; owns outstanding blocks so leaked program memory is
/// reclaimed when the manager dies (profiling runs execute buggy-looking
/// programs on purpose).
class PlainMemoryManager : public MemoryManager {
public:
  ~PlainMemoryManager() override;
  /// Zeroed storage of \p Bytes: the interpreter's only allocator.
  void *allocate(uint64_t Bytes) { return Live.allocate(Bytes); }
  void *allocateTagged(uint64_t Bytes, bool HasHeap, HeapKind K,
                       bool Zero) override;
  void deallocate(void *P) override;

private:
  detail::BlockList Live;
};

/// Routes heap-assigned sites and globals into the Privateer runtime's
/// logical heaps; anything unassigned falls back to host malloc.  Frees
/// dispatch on the pointer's heap tag.
class PrivateerMemoryManager : public MemoryManager {
public:
  ~PrivateerMemoryManager() override;
  void *allocateTagged(uint64_t Bytes, bool HasHeap, HeapKind K,
                       bool Zero) override;
  void deallocate(void *P) override;
  void registerReduction(void *P, uint64_t Bytes, ReduxElem Elem,
                         ReduxOp Op) override;

private:
  detail::BlockList LivePlain;
};

} // namespace interp
} // namespace privateer

#endif // PRIVATEER_INTERP_MEMORYMANAGER_H
