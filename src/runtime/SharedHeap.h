//===- runtime/SharedHeap.h - One logical heap ------------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A logical heap backed by an anonymous shared-memory object, mapped at
/// its fixed tag-encoded virtual address (paper §5.1: "Heaps are created
/// via shm open.  Each process maps them into its address space via mmap
/// with read-only, read-write or copy-on-write protections.  The mmap
/// facility allows the system to select a fixed, absolute virtual address
/// for these heaps.").
///
/// The allocator state lives *inside* the heap (at its base), so a worker's
/// copy-on-write view privatizes allocator metadata together with the data:
/// workers can allocate/free short-lived objects without coordinating.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_RUNTIME_SHAREDHEAP_H
#define PRIVATEER_RUNTIME_SHAREDHEAP_H

#include "runtime/HeapKind.h"

#include <cstddef>
#include <cstdint>

#include <sys/types.h>

namespace privateer {

class SharedHeap {
public:
  SharedHeap() = default;
  SharedHeap(const SharedHeap &) = delete;
  SharedHeap &operator=(const SharedHeap &) = delete;
  ~SharedHeap();

  /// Creates the backing object and maps it MAP_SHARED at \p BaseAddr.
  /// If \p WithAllocator is false the region is raw storage (the shadow
  /// heap), otherwise an in-heap allocator header is initialized.
  void create(uint64_t BaseAddr, size_t Size, bool WithAllocator);
  /// Unmaps the heap and closes its backing object; never writes to it.
  void destroy();

  /// create(), unless this process already maps the heap at \p BaseAddr
  /// with \p Size bytes: then it is made byte-identical to a fresh heap.
  /// The pages of [0, \p DirtyBytes) go back to the kernel and read zero
  /// again (bytes past it must never have been written), and the allocator
  /// starts over.  A forked child inherits its parent's MAP_SHARED mapping
  /// but never reuses it: it only unmaps it.
  void open(uint64_t BaseAddr, size_t Size, bool WithAllocator,
            size_t DirtyBytes);

  bool isCreated() const { return Base != 0; }
  uint64_t base() const { return Base; }
  size_t size() const { return Bytes; }
  int fd() const { return Fd; }
  bool contains(const void *P) const {
    uint64_t A = reinterpret_cast<uint64_t>(P);
    return A >= Base && A < Base + Bytes;
  }

  /// Allocates \p N bytes (16-byte aligned) from the in-heap allocator.
  /// Returns nullptr only on exhaustion.
  void *allocate(size_t N);

  /// Returns a block to the in-heap free list.
  void deallocate(void *P);

  /// Number of currently-live allocations (used by short-lived lifetime
  /// validation, paper §5.1 "Validating Short-Lived Objects").
  uint64_t liveCount() const;

  /// Highest byte offset ever used by the allocator; checkpoints copy only
  /// [0, highWater).  Raw heaps report their full size.
  size_t highWater() const;

  /// Drops all allocations: bump pointer and free list reset.  Used to
  /// recycle the short-lived arena at iteration boundaries once the live
  /// count reached zero.
  void resetAllocations();

  /// Offset of the first allocatable byte (after the allocator header).
  static size_t dataStartOffset();

  /// Replaces this process's view with a copy-on-write (MAP_PRIVATE)
  /// mapping of the same backing object at the same address.  "the OS traps
  /// updates to the private heap and silently duplicates those pages, thus
  /// isolating each worker's updates" (§3.2).  Reports failure instead of
  /// aborting, so a worker that cannot isolate itself can degrade to
  /// misspeculation (sequential re-execution) rather than kill the whole
  /// program.
  [[nodiscard]] bool tryRemapCopyOnWrite();

  /// Sets the current mapping's protection to \p Prot (PROT_READ or
  /// PROT_NONE); any access it forbids raises SIGSEGV, which the worker
  /// translates into misspeculation.
  void protect(int Prot);

private:
  uint64_t Base = 0;
  size_t Bytes = 0;
  int Fd = -1;
  bool HasAllocator = false;
  pid_t OwnerPid = 0; ///< The process that created the backing object.

  void initHeader();
};

} // namespace privateer

#endif // PRIVATEER_RUNTIME_SHAREDHEAP_H
