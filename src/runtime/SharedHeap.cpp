//===- runtime/SharedHeap.cpp ---------------------------------------------===//

#include "runtime/SharedHeap.h"

#include "support/ErrorHandling.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <string>

#include <sys/mman.h>
#include <unistd.h>

using namespace privateer;

namespace {

/// Allocator bookkeeping stored at the base of every allocator-managed heap.
/// Because it lives in heap pages it is privatized by copy-on-write exactly
/// like the data it manages.
struct HeapHeader {
  uint64_t Magic;
  uint64_t Bump;      ///< Offset of the next fresh byte.
  uint64_t Live;      ///< Currently live allocations.
  uint64_t FreeHead;  ///< Offset of first free block, 0 if none.
  uint64_t HighWater; ///< Max Bump ever reached.
  uint64_t Pad[3];
};

/// Prefix of every allocated block.
struct BlockHeader {
  uint64_t Size;     ///< Payload bytes (16-byte aligned).
  uint64_t NextFree; ///< Offset of next free block while on the free list.
};

constexpr uint64_t kHeapMagic = 0x50524956415445ULL; // "PRIVATE"
constexpr size_t kAlign = 16;

size_t alignUp(size_t N) { return (N + kAlign - 1) & ~(kAlign - 1); }

} // namespace

SharedHeap::~SharedHeap() { destroy(); }

size_t SharedHeap::dataStartOffset() { return alignUp(sizeof(HeapHeader)); }

void SharedHeap::create(uint64_t BaseAddr, size_t Size, bool WithAllocator) {
  assert(!isCreated() && "heap already created");
  assert(Size % 4096 == 0 && "heap size must be page aligned");
  Fd = memfd_create("privateer-heap", 0);
  if (Fd < 0)
    reportFatalError(std::string("memfd_create: ") + std::strerror(errno));
  if (ftruncate(Fd, static_cast<off_t>(Size)) != 0)
    reportFatalError(std::string("ftruncate: ") + std::strerror(errno));
  void *Got =
      mmap(reinterpret_cast<void *>(BaseAddr), Size, PROT_READ | PROT_WRITE,
           MAP_SHARED | MAP_FIXED_NOREPLACE, Fd, 0);
  if (Got != reinterpret_cast<void *>(BaseAddr))
    reportFatalError(std::string("mmap heap at fixed address: ") +
                     std::strerror(errno));
  Base = BaseAddr;
  Bytes = Size;
  HasAllocator = WithAllocator;
  OwnerPid = getpid();
  initHeader();
}

void SharedHeap::initHeader() {
  if (!HasAllocator)
    return;
  auto *H = reinterpret_cast<HeapHeader *>(Base);
  H->Magic = kHeapMagic;
  H->Bump = dataStartOffset();
  H->Live = 0;
  H->FreeHead = 0;
  H->HighWater = H->Bump;
}

void SharedHeap::open(uint64_t BaseAddr, size_t Size, bool WithAllocator,
                      size_t DirtyBytes) {
  if (!isCreated() || Base != BaseAddr || Bytes != Size ||
      OwnerPid != getpid()) {
    destroy();
    create(BaseAddr, Size, WithAllocator);
    return;
  }
  // Punching frees the pages where a memset would keep zeros resident; the
  // next touch faults in a fresh zero page, exactly as in a new mapping.
  // A kernel without shmem hole punching gets the memset.
  size_t Len = std::min(Bytes, (DirtyBytes + 4095) & ~size_t(4095));
  if (madvise(reinterpret_cast<void *>(Base), Len, MADV_REMOVE) != 0)
    std::memset(reinterpret_cast<void *>(Base), 0, Len);
  initHeader();
}

void SharedHeap::destroy() {
  if (!isCreated())
    return;
  munmap(reinterpret_cast<void *>(Base), Bytes);
  close(Fd);
  Base = 0;
  Bytes = 0;
  Fd = -1;
}

void *SharedHeap::allocate(size_t N) {
  assert(HasAllocator && "allocation from a raw heap");
  auto *H = reinterpret_cast<HeapHeader *>(Base);
  assert(H->Magic == kHeapMagic && "corrupted heap header");
  size_t Need = alignUp(N == 0 ? 1 : N);

  // First-fit search of the free list.
  uint64_t PrevOff = 0;
  for (uint64_t Off = H->FreeHead; Off != 0;) {
    auto *B = reinterpret_cast<BlockHeader *>(Base + Off);
    if (B->Size >= Need) {
      if (PrevOff == 0)
        H->FreeHead = B->NextFree;
      else
        reinterpret_cast<BlockHeader *>(Base + PrevOff)->NextFree =
            B->NextFree;
      B->NextFree = 0;
      ++H->Live;
      return reinterpret_cast<void *>(Base + Off + sizeof(BlockHeader));
    }
    PrevOff = Off;
    Off = B->NextFree;
  }

  // Carve a fresh block.
  uint64_t Off = H->Bump;
  uint64_t NewBump = Off + sizeof(BlockHeader) + Need;
  if (NewBump > Bytes)
    return nullptr;
  auto *B = reinterpret_cast<BlockHeader *>(Base + Off);
  B->Size = Need;
  B->NextFree = 0;
  H->Bump = NewBump;
  if (NewBump > H->HighWater)
    H->HighWater = NewBump;
  ++H->Live;
  return reinterpret_cast<void *>(Base + Off + sizeof(BlockHeader));
}

void SharedHeap::deallocate(void *P) {
  assert(HasAllocator && "deallocation into a raw heap");
  assert(contains(P) && "pointer not from this heap");
  auto *H = reinterpret_cast<HeapHeader *>(Base);
  auto *B = reinterpret_cast<BlockHeader *>(reinterpret_cast<uint64_t>(P) -
                                            sizeof(BlockHeader));
  uint64_t Off = reinterpret_cast<uint64_t>(B) - Base;
  B->NextFree = H->FreeHead;
  H->FreeHead = Off;
  assert(H->Live > 0 && "double free");
  --H->Live;
}

uint64_t SharedHeap::liveCount() const {
  if (!HasAllocator)
    return 0;
  return reinterpret_cast<const HeapHeader *>(Base)->Live;
}

size_t SharedHeap::highWater() const {
  if (!HasAllocator)
    return Bytes;
  return reinterpret_cast<const HeapHeader *>(Base)->HighWater;
}

void SharedHeap::resetAllocations() {
  assert(HasAllocator && "resetting a raw heap");
  auto *H = reinterpret_cast<HeapHeader *>(Base);
  H->Bump = dataStartOffset();
  H->Live = 0;
  H->FreeHead = 0;
}

bool SharedHeap::tryRemapCopyOnWrite() {
  assert(isCreated() && "heap not created");
  void *Got = mmap(reinterpret_cast<void *>(Base), Bytes,
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_FIXED, Fd, 0);
  return Got == reinterpret_cast<void *>(Base);
}

void SharedHeap::protect(int Prot) {
  assert(isCreated() && "heap not created");
  if (mprotect(reinterpret_cast<void *>(Base), Bytes, Prot) != 0)
    reportFatalError(std::string("mprotect: ") + std::strerror(errno));
}
