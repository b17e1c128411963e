//===- interp/MemoryManager.cpp -------------------------------------------===//

#include "interp/MemoryManager.h"

#include "runtime/Runtime.h"
#include "support/ErrorHandling.h"

#include <cstdlib>
#include <cstring>

using namespace privateer;
using namespace privateer::interp;

namespace {
constexpr uint64_t kLiveMagic = 0x507249764c697645ull; // "PrIvLivE"
constexpr uint64_t kDeadMagic = 0x5072497644454144ull; // "PrIvDEAD"
} // namespace

detail::BlockList::~BlockList() {
  for (BlockHeader *H = Head; H;) {
    BlockHeader *N = H->Next;
    std::free(H);
    H = N;
  }
}

void *detail::BlockList::allocate(uint64_t Bytes) {
  uint64_t UserBytes = Bytes ? Bytes : 1;
  auto *H =
      static_cast<BlockHeader *>(std::malloc(sizeof(BlockHeader) + UserBytes));
  if (!H)
    reportFatalError("interpreter out of memory");
  H->Prev = nullptr;
  H->Next = Head;
  H->Magic = kLiveMagic;
  if (Head)
    Head->Prev = H;
  Head = H;
  void *P = H + 1;
  std::memset(P, 0, UserBytes);
  return P;
}

bool detail::BlockList::deallocate(void *P) {
  auto *H = static_cast<BlockHeader *>(P) - 1;
  if (H->Magic != kLiveMagic)
    return false;
  H->Magic = kDeadMagic;
  if (H->Prev)
    H->Prev->Next = H->Next;
  else
    Head = H->Next;
  if (H->Next)
    H->Next->Prev = H->Prev;
  std::free(H);
  return true;
}

PlainMemoryManager::~PlainMemoryManager() = default;

void *PlainMemoryManager::allocateTagged(uint64_t Bytes, bool, HeapKind,
                                         bool) {
  return Live.allocate(Bytes);
}

void PlainMemoryManager::deallocate(void *P) {
  if (!P)
    return;
  if (!Live.deallocate(P))
    reportFatalError("interpreted program freed an unknown pointer");
}

PrivateerMemoryManager::~PrivateerMemoryManager() = default;

void *PrivateerMemoryManager::allocateTagged(uint64_t Bytes, bool HasHeap,
                                             HeapKind K, bool Zero) {
  if (HasHeap) {
    void *P = Runtime::get().heapAlloc(Bytes, K);
    if (Zero)
      std::memset(P, 0, Bytes);
    return P;
  }
  return LivePlain.allocate(Bytes);
}

void PrivateerMemoryManager::registerReduction(void *P, uint64_t Bytes,
                                               ReduxElem Elem, ReduxOp Op) {
  Runtime::get().registerReduction(P, Bytes, Elem, Op);
}

void PrivateerMemoryManager::deallocate(void *P) {
  if (!P)
    return;
  uint64_t Tag = addressTag(reinterpret_cast<uint64_t>(P));
  for (unsigned I = 0; I < kNumHeapKinds; ++I) {
    HeapKind K = static_cast<HeapKind>(I);
    if (Tag == heapTag(K)) {
      Runtime::get().heapDealloc(P, K);
      return;
    }
  }
  if (!LivePlain.deallocate(P))
    reportFatalError("privatized program freed an unknown pointer");
}
