//===- runtime/Checkpoint.cpp ---------------------------------------------===//

#include "runtime/Checkpoint.h"

#include "runtime/FaultInjection.h"
#include "runtime/ShadowMetadata.h"
#include "support/ErrorHandling.h"
#include "support/Timing.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <sys/mman.h>

using namespace privateer;

namespace {
constexpr uint64_t kSlotAlign = 64;
constexpr uint64_t kPageBytes = 4096;
static_assert(kDirtyChunkBytes % kPageBytes == 0,
              "a chunk must cover whole pages of a slot plane");
uint64_t alignUp(uint64_t N, uint64_t A = kSlotAlign) {
  return (N + A - 1) & ~(A - 1);
}

using trace::Reason;
constexpr SlotFailure kCorruptHeader{"corrupted checkpoint slot header",
                                     Reason::CorruptSlot};
constexpr SlotFailure kTornSlot{
    "checkpoint slot torn by a worker that died holding its lock",
    Reason::TornSlot};
constexpr SlotFailure kOrphanedLock{
    "checkpoint slot lock orphaned by a dead worker", Reason::OrphanedLock};
constexpr SlotFailure kWorkerLost{"incomplete checkpoint (worker lost)",
                                  Reason::WorkerLost};
constexpr SlotFailure kIoOverflow{"deferred-output buffer overflow",
                                  Reason::IoOverflow};
constexpr SlotFailure kSamePeriodConflict{
    "private byte both read live-in and written within one checkpoint "
    "period (conservative)",
    Reason::SamePeriodConflict};
constexpr SlotFailure kFlowDependence{
    "loop-carried flow dependence: read of a value written in an earlier "
    "checkpoint period",
    Reason::FlowDependence};

/// Calls \p Visit(C) for each chunk C set in the \p Words-word \p Mask,
/// in order, until it returns false.
template <typename Fn>
void forEachChunk(const uint64_t *Mask, uint64_t Words, Fn Visit) {
  for (uint64_t WI = 0; WI < Words; ++WI)
    for (uint64_t M = Mask[WI]; M; M &= M - 1)
      if (!Visit(WI * 64 + static_cast<uint64_t>(__builtin_ctzll(M))))
        return;
}

/// Walks bytes [0, \p Span) of one chunk a word at a time, in the style of
/// applyReadRange: words \p Skip accepts (read from \p Bytes) are counted
/// skipped, and each byte of the others and of a short tail goes to
/// \p Visit, counted scanned, until it returns false.  Heap bases are
/// page-aligned, so every full word inside a chunk is aligned.
template <typename SkipFn, typename ByteFn>
bool walkChunk(const uint8_t *Bytes, uint64_t Span, CheckpointScanStats &Walk,
               SkipFn Skip, ByteFn Visit) {
  uint64_t J = 0;
  for (; J + 8 <= Span; J += 8) {
    uint64_t W;
    __builtin_memcpy(&W, Bytes + J, 8);
    if (Skip(W)) {
      Walk.BytesSkipped += 8;
      continue;
    }
    Walk.BytesScanned += 8;
    for (uint64_t K = J; K < J + 8; ++K)
      if (!Visit(K))
        return false;
  }
  for (; J < Span; ++J) {
    ++Walk.BytesScanned;
    if (!Visit(J))
      return false;
  }
  return true;
}
} // namespace

CheckpointRegion::~CheckpointRegion() { destroy(); }

bool CheckpointRegion::create(const Config &C) {
  assert(!Region && "region already created");
  assert(C.Plan.End > C.Plan.Begin && C.Plan.NumWorkers > 0 &&
         "empty checkpoint region");
  Cfg = C;
  NumChunks = dirtyChunkCount(C.PrivateBytes);
  MaskWords = dirtyMaskWords(NumChunks);

  // Flat slot layout: header, dirty-mask union, metadata plane, value
  // plane, reduction partials, deferred output.  Chunk C sits at
  // C * kDirtyChunkBytes in both planes, which start on a page boundary,
  // so a dirty chunk costs exactly two slot pages.  The region is a fresh
  // zero-filled anonymous mapping each epoch, paged in on first touch, so
  // physical memory tracks the chunks merged even though the virtual
  // reservation covers the whole footprint twice per slot.  Without a
  // footprint there are no planes to align, and slots stay compact.
  uint64_t PlaneAlign = NumChunks ? kPageBytes : kSlotAlign;
  OffMask = alignUp(sizeof(SlotHeader));
  OffMeta = alignUp(OffMask + MaskWords * sizeof(uint64_t), PlaneAlign);
  OffValues = OffMeta + NumChunks * kDirtyChunkBytes;
  OffRedux = OffValues + NumChunks * kDirtyChunkBytes;
  OffIo = OffRedux + alignUp(C.ReduxBytes);
  SlotStride = alignUp(OffIo + C.IoCapacity, PlaneAlign);
  RegionBytes = alignUp(SlotStride * C.Plan.numSlots(), kPageBytes);
  void *P = mmap(nullptr, RegionBytes, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    return false;
  Region = static_cast<uint8_t *>(P);
  for (uint64_t S = 0, E = C.Plan.numSlots(); S < E; ++S) {
    SlotHeader *H = slot(S);
    new (H) SlotHeader();
    H->BaseIter = C.Plan.periodBegin(S);
    H->NumIters = C.Plan.periodEnd(S) - H->BaseIter;
  }
  return true;
}

void CheckpointRegion::destroy() {
  if (!Region)
    return;
  munmap(Region, RegionBytes);
  Region = nullptr;
}

SlotHeader *CheckpointRegion::slot(uint64_t P) const {
  assert(P < Cfg.Plan.numSlots() && "slot index out of range");
  return reinterpret_cast<SlotHeader *>(Region + P * SlotStride);
}

uint64_t *CheckpointRegion::slotDirtyMask(uint64_t P) const {
  return reinterpret_cast<uint64_t *>(Region + P * SlotStride + OffMask);
}

uint8_t *CheckpointRegion::slotMeta(uint64_t P) const {
  return Region + P * SlotStride + OffMeta;
}

uint8_t *CheckpointRegion::slotValues(uint64_t P) const {
  return Region + P * SlotStride + OffValues;
}

uint8_t *CheckpointRegion::slotRedux(uint64_t P) const {
  return Region + P * SlotStride + OffRedux;
}

uint8_t *CheckpointRegion::slotIo(uint64_t P) const {
  return Region + P * SlotStride + OffIo;
}

uint64_t CheckpointRegion::chunkSpan(uint64_t C) const {
  uint64_t Base = C << kDirtyChunkShift;
  return std::min(kDirtyChunkBytes, Cfg.PrivateBytes - Base);
}

bool CheckpointRegion::slotHeaderSane(uint64_t P, bool Quiescent) const {
  const SlotHeader *H = slot(P);
  if (H->BaseIter != Cfg.Plan.periodBegin(P) ||
      H->NumIters != Cfg.Plan.periodEnd(P) - H->BaseIter)
    return false;
  uint32_t Merged = H->WorkersMerged.load(std::memory_order_acquire);
  return !Quiescent ||
         (H->IoBytes <= Cfg.IoCapacity && Merged <= Cfg.Plan.NumWorkers &&
          H->ExecutedMerges <= Merged);
}

void CheckpointRegion::workerMerge(uint64_t P, uint8_t *LocalShadow,
                                   const uint8_t *LocalPrivate,
                                   uint64_t *DirtyMask,
                                   const ReductionRegistry &Redux,
                                   std::vector<IoRecord> &PendingIo,
                                   bool Executed, const MergeContext &Ctx) {
  SlotHeader *H = slot(P);
  bool Broke = H->Lock.lockOrBreak(Ctx.SelfPid, [&Ctx] {
    if (Ctx.Heartbeat)
      Ctx.Heartbeat->store(monotonicNanos(), std::memory_order_relaxed);
  });
  if (Broke) {
    // The previous holder died mid-merge; its partial update may be torn.
    // Poison the slot so the committer recovers this period sequentially,
    // but keep merging so WorkersMerged stays meaningful for siblings.
    H->Poisoned.store(1, std::memory_order_relaxed);
    if (Ctx.LocksBroken)
      Ctx.LocksBroken->fetch_add(1, std::memory_order_relaxed);
  }
  if (Ctx.Injector)
    Ctx.Injector->onSlotLocked(Ctx.WorkerId, P); // May die holding Lock.

  if (Executed) {
    // Fold this worker's per-byte facts into the slot alphabet, visiting
    // only the chunks this worker's dirty mask names, and age each folded
    // byte in the worker's shadow: the §5.1 checkpoint reset.  Codes >= 2
    // carry period-local information, and such codes only arise from
    // Table 2 transitions applied by instrumented accesses — which also
    // set the dirty bit for the chunk — so skipping clean chunks loses
    // nothing, and the words the fold skips (every byte < 2) are exactly
    // those the reset leaves unchanged.
    uint8_t *MetaPlane = slotMeta(P);
    uint8_t *ValuePlane = slotValues(P);
    CheckpointScanStats Walk;
    forEachChunk(DirtyMask, MaskWords, [&](uint64_t C) {
      ++Walk.DirtyChunks;
      uint64_t Base = C << kDirtyChunkShift;
      uint8_t *Meta = MetaPlane + Base;
      uint8_t *Values = ValuePlane + Base;
      uint8_t *Shadow = LocalShadow + Base;
      const uint8_t *Priv = LocalPrivate + Base;
      auto foldByte = [&](uint64_t I) {
        uint8_t Local = Shadow[I];
        if (Local < shadow::kReadLiveIn)
          return true;
        Shadow[I] = shadow::resetAtCheckpoint(Local);
        uint8_t &SlotCode = Meta[I];
        if (Local == shadow::kReadLiveIn) {
          if (SlotCode == 0 || SlotCode == shadow::kReadLiveIn)
            SlotCode = shadow::kReadLiveIn;
          else
            SlotCode = kSlotConflict; // Read-live-in meets another's write.
        } else if (SlotCode == 0) { // A write into an untouched byte.
          SlotCode = Local;
          Values[I] = Priv[I];
        } else if (SlotCode == shadow::kReadLiveIn ||
                   SlotCode == kSlotConflict) {
          SlotCode = kSlotConflict;
        } else if (Local >= SlotCode) {
          // Output dependence between workers: the later iteration's
          // value survives, exactly as in the sequential program.
          SlotCode = Local;
          Values[I] = Priv[I];
        }
        return true;
      };
      return walkChunk(
          Shadow, chunkSpan(C), Walk,
          [](uint64_t W) { return wordAllBelowReadLiveIn(W); }, foldByte);
    });
    uint64_t *SlotMask = slotDirtyMask(P);
    for (uint64_t WI = 0; WI < MaskWords; ++WI) {
      SlotMask[WI] |= DirtyMask[WI];
      DirtyMask[WI] = 0;
    }
    if (Ctx.Scan)
      *Ctx.Scan += Walk;

    // Reduction partials: the first contributor copies, later ones
    // combine.  The worker's copies then restart the next period from the
    // identity.
    if (Cfg.ReduxBytes > 0) {
      Redux.mergeInto(slotRedux(P), H->ExecutedMerges == 0);
      Redux.fillIdentity();
    }

    // Deferred output.  On overflow the records must stay with the worker:
    // the misspec recovery re-executes the period sequentially and emits
    // its output directly, but dropping them here would lose the text if
    // any later path replayed from the worker's buffer.
    if (!PendingIo.empty()) {
      if (serializeIoRecords(PendingIo, slotIo(P), Cfg.IoCapacity,
                             H->IoBytes))
        PendingIo.clear();
      else
        H->IoOverflow = 1;
    }
    ++H->ExecutedMerges;
  }

  // Publication point for the in-epoch commit pump: release-increment as
  // the final store of the merge so a pump that acquires the count equal to
  // NumWorkers also sees every contributor's folded chunks, redux partial,
  // and serialized output (earlier mergers' data reaches this merger via
  // the lock's release/acquire pair, and travels onward transitively).
  H->WorkersMerged.fetch_add(1, std::memory_order_release);
  H->Lock.unlock();
}

SlotFailure CheckpointRegion::commitSlot(
    uint64_t P, uint8_t *MasterShadow, uint8_t *MasterPrivate,
    const ReductionRegistry &Redux, std::vector<IoRecord> &OutIo,
    CheckpointScanStats *Scan) const {
  const SlotHeader *H = slot(P);
  const uint64_t *SlotMask = slotDirtyMask(P);
  const uint8_t *MetaPlane = slotMeta(P);
  const uint8_t *ValuePlane = slotValues(P);
  CheckpointScanStats Walk;
  SlotFailure Bad;

  // Pass 1: detect phase-2 privacy violations before mutating master state
  // so a misspeculating slot leaves the committed image untouched: a
  // same-period read-live-in and write, or a live-in read of a byte an
  // earlier period wrote.  Only read-live-in (2) and conflict (255) bytes
  // matter here; words carrying neither are skipped.
  forEachChunk(SlotMask, MaskWords, [&](uint64_t C) {
    ++Walk.DirtyChunks;
    uint64_t Base = C << kDirtyChunkShift;
    const uint8_t *Meta = MetaPlane + Base;
    return walkChunk(
        Meta, chunkSpan(C), Walk,
        [](uint64_t W) {
          return !wordHasByte(W, shadow::kReadLiveIn) &&
                 !wordHasByte(W, kSlotConflict);
        },
        [&](uint64_t K) {
          if (Meta[K] == kSlotConflict)
            Bad = kSamePeriodConflict;
          else if (Meta[K] == shadow::kReadLiveIn &&
                   MasterShadow[Base + K] == shadow::kOldWrite)
            Bad = kFlowDependence;
          return !Bad;
        });
  });

  // Pass 2: apply writes (pass 1 guarantees no conflict codes remain).
  // All-zero meta words (chunks dirtied by reads that resolved to
  // live-in, or by writes folded into a different byte range) skip.
  if (!Bad)
    forEachChunk(SlotMask, MaskWords, [&](uint64_t C) {
      uint64_t Base = C << kDirtyChunkShift;
      const uint8_t *Meta = MetaPlane + Base;
      const uint8_t *Values = ValuePlane + Base;
      return walkChunk(
          Meta, chunkSpan(C), Walk, [](uint64_t W) { return W == 0; },
          [&](uint64_t K) {
            if (shadow::isTimestamp(Meta[K]) && Meta[K] != kSlotConflict) {
              MasterPrivate[Base + K] = Values[K];
              MasterShadow[Base + K] = shadow::kOldWrite;
            }
            return true;
          });
    });
  if (Scan)
    *Scan += Walk;
  if (Bad)
    return Bad;

  // Combine the reduction partials into the committed
  // objects.  A slot nobody executed iterations for holds no partial.  The
  // operators are associative and commutative (integers wrap), so the
  // order the workers merged in does not matter.
  if (Cfg.ReduxBytes > 0 && H->ExecutedMerges > 0)
    Redux.commitFrom(slotRedux(P));

  deserializeIoRecords(slotIo(P), H->IoBytes, OutIo);
  return {};
}

CommitFrontier::Verdict CommitFrontier::verdict(bool WorkersGone) {
  if (!pending())
    return Verdict::Wait;
  uint64_t P = Next;
  // A worker doomed P; its reason is readable once it has exited.
  if (Cb->periodDoomed(P)) {
    if (!WorkersGone)
      return Verdict::Wait;
    failFromFlag(Plan.periodEnd(
        Cb->EarliestMisspecPeriod.load(std::memory_order_relaxed)));
    return Verdict::Fail;
  }
  SlotHeader *H = Region->slot(P);
  if (!Region->slotHeaderSane(P, /*Quiescent=*/false))
    return fail(P, kCorruptHeader);
  if (H->Poisoned.load(std::memory_order_relaxed))
    return fail(P, kTornSlot);
  // All W merges published make the slot quiescent (a held lock only means
  // the last merger has not dropped it yet).  Short of W it waits while
  // any worker lives; once all are reaped, a held lock is orphaned and a
  // missing merge is a lost worker.
  bool Merged =
      H->WorkersMerged.load(std::memory_order_acquire) == Plan.NumWorkers;
  if (!Merged && !WorkersGone)
    return Verdict::Wait;
  if (!Merged && H->Lock.holder() != 0) {
    H->Lock.unlock(); // Its holder is dead: break it.
    return fail(P, kOrphanedLock);
  }
  if (!Region->slotHeaderSane(P))
    return fail(P, kCorruptHeader);
  if (!Merged)
    return fail(P, kWorkerLost);
  if (H->IoOverflow)
    return fail(P, kIoOverflow);
  return Verdict::Commit;
}

bool CommitFrontier::committed(const SlotFailure &Walk) {
  if (Walk) {
    fail(Next, Walk);
    return false;
  }
  ++Next;
  return true;
}

bool CommitFrontier::finish() {
  bool Raised = !failed() && Cb->MisspecFlag.load(std::memory_order_acquire);
  if (Raised)
    failFromFlag(Plan.End);
  else if (!Region)
    Next = Plan.numSlots();
  return Raised;
}

CommitFrontier::Verdict CommitFrontier::fail(uint64_t P,
                                             const SlotFailure &Why) {
  F = {Why.Why, Why.Code, P, Plan.periodEnd(P)};
  return Verdict::Fail;
}

void CommitFrontier::failFromFlag(uint64_t End) {
  F = {Cb->MisspecReason, trace::reasonCode(Cb->MisspecReason),
       Cb->EarliestMisspecPeriod.load(std::memory_order_relaxed), End};
}
