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
uint64_t alignUp(uint64_t N) { return (N + kSlotAlign - 1) & ~(kSlotAlign - 1); }

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
constexpr SlotFailure kChunkOverflow{
    "checkpoint slot chunk capacity exhausted", Reason::ChunkOverflow};
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
} // namespace

CheckpointRegion::~CheckpointRegion() { destroy(); }

bool CheckpointRegion::create(const Config &C) {
  assert(!Region && "region already created");
  assert(C.Plan.End > C.Plan.Begin && C.Plan.NumWorkers > 0 &&
         "empty checkpoint region");
  Cfg = C;
  NumChunks = dirtyChunkCount(C.PrivateBytes);
  MaskWords = dirtyMaskWords(NumChunks);

  // Sparse slot layout: header, dirty-mask union, chunk directory (one
  // uint32 per footprint chunk, 0 = unallocated else entry index + 1),
  // packed (meta, values) chunk entries, reduction partials, deferred
  // output.
  // The region is a fresh zero-filled anonymous mapping each epoch, and
  // entries are materialized only when a chunk is first dirtied, so
  // physical memory tracks bytes touched even though the virtual
  // reservation covers the capacity.
  OffMask = alignUp(sizeof(SlotHeader));
  OffDir = OffMask + alignUp(MaskWords * sizeof(uint64_t));
  OffEntries = OffDir + alignUp(NumChunks * sizeof(uint32_t));
  OffRedux = OffEntries + NumChunks * (2 * kDirtyChunkBytes);
  OffIo = OffRedux + alignUp(C.ReduxBytes);
  SlotStride = OffIo + alignUp(C.IoCapacity);
  RegionBytes = (SlotStride * C.Plan.numSlots() + 4095) & ~uint64_t(4095);
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

uint32_t *CheckpointRegion::slotChunkDir(uint64_t P) const {
  return reinterpret_cast<uint32_t *>(Region + P * SlotStride + OffDir);
}

uint8_t *CheckpointRegion::slotEntries(uint64_t P) const {
  return Region + P * SlotStride + OffEntries;
}

uint8_t *CheckpointRegion::entryMeta(uint64_t P, uint32_t Entry) const {
  return slotEntries(P) + uint64_t(Entry) * (2 * kDirtyChunkBytes);
}

uint8_t *CheckpointRegion::entryValues(uint64_t P, uint32_t Entry) const {
  return entryMeta(P, Entry) + kDirtyChunkBytes;
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
         (H->IoBytes <= Cfg.IoCapacity && Merged <= Cfg.Plan.NumWorkers && H->ExecutedMerges <= Merged &&
          H->ChunksUsed <= NumChunks);
}

void CheckpointRegion::workerMerge(uint64_t P, const uint8_t *LocalShadow,
                                   const uint8_t *LocalPrivate,
                                   const uint64_t *DirtyMask,
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
    // only the chunks this worker's dirty mask names.  Codes >= 2 carry
    // period-local information, and such codes only arise from Table 2
    // transitions applied by instrumented accesses — which also set the
    // dirty bit for the chunk — so skipping clean chunks loses nothing.
    uint64_t *SlotMask = slotDirtyMask(P);
    uint32_t *Dir = slotChunkDir(P);
    uint64_t FoldedChunks = 0, Scanned = 0, Skipped = 0;
    for (uint64_t WI = 0; WI < MaskWords; ++WI) {
      uint64_t M = DirtyMask ? DirtyMask[WI] : 0;
      if (!M)
        continue;
      SlotMask[WI] |= M;
      do {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(M));
        M &= M - 1;
        uint64_t C = WI * 64 + Bit;
        uint32_t E = Dir[C];
        if (E == 0) {
          if (H->ChunksUsed >= NumChunks) {
            // No free entry: only a scribbled ChunksUsed gets here.  Mark
            // the slot incomplete; the committer treats that as
            // misspeculation and re-executes the period sequentially.
            H->ChunkOverflow = 1;
            continue;
          }
          E = ++H->ChunksUsed;
          Dir[C] = E; // Entry index + 1; fresh mapping is already zero.
        }
        ++FoldedChunks;
        uint8_t *Meta = entryMeta(P, E - 1);
        uint8_t *Values = entryValues(P, E - 1);
        uint64_t Base = C << kDirtyChunkShift;
        uint64_t Span = chunkSpan(C);
        const uint8_t *Shadow = LocalShadow + Base;
        const uint8_t *Priv = LocalPrivate + Base;
        uint64_t J = 0;
        auto foldByte = [&](uint64_t I) {
          uint8_t Local = Shadow[I];
          if (Local < shadow::kReadLiveIn)
            return;
          uint8_t &SlotCode = Meta[I];
          if (Local == shadow::kReadLiveIn) {
            if (SlotCode == 0 || SlotCode == shadow::kReadLiveIn)
              SlotCode = shadow::kReadLiveIn;
            else
              SlotCode = kSlotConflict; // Read-live-in meets another's write.
          } else {
            // Local is a write timestamp.
            if (SlotCode == 0) {
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
          }
        };
        // Word-at-a-time skip in the style of applyReadRange: heap bases
        // are page-aligned, so every full word inside a chunk is aligned.
        for (; J + 8 <= Span; J += 8) {
          uint64_t W;
          __builtin_memcpy(&W, Shadow + J, 8);
          if (wordAllBelowReadLiveIn(W)) {
            Skipped += 8;
            continue;
          }
          Scanned += 8;
          for (uint64_t K = J; K < J + 8; ++K)
            foldByte(K);
        }
        for (; J < Span; ++J) {
          ++Scanned;
          foldByte(J);
        }
      } while (M);
    }
    if (Ctx.Scan) {
      Ctx.Scan->DirtyChunks += FoldedChunks;
      Ctx.Scan->BytesScanned += Scanned;
      Ctx.Scan->BytesSkipped += Skipped;
    }

    // Reduction partials: the first contributor copies,
    // later ones combine.
    if (Cfg.ReduxBytes > 0)
      Redux.mergeInto(slotRedux(P), H->ExecutedMerges == 0);

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
  const uint32_t *Dir = slotChunkDir(P);
  uint64_t WalkedChunks = 0, Scanned = 0, Skipped = 0;
  auto account = [&] {
    if (Scan) {
      Scan->DirtyChunks += WalkedChunks;
      Scan->BytesScanned += Scanned;
      Scan->BytesSkipped += Skipped;
    }
  };
  // The phase-2 verdict on one slot byte: a same-period read-live-in and
  // write, or a live-in read of a byte an earlier period wrote.
  auto violation = [&](uint8_t Code, uint64_t Off) -> SlotFailure {
    if (Code == kSlotConflict)
      return kSamePeriodConflict;
    if (Code == shadow::kReadLiveIn && MasterShadow[Off] == shadow::kOldWrite)
      return kFlowDependence;
    return {};
  };

  // Pass 1: detect phase-2 privacy violations before mutating master state
  // so a misspeculating slot leaves the committed image untouched.  Only
  // read-live-in (2) and conflict (255) bytes matter here; words carrying
  // neither are skipped.
  for (uint64_t WI = 0; WI < MaskWords; ++WI) {
    uint64_t M = SlotMask[WI];
    if (!M)
      continue;
    do {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(M));
      M &= M - 1;
      uint64_t C = WI * 64 + Bit;
      uint32_t E = Dir[C];
      if (E == 0)
        continue; // Mask bit without an entry: nothing was folded.
      ++WalkedChunks;
      const uint8_t *Meta = entryMeta(P, E - 1);
      uint64_t Base = C << kDirtyChunkShift;
      uint64_t Span = chunkSpan(C);
      uint64_t J = 0;
      for (; J + 8 <= Span; J += 8) {
        uint64_t W;
        __builtin_memcpy(&W, Meta + J, 8);
        if (!wordHasByte(W, shadow::kReadLiveIn) &&
            !wordHasByte(W, kSlotConflict)) {
          Skipped += 8;
          continue;
        }
        Scanned += 8;
        for (uint64_t K = J; K < J + 8; ++K)
          if (SlotFailure Bad = violation(Meta[K], Base + K)) {
            account();
            return Bad;
          }
      }
      for (; J < Span; ++J) {
        ++Scanned;
        if (SlotFailure Bad = violation(Meta[J], Base + J)) {
          account();
          return Bad;
        }
      }
    } while (M);
  }

  // Pass 2: apply writes (pass 1 guarantees no conflict codes remain).
  // All-zero meta words (chunks dirtied by reads that resolved to
  // live-in, or by writes folded into a different byte range) skip.
  for (uint64_t WI = 0; WI < MaskWords; ++WI) {
    uint64_t M = SlotMask[WI];
    if (!M)
      continue;
    do {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(M));
      M &= M - 1;
      uint64_t C = WI * 64 + Bit;
      uint32_t E = Dir[C];
      if (E == 0)
        continue;
      const uint8_t *Meta = entryMeta(P, E - 1);
      const uint8_t *Values = entryValues(P, E - 1);
      uint64_t Base = C << kDirtyChunkShift;
      uint64_t Span = chunkSpan(C);
      uint64_t J = 0;
      for (; J + 8 <= Span; J += 8) {
        uint64_t W;
        __builtin_memcpy(&W, Meta + J, 8);
        if (W == 0) {
          Skipped += 8;
          continue;
        }
        Scanned += 8;
        for (uint64_t K = J; K < J + 8; ++K) {
          if (shadow::isTimestamp(Meta[K]) && Meta[K] != kSlotConflict) {
            MasterPrivate[Base + K] = Values[K];
            MasterShadow[Base + K] = shadow::kOldWrite;
          }
        }
      }
      for (; J < Span; ++J) {
        ++Scanned;
        if (shadow::isTimestamp(Meta[J]) && Meta[J] != kSlotConflict) {
          MasterPrivate[Base + J] = Values[J];
          MasterShadow[Base + J] = shadow::kOldWrite;
        }
      }
    } while (M);
  }

  account();

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
  if (H->ChunkOverflow)
    return fail(P, kChunkOverflow);
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
