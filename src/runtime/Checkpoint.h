//===- runtime/Checkpoint.h - Checkpoint objects ----------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checkpoint system of paper §5.2.  A parallel epoch owns an array of
/// checkpoint *slots*, one per checkpoint period of `k` iterations, living
/// in shared memory created before fork.  "Workers acquire a lock on a
/// single checkpoint object, not the whole checkpoint system, to avoid
/// barrier penalties": each worker merges its speculative state (private
/// values, shadow metadata, reduction partials, deferred output) into the
/// slot for a period as soon as it finishes its share of that period's
/// iterations, then keeps running.
///
/// Privacy validation is two-phase (§5.1).  Phase 1 is the inline Table 2
/// test in each worker.  Phase 2 happens here: worker merges record
/// cross-worker read/write facts per byte, and the main process commits
/// slots **in iteration order**, checking every read-live-in byte against
/// the master shadow (was this byte written by any earlier committed
/// period?) and flagging same-period read+write combinations as the
/// paper's conservative misspeculation.
///
/// Slot metadata alphabet (per private byte):
///   0          untouched this period
///   2          read as live-in by >=1 worker
///   ts >= 3    written; highest iteration timestamp wins, value plane
///              holds that worker's byte
///   255        read-live-in and written in the same period -> conservative
///              misspeculation at commit (mirrors Table 2's write-to-2 rule)
///
/// Slots are *sparse*: instead of two dense PrivateBytes planes, a slot
/// holds a dirty-chunk bitmap (union of every contributor's per-period
/// dirty mask), a chunk directory, and an array of packed (meta, values)
/// chunk entries allocated on first touch.  Workers fold only the chunks
/// their dirty mask names, and the ordered commit walks only the union
/// mask, so merge + commit cost is O(bytes touched in the period), not
/// O(private footprint).  The masks live in the shared region alongside
/// the headers so the committer and the fault path (poisoned and torn
/// slots) can reason about a dead worker's partial merge.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_RUNTIME_CHECKPOINT_H
#define PRIVATEER_RUNTIME_CHECKPOINT_H

#include "runtime/CommutativeLog.h"
#include "runtime/ControlBlock.h"
#include "runtime/DeferredIO.h"
#include "runtime/DirtyChunks.h"
#include "runtime/Reduction.h"

#include <string>
#include <vector>

namespace privateer {

class FaultInjector;

inline constexpr uint8_t kSlotConflict = 255;

/// Header of one checkpoint slot (in shared memory).
struct SlotHeader {
  /// Owner-tagged so the committer and sibling workers can detect a lock
  /// orphaned by a dead worker and break it instead of deadlocking.
  OwnerLock Lock;
  /// Set when a worker broke this slot's lock away from a dead holder: the
  /// merge data may be torn mid-update, so the committer must treat the
  /// slot as incomplete.
  std::atomic<uint32_t> Poisoned{0};
  /// Count of workers that merged this slot.  This is the publication point
  /// for eager commit: each merger increments it with release order as the
  /// last store of its merge (still under the slot lock), and the main
  /// process's commit pump polls it with acquire order — observing the
  /// value reach NumWorkers therefore makes every contributor's merge data
  /// visible, so the slot can be committed while the epoch is still
  /// running.
  std::atomic<uint32_t> WorkersMerged{0};
  /// Mergers that actually executed iterations; the first of these
  /// initializes the slot's reduction partial.
  uint32_t ExecutedMerges = 0;
  /// Chunk entries allocated so far (bounded by the slot's capacity).
  uint32_t ChunksUsed = 0;
  /// A merge needed more chunk entries than the slot carries; the slot is
  /// incomplete and must be recovered, never committed.
  uint32_t ChunkOverflow = 0;
  uint64_t BaseIter = 0;
  uint64_t NumIters = 0;
  uint64_t IoBytes = 0;
  uint32_t IoOverflow = 0;
  /// Serialized commutative-update records appended by mergers, applied in
  /// one fold by the committer.  Overflow marks the slot unrepresentable,
  /// exactly like ChunkOverflow.
  uint64_t ComBytes = 0;
  uint32_t ComOverflow = 0;
};

/// Byte-walk accounting for one merge or commit: how many dirty chunks
/// were folded/walked, and within them how many bytes took the per-byte
/// path vs the word-skip fast path.  Feeds the `checkpoint.*` statistics
/// and the perfmodel's dirty-byte checkpoint cost term.
struct CheckpointScanStats {
  uint64_t DirtyChunks = 0;
  uint64_t BytesScanned = 0;
  uint64_t BytesSkipped = 0;
  /// Commutative-update records serialized (merge) or folded (commit).
  uint64_t ComRecords = 0;
};

/// Identity and plumbing a worker carries into workerMerge so the slot lock
/// can be owner-tagged, the watchdog keeps seeing heartbeats while the
/// worker waits, and fault injection can fire inside the critical section.
struct MergeContext {
  uint32_t SelfPid = 0;
  unsigned WorkerId = 0;
  std::atomic<uint64_t> *Heartbeat = nullptr;
  std::atomic<uint64_t> *LocksBroken = nullptr;
  FaultInjector *Injector = nullptr;
  /// Accumulates merge scan accounting when non-null.
  CheckpointScanStats *Scan = nullptr;
};

class CheckpointRegion {
public:
  struct Config {
    uint64_t NumSlots = 0;
    uint64_t PrivateBytes = 0; ///< Bytes of private heap covered (high water).
    uint64_t ReduxBytes = 0;   ///< Bytes of redux heap covered.
    uint64_t IoCapacity = 0;   ///< Per-slot deferred-output capacity.
    /// Per-slot commutative-log capacity in bytes (a multiple of
    /// kComRecordBytes); 0 when the invocation uses no commutative heap.
    uint64_t ComCapacity = 0;
    uint64_t BaseIter = 0;     ///< First iteration of the epoch.
    uint64_t Period = 0;       ///< Checkpoint period k.
    uint64_t EpochIters = 0;   ///< Iterations in this epoch.
    unsigned NumWorkers = 0;
    /// Distinct dirty chunks one slot can hold.  0 (the default) covers
    /// the full footprint, so merges can never overflow; a smaller cap
    /// shrinks SlotStride (and the region) for huge footprints, at the
    /// price of a conservative misspeculation if a period out-dirties it.
    uint64_t SlotChunkCapacity = 0;
  };

  CheckpointRegion() = default;
  CheckpointRegion(const CheckpointRegion &) = delete;
  CheckpointRegion &operator=(const CheckpointRegion &) = delete;
  ~CheckpointRegion();

  /// Maps the region (MAP_SHARED | MAP_ANONYMOUS); must run before fork.
  /// Returns false (with the region left uncreated) if the mapping fails,
  /// so the driver can degrade to sequential execution instead of dying.
  [[nodiscard]] bool create(const Config &C);
  void destroy();

  const Config &config() const { return Cfg; }
  SlotHeader *slot(uint64_t P) const;

  /// Chunks covering the private footprint / entries one slot can hold.
  uint64_t chunkCount() const { return NumChunks; }
  uint64_t slotChunkCapacity() const { return ChunkCap; }

  /// Union of the contributors' dirty-chunk masks for slot \p P
  /// (dirtyMaskWords(chunkCount()) words, in the shared region).
  uint64_t *slotDirtyMask(uint64_t P) const;

  /// True when slot \p P's header is consistent with the epoch plan.  A
  /// header torn by a crashed writer (or the fault injector) fails this
  /// and must be treated as misspeculation, not walked.  Only valid once
  /// the slot is quiescent (all workers merged it, or all workers reaped):
  /// the dynamic counters it checks are legitimately in motion before then.
  bool slotHeaderSane(uint64_t P) const;

  /// Subset of slotHeaderSane that checks only the fields no healthy worker
  /// ever writes (BaseIter, NumIters — fixed at create()).  Safe to poll at
  /// any time, so the in-epoch commit pump can catch a scribbled header the
  /// moment it appears instead of waiting for the post-join sweep.
  bool slotStableSane(uint64_t P) const;

  /// Worker side: merges this worker's period-\p P state into slot P.
  /// \p LocalShadow / \p LocalPrivate point at the worker's COW views of
  /// the covered byte range; \p DirtyMask names the chunks this worker
  /// touched during the period (only those are folded); \p ReduxBase is
  /// the redux heap base address.  \p PendingIo is consumed (moved into
  /// the slot) unless the slot's I/O buffer overflows, in which case the
  /// records stay with the worker and the slot is marked overflowed so the
  /// misspec recovery re-executes (and re-emits) the period.  When
  /// \p Executed is false the worker ran no iterations of P and only
  /// registers presence.
  /// \p PendingCom is consumed the same way as \p PendingIo: serialized
  /// into the slot's com-log section, or left with the worker (slot marked
  /// overflowed) when it does not fit.
  void workerMerge(uint64_t P, const uint8_t *LocalShadow,
                   const uint8_t *LocalPrivate, const uint64_t *DirtyMask,
                   const ReductionRegistry &Redux, uint64_t ReduxBase,
                   std::vector<IoRecord> &PendingIo,
                   std::vector<ComRecord> &PendingCom, bool Executed,
                   const MergeContext &Ctx);

  enum class CommitStatus { Ok, Misspec };

  /// Main-process side: applies slot \p P to the committed master state.
  /// \p MasterShadow and \p MasterPrivate are the main process's
  /// MAP_SHARED views of the covered range; redux partials are combined
  /// into the master redux heap; deferred output is appended to \p OutIo.
  /// Detects phase-2 privacy violations, reported through \p MisspecWhy.
  /// Walks only the slot's dirty chunks; \p Scan, when non-null, receives
  /// the walk accounting.  \p ComHeapBase / \p ComHeapSpan bound the
  /// commutative heap: every logged record is validated against them
  /// before the slot's com section is folded into the master heap (a
  /// record outside the heap means the shared log was corrupted — treated
  /// as misspeculation before anything is applied).  Span 0 disables the
  /// com fold.
  CommitStatus commitSlot(uint64_t P, uint8_t *MasterShadow,
                          uint8_t *MasterPrivate,
                          const ReductionRegistry &Redux, uint64_t ReduxBase,
                          uint64_t ComHeapBase, uint64_t ComHeapSpan,
                          std::vector<IoRecord> &OutIo, std::string &MisspecWhy,
                          CheckpointScanStats *Scan = nullptr) const;

private:
  uint32_t *slotChunkDir(uint64_t P) const;
  uint8_t *slotEntries(uint64_t P) const;
  uint8_t *entryMeta(uint64_t P, uint32_t Entry) const;
  uint8_t *entryValues(uint64_t P, uint32_t Entry) const;
  uint8_t *slotRedux(uint64_t P) const;
  uint8_t *slotIo(uint64_t P) const;
  uint8_t *slotCom(uint64_t P) const;

  /// Bytes of chunk \p C that lie inside the covered footprint.
  uint64_t chunkSpan(uint64_t C) const;

  Config Cfg;
  uint8_t *Region = nullptr;
  uint64_t NumChunks = 0;
  uint64_t MaskWords = 0;
  uint64_t ChunkCap = 0;
  uint64_t OffMask = 0;
  uint64_t OffDir = 0;
  uint64_t OffEntries = 0;
  uint64_t OffRedux = 0;
  uint64_t OffIo = 0;
  uint64_t OffCom = 0;
  uint64_t SlotStride = 0;
  uint64_t RegionBytes = 0;
};

} // namespace privateer

#endif // PRIVATEER_RUNTIME_CHECKPOINT_H
