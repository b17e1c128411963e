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

#include "runtime/ControlBlock.h"
#include "runtime/DeferredIO.h"
#include "runtime/DirtyChunks.h"
#include "runtime/Reduction.h"
#include "support/Trace.h"

#include <algorithm>
#include <string>
#include <vector>

namespace privateer {

class FaultInjector;

inline constexpr uint8_t kSlotConflict = 255;

/// One slot's deferred-output section; a period whose records do not fit
/// misspeculates and re-emits its output through sequential recovery.
inline constexpr uint64_t kIoBytesPerSlot = 1u << 20;

/// The schedule of one fork/join epoch (paper §5.2), and the only code that
/// knows it: iterations [Begin, End) run in checkpoint periods of Period
/// iterations, one slot per period, and iteration I belongs to worker
/// (I - Begin) mod NumWorkers.  Every period, slot, share and stride the
/// runtime uses is asked of this value.
struct EpochPlan {
  uint64_t Begin = 0;
  uint64_t End = 0;
  uint64_t Period = 1;
  unsigned NumWorkers = 1;

  /// The plan of at most \p MaxPeriods periods of \p Period iterations
  /// from \p Begin, cut at \p Limit.
  static EpochPlan starting(uint64_t Begin, uint64_t Limit, uint64_t Period,
                            uint64_t MaxPeriods, unsigned NumWorkers) {
    return {Begin, Begin + std::min(Limit - Begin, MaxPeriods * Period),
            Period, NumWorkers};
  }

  /// Checkpoint slots: one per period, the last possibly short.
  uint64_t numSlots() const { return (End - Begin + Period - 1) / Period; }
  uint64_t periodOf(uint64_t I) const { return (I - Begin) / Period; }
  uint64_t periodBegin(uint64_t P) const { return Begin + P * Period; }
  uint64_t periodEnd(uint64_t P) const {
    return std::min(End, periodBegin(P) + Period);
  }

  /// Worker \p W's first iteration at or after \p Lo; its later ones
  /// follow every NumWorkers iterations.
  uint64_t firstAtOrAfter(unsigned W, uint64_t Lo) const {
    uint64_t Phase = (Lo - Begin) % NumWorkers;
    return Lo + (W + NumWorkers - Phase) % NumWorkers;
  }
  /// How many iterations of [Lo, Hi) worker \p W runs.
  uint64_t shareOf(unsigned W, uint64_t Lo, uint64_t Hi) const {
    if (Lo >= Hi)
      return 0;
    uint64_t First = firstAtOrAfter(W, Lo);
    return First >= Hi ? 0 : (Hi - First + NumWorkers - 1) / NumWorkers;
  }
};

/// Header of one checkpoint slot (in shared memory).
struct SlotHeader {
  /// Owner-tagged so the committer and sibling workers can detect a lock
  /// orphaned by a dead worker and break it instead of deadlocking.
  OwnerLock Lock;
  /// Set when a worker broke this slot's lock away from a dead holder: the
  /// merge data may be torn mid-update, so the slot must not commit.
  std::atomic<uint32_t> Poisoned{0};
  /// Count of workers that merged this slot: the publication point for
  /// eager commit.  Each merger release-increments it as the last store of
  /// its merge (still under the lock); the commit frontier's acquire load
  /// seeing NumWorkers makes every contributor's merge data visible.
  std::atomic<uint32_t> WorkersMerged{0};
  /// Mergers that actually executed iterations; the first of these
  /// initializes the slot's reduction partials.
  uint32_t ExecutedMerges = 0;
  /// Chunk entries allocated so far.  A slot holds an entry for every
  /// footprint chunk, so only a scribbled count can reach the bound.
  uint32_t ChunksUsed = 0;
  /// A merge found no free chunk entry (ChunksUsed was scribbled); the
  /// slot is incomplete and must be recovered, never committed.
  uint32_t ChunkOverflow = 0;
  uint64_t BaseIter = 0;
  uint64_t NumIters = 0;
  uint64_t IoBytes = 0;
  uint32_t IoOverflow = 0;
};

/// Why a slot cannot commit: a fixed message and its trace code.  Empty
/// (false) when nothing is wrong.
struct SlotFailure {
  const char *Why = nullptr;
  trace::Reason Code = trace::Reason::Generic;
  explicit operator bool() const { return Why != nullptr; }
};

/// Byte-walk accounting for one merge or commit: how many dirty chunks
/// were folded/walked, and within them how many bytes took the per-byte
/// path vs the word-skip fast path.  Feeds the `checkpoint.*` statistics
/// and the perfmodel's dirty-byte checkpoint cost term.
struct CheckpointScanStats {
  uint64_t DirtyChunks = 0;
  uint64_t BytesScanned = 0;
  uint64_t BytesSkipped = 0;
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
    EpochPlan Plan;            ///< One slot per period of the epoch.
    uint64_t PrivateBytes = 0; ///< Bytes of private heap covered (high water).
    /// Bytes of the registry's packed image of reduction objects
    /// (ReductionRegistry::packedBytes).
    uint64_t ReduxBytes = 0;
    uint64_t IoCapacity = 0; ///< Per-slot deferred-output capacity.
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

  /// Entries one slot can hold: one per chunk of the covered footprint.
  uint64_t slotChunkCapacity() const { return NumChunks; }

  /// Union of the contributors' dirty-chunk masks for slot \p P (one bit
  /// per chunk of the private footprint, in the shared region).
  uint64_t *slotDirtyMask(uint64_t P) const;

  /// True when slot \p P's header is consistent with the epoch plan.  A
  /// header torn by a crashed writer (or the fault injector) fails this
  /// and must be treated as misspeculation, not walked.  Its dynamic
  /// counters are legitimately in motion until the slot is quiescent (all
  /// workers merged it, or all are reaped); before then \p Quiescent =
  /// false checks only BaseIter and NumIters, which no healthy worker
  /// writes, so a scribble is caught the moment it appears.
  bool slotHeaderSane(uint64_t P, bool Quiescent = true) const;

  /// Worker side: merges this worker's period-\p P state into slot P.
  /// \p LocalShadow / \p LocalPrivate point at the worker's COW views of
  /// the covered byte range; \p DirtyMask names the chunks this worker
  /// touched during the period (only those are folded); \p Redux's objects
  /// hold the worker's partials.  \p PendingIo is consumed (moved into
  /// the slot) unless the slot's I/O buffer overflows, in which case the
  /// records stay with the worker and the slot is marked overflowed so the
  /// misspec recovery re-executes (and re-emits) the period.  When
  /// \p Executed is false the worker ran no iterations of P and only
  /// registers presence.
  void workerMerge(uint64_t P, const uint8_t *LocalShadow,
                   const uint8_t *LocalPrivate, const uint64_t *DirtyMask,
                   const ReductionRegistry &Redux,
                   std::vector<IoRecord> &PendingIo, bool Executed,
                   const MergeContext &Ctx);

  /// Main-process side: applies slot \p P, which CommitFrontier cleared,
  /// to the master state: \p MasterShadow and \p MasterPrivate (the main
  /// process's views of the covered range), \p Redux's master objects, and
  /// \p OutIo for deferred output.  A phase-2 privacy violation fails it
  /// before anything is applied.  Walks only the slot's dirty chunks;
  /// \p Scan, when non-null, receives the walk accounting.
  SlotFailure commitSlot(uint64_t P, uint8_t *MasterShadow,
                         uint8_t *MasterPrivate,
                         const ReductionRegistry &Redux,
                         std::vector<IoRecord> &OutIo,
                         CheckpointScanStats *Scan = nullptr) const;

private:
  uint32_t *slotChunkDir(uint64_t P) const;
  uint8_t *slotEntries(uint64_t P) const;
  uint8_t *entryMeta(uint64_t P, uint32_t Entry) const;
  uint8_t *entryValues(uint64_t P, uint32_t Entry) const;
  uint8_t *slotRedux(uint64_t P) const;
  uint8_t *slotIo(uint64_t P) const;

  /// Bytes of chunk \p C that lie inside the covered footprint.
  uint64_t chunkSpan(uint64_t C) const;

  Config Cfg;
  uint8_t *Region = nullptr;
  uint64_t NumChunks = 0;
  uint64_t MaskWords = 0;
  uint64_t OffMask = 0;
  uint64_t OffDir = 0;
  uint64_t OffEntries = 0;
  uint64_t OffRedux = 0;
  uint64_t OffIo = 0;
  uint64_t SlotStride = 0;
  uint64_t RegionBytes = 0;
};

/// The ordered commit of one epoch's slots (paper §5.2–5.3): the only
/// code that decides whether a slot may commit.  It keeps the next slot to
/// commit, which only moves forward, and the first failure, which stops
/// it.  No syscalls: the commit pump asks it, and CommitFrontierTest asks
/// it through every small interleaving of merges and faults.
class CommitFrontier {
public:
  enum class Verdict { Commit, Wait, Fail };

  /// Why the epoch stopped, the period blamed, and recovery's end.
  struct Failure {
    std::string Reason;
    trace::Reason Code = trace::Reason::Generic;
    uint64_t Period = 0;
    uint64_t End = 0;
  };

  /// \p Region is null for a non-speculative epoch, which keeps no
  /// checkpoints and commits whole unless a worker raised misspeculation.
  CommitFrontier(const EpochPlan &Plan, CheckpointRegion *Region,
                 const ControlBlock &Cb)
      : Plan(Plan), Region(Region), Cb(&Cb) {}

  /// What slot next() may do now; Wait once nothing is pending.  With
  /// \p WorkersGone (all reaped, nothing merges any more) a pending slot
  /// commits or fails.  Fail records the failure.
  Verdict verdict(bool WorkersGone);
  /// Takes the result of commitSlot(next()) after verdict() said Commit:
  /// the slot commits, or its failure is recorded.  True when committed.
  bool committed(const SlotFailure &Walk);
  /// After the join: true when a misspeculation raised past every slot,
  /// or in a non-speculative epoch, fails the epoch here; else a
  /// non-speculative epoch commits whole.
  bool finish();

  uint64_t next() const { return Next; }
  bool pending() const {
    return Region && !failed() && Next < Plan.numSlots();
  }
  bool failed() const { return !F.Reason.empty(); }
  const Failure &failure() const { return F; }
  /// First iteration not committed.
  uint64_t committedEnd() const {
    return Next == Plan.numSlots() ? Plan.End : Plan.periodBegin(Next);
  }
  /// End of the recovery window from committedEnd().  A watchdog may blame
  /// an iteration of a period the pump already committed; committed slots
  /// are valid by construction, so recovery never restarts behind them.
  uint64_t recoveryEnd() const { return std::max(F.End, committedEnd()); }

private:
  Verdict fail(uint64_t P, const SlotFailure &Why);
  void failFromFlag(uint64_t End);

  EpochPlan Plan;
  CheckpointRegion *Region;
  const ControlBlock *Cb;
  uint64_t Next = 0;
  Failure F;
};

} // namespace privateer

#endif // PRIVATEER_RUNTIME_CHECKPOINT_H
