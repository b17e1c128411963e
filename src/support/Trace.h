//===- support/Trace.h - Cross-process runtime event tracing ----*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Always-compiled, default-off event tracing for the parallel runtime.
///
/// Workers are forked processes, so their events travel through fixed-size
/// lock-free SPSC rings living in the shared control block (MAP_SHARED
/// memory created before fork).  A producer writes one POD record and
/// bumps one atomic cursor — wait-free, async-signal-safe, and cheap
/// enough to sit next to the private_read/private_write instrumentation;
/// when the ring is full the event is counted as dropped, never blocked
/// on.  The main process is the only consumer: it drains the rings at
/// commit-pump passes and at join, stamps each event with its producer's
/// timeline row, and — when a trace path is set — serializes everything as
/// Chrome `chrome://tracing` / Perfetto JSON: one pid row per worker
/// process plus one for the main process / commit pump.
///
/// Aggregate event counts mirror into StatisticRegistry group `trace`.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_SUPPORT_TRACE_H
#define PRIVATEER_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace privateer {
namespace trace {

/// What happened.  Span kinds carry their start time in Event::A and are
/// rendered as Chrome "X" (complete) events; the rest are instants.
enum class Kind : uint16_t {
  Invocation,      ///< Span: one runParallel call.  B = iterations.
  Epoch,           ///< Span: one fork/join epoch.  B = base iter, Arg = slots.
  WorkerFork,      ///< Arg = worker, A = OS pid.
  WorkerBegin,     ///< Worker row: first event after fork.
  WorkerExit,      ///< Arg = worker, A = wait status, B = clean flag.
  WorkerStallKill, ///< Arg = worker, A = last iter, B = heartbeat age ns.
  Heartbeat,       ///< Worker row: A = current iteration.
  SlotMerge,       ///< Span, worker row: Arg = slot, B = executed flag.
  CheckpointScan,  ///< Worker row: Arg = slot, A = bytes scanned, B = skipped.
  CommitEager,     ///< Span: Arg = slot, B = bytes scanned by the commit.
  Misspec,         ///< Arg = reason code, A = iteration, B = period.
  EarlyCutoff,     ///< Arg = period, A = iterations saved.
  RecoveryClamp,   ///< A = classified period end, B = committed frontier.
  Recovery,        ///< Span: A = start ns, B = iterations re-executed.
  Degraded,        ///< Span: B = iterations run sequentially.
  LockBroken,      ///< Arg = slot.
  RingDrops,       ///< Arg = worker, A = events dropped on ring overflow.
  DepPost,         ///< Worker row: Arg = channel, A = iteration, B = value.
  DepWait,         ///< Span, worker row: a dependence wait that left the
                   ///< fast path.  Arg = channel, B = iteration.
  kNumKinds
};

/// Stable lower-case name used for the Chrome event name and the
/// StatisticRegistry counter under group "trace".
const char *kindName(Kind K);

/// True for kinds whose Event::A is a start timestamp (rendered "X").
bool kindIsSpan(Kind K);

/// Compact classification of misspeculation reasons so worker-raised
/// misspecs can cross the process boundary without carrying strings.
enum class Reason : uint32_t {
  Generic,
  Injected,
  FlowDependence,
  SamePeriodConflict,
  SeparationCheck,
  PrivacyBounds,
  ShortLivedEscape,
  IoOverflow,
  CorruptSlot,
  TornSlot,
  Watchdog,
  WorkerLost,
  ProtectedStore,
  OrphanedLock,
  kNumReasons
};

/// Substring classification of a reason that arrives as text: a worker's
/// misspecAbort message or the main process's note on a dead worker.
/// Failures the commit frontier decides carry their code directly.
Reason reasonCode(const char *Why);
const char *reasonName(Reason R);

/// One trace record.  POD, 32 bytes, stored whole by the producer before
/// one release cursor bump — a consumer never observes a torn record.
struct Event {
  uint64_t TimeNs; ///< monotonicNanos() at emission (span end for spans).
  uint64_t A;      ///< Kind-specific; start ns for span kinds.
  uint64_t B;      ///< Kind-specific payload.
  uint32_t Arg;    ///< Kind-specific small payload (slot, worker, reason).
  uint16_t KindCode;
  uint16_t Worker; ///< Producer row: 0 = main process, 1 + id = worker id.
};
static_assert(std::is_trivially_copyable_v<Event> && sizeof(Event) == 32,
              "trace events must be PODs the ring can memcpy");

inline Event makeEvent(Kind K, uint16_t Worker, uint64_t TimeNs, uint64_t A,
                       uint64_t B, uint32_t Arg) {
  Event E;
  E.TimeNs = TimeNs;
  E.A = A;
  E.B = B;
  E.Arg = Arg;
  E.KindCode = static_cast<uint16_t>(K);
  E.Worker = Worker;
  return E;
}

/// Events one ring holds; must be a power of two.  At 32 bytes per event
/// one ring is 64 KiB; a traced invocation maps one per worker.
inline constexpr uint32_t kRingCapacity = 2048;

/// Fixed-size single-producer/single-consumer ring.  The producer is one
/// worker process, the consumer is the main process; both see the same
/// instance through MAP_SHARED memory.  push() is wait-free: one bounds
/// check, one POD store, one release cursor bump — and on overflow it
/// counts the drop instead of waiting, so tracing can never stall or
/// deadlock a worker, no matter how far behind the consumer is.
class Ring {
public:
  bool push(const Event &E) {
    uint32_t H = Head.load(std::memory_order_relaxed);
    uint32_t T = Tail.load(std::memory_order_acquire);
    if (H - T >= kRingCapacity) {
      Dropped.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    Events[H & (kRingCapacity - 1)] = E;
    Head.store(H + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: visits every published event once, in order.
  /// Returns the number visited.
  template <typename Fn> uint32_t drain(Fn &&Visit) {
    uint32_t T = Tail.load(std::memory_order_relaxed);
    uint32_t H = Head.load(std::memory_order_acquire);
    uint32_t N = 0;
    for (; T != H; ++T, ++N)
      Visit(Events[T & (kRingCapacity - 1)]);
    Tail.store(T, std::memory_order_release);
    return N;
  }

  uint64_t dropped() const { return Dropped.load(std::memory_order_relaxed); }

  /// Returns the drops counted since the last call and restarts the count,
  /// so a ring reused across epochs reports each drop exactly once.
  uint64_t takeDropped() {
    return Dropped.exchange(0, std::memory_order_relaxed);
  }

  /// Published events not yet drained.
  uint32_t size() const {
    return Head.load(std::memory_order_acquire) -
           Tail.load(std::memory_order_acquire);
  }

private:
  std::atomic<uint32_t> Head{0};
  std::atomic<uint32_t> Tail{0};
  std::atomic<uint64_t> Dropped{0};
  Event Events[kRingCapacity];
};

/// Main-process-side accumulator: receives drained worker events and the
/// main process's own events, mirrors per-kind counts into
/// StatisticRegistry group "trace", and serializes the whole timeline as
/// Chrome-trace JSON.  Not shared across processes — workers only ever
/// touch their ring.
class Collector {
public:
  static Collector &instance();

  /// Arms tracing toward \p Path.  A different path than the current one
  /// resets the accumulated timeline; an empty path disarms.
  void enable(const std::string &Path);
  bool enabled() const { return !Path.empty(); }
  const std::string &path() const { return Path; }

  /// Records one event; \p Note, when non-empty, is attached to the JSON
  /// as args.note (main-process events only — workers cannot pass
  /// strings).  Bounded: beyond kMaxRecords the event still counts in the
  /// registry but is dropped from the timeline.
  void record(const Event &E, const std::string &Note = std::string());

  /// Convenience for the common case.
  void record(Kind K, uint16_t Worker, uint64_t TimeNs, uint64_t A,
              uint64_t B, uint32_t Arg,
              const std::string &Note = std::string()) {
    record(makeEvent(K, Worker, TimeNs, A, B, Arg), Note);
  }

  /// Drains one worker ring into the timeline.
  uint32_t drainRing(Ring &R);

  /// Folds a ring's drop count for one epoch into the trace.dropped
  /// statistic and emits a RingDrops event when non-zero.  Call once per
  /// ring per epoch with Ring::takeDropped().
  void noteDrops(unsigned Worker, uint64_t Count);

  /// Serializes the timeline to path() as Chrome-trace JSON (rewrites the
  /// file, so it is valid after every invocation).  No-op when disabled.
  /// Returns false with \p Err set when the file cannot be written.
  bool flush(std::string &Err);

  /// Drops all accumulated events (keeps the path armed).
  void reset();

  uint64_t eventCount() const { return Records.size(); }
  uint64_t droppedTotal() const { return DroppedEvents; }

  /// Timeline cap: ~128 MiB of records; beyond it events only count.
  static constexpr size_t kMaxRecords = 4u << 20;

private:
  struct Record {
    Event E;
    uint32_t Note; ///< 0 = none, else index + 1 into Notes.
  };
  std::string Path;
  std::vector<Record> Records;
  std::vector<std::string> Notes;
  uint64_t BaseNs = 0; ///< First event's timestamp; JSON times are relative.
  uint64_t DroppedEvents = 0;
};

} // namespace trace
} // namespace privateer

#endif // PRIVATEER_SUPPORT_TRACE_H
