//===- runtime/ControlBlock.h - Shared worker coordination ------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-shared state for a parallel invocation: the global
/// misspeculation flag and earliest-misspeculation record (paper §5.3), a
/// per-worker progress word and heartbeat feeding the main process's
/// watchdog, and per-worker statistics feeding Table 3 and Figure 8.
/// Lives in a MAP_SHARED|MAP_ANONYMOUS region mapped once per parallel
/// invocation, before the first fork, so all workers see one instance;
/// resetForEpoch() re-arms it in O(workers) at every epoch start.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_RUNTIME_CONTROLBLOCK_H
#define PRIVATEER_RUNTIME_CONTROLBLOCK_H

#include "runtime/StatsSchema.h"

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>

#include <sched.h>
#include <signal.h>

namespace privateer {

inline constexpr unsigned kMaxWorkers = 64;
inline constexpr uint64_t kNoMisspec = ~0ULL;

/// A process-shared mutex whose holder is identified by PID, so that a
/// survivor can detect a lock orphaned by a dead process and break it
/// instead of deadlocking.  Workers are processes, potentially timesharing
/// one core, so the slow path yields rather than spinning.  It probes the
/// holder with kill(pid, 0) before its first yield and every 64 yields
/// after, and steals the lock if the holder is gone.
class OwnerLock {
public:
  /// Acquires the lock for \p SelfPid.  Returns true if acquisition
  /// required breaking a dead holder's lock — the caller must assume the
  /// protected data is torn.  \p Heartbeat, when given, is refreshed with
  /// \p HeartbeatValue() while waiting so a watchdog does not mistake a
  /// patient waiter for a hung worker.
  template <typename BeatFn>
  bool lockOrBreak(uint32_t SelfPid, BeatFn Beat) {
    for (unsigned Spins = 0;; ++Spins) {
      uint32_t Cur = 0;
      if (Holder.compare_exchange_weak(Cur, SelfPid,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed))
        return false;
      if (Spins % 64 == 0) {
        Beat();
        // Probe the holder; ESRCH means it died while holding the lock.
        uint32_t Owner = Holder.load(std::memory_order_relaxed);
        if (Owner != 0 && kill(static_cast<pid_t>(Owner), 0) != 0 &&
            errno == ESRCH) {
          if (Holder.compare_exchange_strong(Owner, SelfPid,
                                             std::memory_order_acquire))
            return true;
        }
      }
      sched_yield();
    }
  }

  void unlock() { Holder.store(0, std::memory_order_release); }

  /// PID of the current holder, 0 when free.
  uint32_t holder() const { return Holder.load(std::memory_order_acquire); }

private:
  std::atomic<uint32_t> Holder{0};
};

struct ControlBlock {
  std::atomic<uint32_t> MisspecFlag{0};
  std::atomic<uint64_t> EarliestMisspecIter{kNoMisspec};
  std::atomic<uint64_t> EarliestMisspecPeriod{kNoMisspec};
  /// First writer wins; readable only after the writer exited (the main
  /// process reads it post-join, workers never read it).
  char MisspecReason[160] = {};
  /// Iteration each worker is currently executing; consulted when a worker
  /// dies without recording a misspeculation (e.g. a SIGSEGV from the
  /// write-protected read-only heap).
  std::atomic<uint64_t> WorkerIter[kMaxWorkers];
  /// Monotonic-clock nanoseconds of each worker's last sign of progress;
  /// the watchdog SIGKILLs workers whose heartbeat goes stale.
  std::atomic<uint64_t> WorkerHeartbeat[kMaxWorkers];
  /// Checkpoint-slot locks broken by workers after their holder died.
  std::atomic<uint64_t> LocksBroken{0};
  WorkerStats Stats[kMaxWorkers];

  /// Re-arms the block for an epoch of \p NumWorkers workers starting at
  /// \p BaseIter: clears the flag, the misspeculation record, the broken
  /// lock count and those workers' entries, so no earlier epoch leaks in.
  void resetForEpoch(unsigned NumWorkers, uint64_t BaseIter,
                     uint64_t NowNs) {
    MisspecFlag.store(0, std::memory_order_relaxed);
    EarliestMisspecIter.store(kNoMisspec, std::memory_order_relaxed);
    EarliestMisspecPeriod.store(kNoMisspec, std::memory_order_relaxed);
    std::memset(MisspecReason, 0, sizeof(MisspecReason));
    LocksBroken.store(0, std::memory_order_relaxed);
    for (unsigned I = 0; I < NumWorkers; ++I) {
      WorkerIter[I].store(BaseIter, std::memory_order_relaxed);
      WorkerHeartbeat[I].store(NowNs, std::memory_order_relaxed);
      Stats[I] = WorkerStats();
    }
  }

  /// Records a misspeculation at \p Iter in period \p Period and raises
  /// the flag; the first raiser copies \p Reason into the zeroed buffer.
  /// Lock-free and async-signal-safe (a lock could die with its holder).
  void raiseMisspec(uint64_t Iter, uint64_t Period, const char *Reason) {
    storeMin(EarliestMisspecIter, Iter);
    storeMin(EarliestMisspecPeriod, Period);
    if (MisspecFlag.exchange(1, std::memory_order_acq_rel) != 0)
      return;
    for (size_t I = 0; I + 1 < sizeof(MisspecReason) && Reason[I]; ++I)
      MisspecReason[I] = Reason[I];
  }

  /// True once a misspeculation at or before period \p P is raised: P can
  /// no longer commit, so nobody runs, merges or commits it (§5.3).
  bool periodDoomed(uint64_t P) const {
    return MisspecFlag.load(std::memory_order_acquire) &&
           P >= EarliestMisspecPeriod.load(std::memory_order_relaxed);
  }

  /// Atomically lowers \p Target to \p Value if smaller.
  static void storeMin(std::atomic<uint64_t> &Target, uint64_t Value) {
    uint64_t Cur = Target.load(std::memory_order_relaxed);
    while (Value < Cur &&
           !Target.compare_exchange_weak(Cur, Value,
                                         std::memory_order_acq_rel)) {
    }
  }
};

static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "control block requires lock-free 64-bit atomics");
static_assert(sizeof(ControlBlock) <= 64 * 1024,
              "the untraced coordination block must stay a few pages");

} // namespace privateer

#endif // PRIVATEER_RUNTIME_CONTROLBLOCK_H
