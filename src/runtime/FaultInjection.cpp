//===- runtime/FaultInjection.cpp -----------------------------------------===//

#include "runtime/FaultInjection.h"

#include "runtime/Checkpoint.h"

#include <csignal>
#include <ctime>

#include <unistd.h>

using namespace privateer;

namespace {

[[noreturn]] void killSelf() {
  kill(getpid(), SIGKILL);
  for (;;) // SIGKILL cannot be observed; never execute past it.
    pause();
}

void stallFor(double Seconds) {
  timespec Ts;
  Ts.tv_sec = static_cast<time_t>(Seconds);
  Ts.tv_nsec = static_cast<long>((Seconds - static_cast<double>(Ts.tv_sec)) *
                                 1e9);
  // Restart after EINTR: the stall must only end when the watchdog kills
  // this process or the full duration elapses.
  while (nanosleep(&Ts, &Ts) != 0) {
  }
}

} // namespace

FaultInjector::FaultInjector(const FaultPlan &P)
    : Plan(P), KillThreshold(faultThreshold(P.KillRate)),
      StallThreshold(faultThreshold(P.StallRate)) {}

void FaultInjector::onWorkerIteration(unsigned Worker, uint64_t Iter) {
  if (Worker == Plan.KillWorker && Iter == Plan.KillAtIter)
    killSelf();
  if (Worker == Plan.StallWorker && Iter == Plan.StallAtIter)
    stallFor(Plan.StallSeconds);
  // Randomized faults hash the iteration only: cyclic scheduling gives each
  // iteration exactly one executing worker, so the set of doomed iterations
  // is a pure function of the seed.
  if (KillThreshold && faultHash(Iter, Plan.Seed ^ 0xdead) < KillThreshold)
    killSelf();
  if (StallThreshold && faultHash(Iter, Plan.Seed ^ 0x57a11) < StallThreshold)
    stallFor(Plan.StallSeconds);
}

void FaultInjector::onSlotLocked(unsigned Worker, uint64_t Slot) {
  if (Worker == Plan.LockDeathWorker && Slot == Plan.LockDeathSlot)
    killSelf();
}

bool FaultInjector::shouldFailFork() {
  ++ForkCount;
  return Plan.FailForkN != 0 && ForkCount == Plan.FailForkN;
}

void FaultInjector::maybeCorruptSlot(CheckpointRegion &Region) {
  if (Plan.CorruptSlot == kNoFaultIter || CorruptDone)
    return;
  if (Plan.CorruptSlot >= Region.config().Plan.numSlots())
    return;
  CorruptDone = true;
  SlotHeader *H = Region.slot(Plan.CorruptSlot);
  // A torn header: iteration range and I/O cursor no longer agree with the
  // epoch plan.  The committer's sanity check must catch this instead of
  // walking garbage.
  H->BaseIter = faultHash(H->BaseIter, Plan.Seed);
  H->NumIters = ~0ULL;
  H->IoBytes = ~0ULL;
}
