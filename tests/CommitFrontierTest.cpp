//===- tests/CommitFrontierTest.cpp - Slot commits, checked exhaustively -===//
//
// A small-scope model checker for the slot lifecycle of paper §5.2–5.3.
// It drives the real CommitFrontier over a real CheckpointRegion and a real
// ControlBlock, with no fork: simulated workers merge their slots through
// workerMerge, the checker plays the main process (commit pump, reaper),
// and the explorer visits every state reachable by any interleaving of
// worker merges for W <= 3 workers and <= 3 slots, with at most one fault
// injected at any step.  The faults are the runtime's own: a kill; a
// death holding a slot lock, before or after publishing its merge; a
// watchdog kill of a worker stalled between periods; a scribbled slot
// header (through FaultInjector); and a worker-raised misspeculation.  A dead worker is reaped, raising the flag the way the
// runtime's reaper does, at any later step.  The pump runs either after
// every step or only at the join, which bounds when a ready slot commits
// from both sides.
//
// After every step the checker asserts the frontier's invariants
// (DESIGN.md §6):
//   - the frontier only moves forward, and not at all once it failed;
//   - a slot is cleared only when all W workers merged it and it is not
//     poisoned, doomed or scribbled, and a slot whose walk fails never
//     commits nor moves the frontier;
//   - each slot commits at most once, and commits exactly the output of
//     the workers that ran iterations in it;
//   - every stop leaves a non-empty reason with a typed trace code, and at
//     the join nothing waits;
//   - recovery starts at the committed frontier and ends inside the epoch
//     but past its begin; an epoch with a fault never reports success.
// A violation fails the test with the schedule that produced it.
//
//===----------------------------------------------------------------------===//

#include "runtime/Checkpoint.h"
#include "runtime/FaultInjection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include <unistd.h>

using namespace privateer;

namespace {

constexpr uint64_t kPeriod = 2;
constexpr uint64_t kIoCapacity = 256;
/// Above any pid_max, so kill(pid, 0) reports ESRCH: a lock holder that
/// died.
constexpr uint32_t kDeadPid = 0x7ffffff0;

enum class Op : uint8_t {
  Merge,          ///< The worker merges its next slot.
  Quit,           ///< The worker sees its period doomed and exits.
  Reap,           ///< The main process reaps a dead worker.
  Kill,           ///< Fault: killed after its iterations of the next slot.
  LockKill,       ///< Fault: dies holding the next slot's lock.
  PublishKill,    ///< Fault: merges, then dies before dropping the lock.
  StallKill,      ///< Fault: the watchdog kills it between periods.
  Misspec,        ///< Fault: raises misspeculation in its next slot.
  Scribble,       ///< Fault: FaultInjector tears slot Arg's header.
};

struct Step {
  Op What;
  unsigned Arg;
};

std::string describe(const Step &S) {
  static const char *Names[] = {"merge",     "quit",         "reap",
                                "kill",      "lock-kill",    "publish-kill",
                                "stall-kill", "misspec",     "scribble"};
  return std::string(Names[static_cast<unsigned>(S.What)]) +
         (S.What == Op::Scribble ? " slot " : " w") + std::to_string(S.Arg);
}

/// One simulated worker.
enum class State : uint8_t { Running, Exited, Dead, Reaped };
struct Worker {
  State St = State::Running;
  bool Stalled = false;
  uint64_t Next = 0; ///< Next slot to merge.
  uint64_t DeathIter = 0;
};

/// Everything a step changes outside the region and the control block;
/// copied to step back.
struct Model {
  CommitFrontier Frontier;
  std::vector<Worker> Workers;
  std::vector<unsigned> Merges, Commits;
  std::vector<bool> Scribbled;
  bool Faulted = false;
  std::string Trace; ///< The schedule so far; not part of the state.
};

/// Explores every state of one scope (W workers, S slots, pump after every
/// step or only at the join) depth first.  Each step runs once from a
/// restored snapshot, and a state already explored is not explored again,
/// so every interleaving is covered without replaying its prefix.
class Explorer {
public:
  Explorer(unsigned W, uint64_t S, bool EagerPump, ControlBlock &Cb)
      : Plan{0, S * kPeriod, kPeriod, W}, EagerPump(EagerPump), Cb(Cb) {
    // No private footprint: the protocol is under test, not the byte walk,
    // and every slot then lies in the region's first page.
    CheckpointRegion::Config C;
    C.Plan = Plan;
    C.IoCapacity = kIoCapacity;
    Created = Region.create(C);
    Cb.resetForEpoch(W, Plan.Begin, 0);
  }

  /// The first counterexample, or empty.
  std::string run() {
    if (!Created)
      return "mmap of the checkpoint region failed";
    // The last slot's header and I/O section must lie in the snapshot.
    Page = reinterpret_cast<uint8_t *>(Region.slot(0));
    Used = reinterpret_cast<uint8_t *>(Region.slot(Plan.numSlots() - 1)) +
           2 * kIoCapacity - Page;
    if (Used > kPage)
      return "the region outgrew the page the explorer snapshots";
    Model M{CommitFrontier(Plan, &Region, Cb),
            std::vector<Worker>(Plan.NumWorkers),
            std::vector<unsigned>(Plan.numSlots(), 0),
            std::vector<unsigned>(Plan.numSlots(), 0),
            std::vector<bool>(Plan.numSlots(), false), false, ""};
    explore(M);
    if (Violation.empty())
      return "";
    return "W=" + std::to_string(Plan.NumWorkers) + " S=" +
           std::to_string(Plan.numSlots()) +
           (EagerPump ? " eager pump: " : " pump at join: ") + Violation;
  }

  uint64_t states() const { return Seen.size(); }

private:
  static constexpr size_t kPage = 4096;

  /// The shared memory a step can change, and the control block's
  /// misspeculation record.
  struct Snapshot {
    uint8_t Page[kPage];
    uint32_t Flag;
    uint64_t Iter, Period, LocksBroken;
    char Reason[sizeof(ControlBlock::MisspecReason)];
  };

  void save(Snapshot &S) const {
    std::memcpy(S.Page, Page, Used);
    S.Flag = Cb.MisspecFlag.load();
    S.Iter = Cb.EarliestMisspecIter.load();
    S.Period = Cb.EarliestMisspecPeriod.load();
    S.LocksBroken = Cb.LocksBroken.load();
    std::memcpy(S.Reason, Cb.MisspecReason, sizeof(S.Reason));
  }

  void restore(const Snapshot &S) {
    std::memcpy(Page, S.Page, Used);
    Cb.MisspecFlag.store(S.Flag);
    Cb.EarliestMisspecIter.store(S.Iter);
    Cb.EarliestMisspecPeriod.store(S.Period);
    Cb.LocksBroken.store(S.LocksBroken);
    std::memcpy(Cb.MisspecReason, S.Reason, sizeof(S.Reason));
  }

  /// The state's identity: the slots' bytes, the misspeculation record
  /// and the model, not the trace.
  std::string key(const Model &M) const {
    std::string K(reinterpret_cast<const char *>(Page), Used);
    const CommitFrontier::Failure &F = M.Frontier.failure();
    for (uint64_t V :
         {uint64_t{Cb.MisspecFlag.load()}, Cb.EarliestMisspecIter.load(),
          Cb.EarliestMisspecPeriod.load(), Cb.LocksBroken.load(),
          M.Frontier.next(), static_cast<uint64_t>(F.Code), F.Period, F.End})
      K += std::to_string(V) + ",";
    K += std::string(Cb.MisspecReason) + "|" + F.Reason + "|";
    for (const Worker &Wk : M.Workers)
      K += std::to_string(static_cast<int>(Wk.St)) + (Wk.Stalled ? "s" : "") +
           std::to_string(Wk.Next) + "@" + std::to_string(Wk.DeathIter) + ",";
    for (unsigned P = 0; P < Plan.numSlots(); ++P)
      K += {static_cast<char>('0' + M.Merges[P]),
            static_cast<char>('0' + M.Commits[P]), M.Scribbled[P] ? 's' : '-'};
    K += M.Faulted ? 'f' : '-';
    return K;
  }

  void explore(const Model &M) {
    if (!Seen.insert(key(M)).second)
      return;
    std::vector<Step> En = enabled(M);
    auto Saved = std::make_unique<Snapshot>();
    save(*Saved);
    if (En.empty()) {
      Model Last = M;
      join(Last);
      restore(*Saved);
      return;
    }
    for (const Step &S : En) {
      Model Child = M;
      apply(Child, S);
      if (!Violation.empty())
        return;
      explore(Child);
      if (!Violation.empty())
        return;
      restore(*Saved);
    }
  }

  uint64_t share(unsigned W, uint64_t P) const {
    return Plan.shareOf(W, Plan.periodBegin(P), Plan.periodEnd(P));
  }

  /// Worker \p W's last iteration below \p Hi (its progress word), or the
  /// epoch's first iteration if it has none yet.
  uint64_t lastIterBefore(unsigned W, uint64_t Hi) const {
    uint64_t Last = Plan.Begin;
    for (uint64_t I = Plan.firstAtOrAfter(W, Plan.Begin); I < Hi;
         I += Plan.NumWorkers)
      Last = I;
    return Last;
  }

  static std::string record(unsigned W, uint64_t P) {
    return "slot " + std::to_string(P) + " worker " + std::to_string(W);
  }

  /// Every step the model allows now.
  std::vector<Step> enabled(const Model &M) const {
    std::vector<Step> En;
    for (unsigned I = 0; I < Plan.NumWorkers; ++I) {
      const Worker &Wk = M.Workers[I];
      if (Wk.St == State::Running) {
        En.push_back({Op::Merge, I});
        if (Cb.periodDoomed(Wk.Next) && share(I, Wk.Next))
          En.push_back({Op::Quit, I});
      } else if (Wk.St == State::Dead) {
        En.push_back({Op::Reap, I});
      }
    }
    if (M.Faulted)
      return En;
    for (unsigned I = 0; I < Plan.NumWorkers; ++I) {
      if (M.Workers[I].St != State::Running)
        continue;
      for (Op F : {Op::Kill, Op::LockKill, Op::PublishKill, Op::StallKill})
        En.push_back({F, I});
      if (share(I, M.Workers[I].Next))
        En.push_back({Op::Misspec, I});
    }
    for (uint64_t P = M.Frontier.next(); P < Plan.numSlots(); ++P)
      En.push_back({Op::Scribble, static_cast<unsigned>(P)});
    return En;
  }

  /// Worker \p W merges its next slot.
  void merge(Model &M, unsigned W) {
    uint64_t P = M.Workers[W].Next++;
    bool Executed = share(W, P) > 0;
    std::vector<IoRecord> Io;
    if (Executed)
      Io.push_back({Plan.firstAtOrAfter(W, Plan.periodBegin(P)), 0,
                    record(W, P)});
    MergeContext Ctx;
    Ctx.SelfPid = static_cast<uint32_t>(getpid());
    Ctx.WorkerId = W;
    Ctx.LocksBroken = &Cb.LocksBroken;
    Region.workerMerge(P, nullptr, nullptr, nullptr, NoRedux, Io, Executed,
                       Ctx);
    ++M.Merges[P];
  }

  void die(Model &M, unsigned W, uint64_t Iter) {
    M.Workers[W].St = State::Dead;
    M.Workers[W].DeathIter = Iter;
    M.Faulted = true;
  }

  void apply(Model &M, const Step &S) {
    M.Trace += describe(S) + "; ";
    Worker &Wk = M.Workers[S.Arg];
    switch (S.What) {
    case Op::Merge:
      merge(M, S.Arg);
      if (Wk.Next == Plan.numSlots() || Cb.periodDoomed(Wk.Next))
        Wk.St = State::Exited;
      break;
    case Op::Quit:
      Wk.St = State::Exited;
      break;
    case Op::Reap:
      Cb.raiseMisspec(Wk.DeathIter, Plan.periodOf(Wk.DeathIter),
                      Wk.Stalled ? "worker stalled; killed by watchdog"
                                 : "worker terminated abnormally");
      Wk.St = State::Reaped;
      break;
    case Op::Kill:
      die(M, S.Arg, lastIterBefore(S.Arg, Plan.periodEnd(Wk.Next)));
      break;
    case Op::LockKill:
      Region.slot(Wk.Next)->Lock.lockOrBreak(kDeadPid, [] {});
      die(M, S.Arg, lastIterBefore(S.Arg, Plan.periodEnd(Wk.Next)));
      break;
    case Op::PublishKill: {
      uint64_t P = Wk.Next;
      merge(M, S.Arg);
      Region.slot(P)->Lock.lockOrBreak(kDeadPid, [] {});
      die(M, S.Arg, lastIterBefore(S.Arg, Plan.periodEnd(P)));
      break;
    }
    case Op::StallKill:
      die(M, S.Arg, lastIterBefore(S.Arg, Plan.periodBegin(Wk.Next)));
      Wk.Stalled = true;
      break;
    case Op::Misspec:
      Cb.raiseMisspec(Plan.firstAtOrAfter(S.Arg, Plan.periodBegin(Wk.Next)),
                      Wk.Next, "injected misspeculation");
      Wk.St = State::Exited;
      M.Faulted = true;
      break;
    case Op::Scribble: {
      FaultPlan Fp;
      Fp.CorruptSlot = S.Arg;
      FaultInjector(Fp).maybeCorruptSlot(Region);
      M.Scribbled[S.Arg] = true;
      M.Faulted = true;
      break;
    }
    }
    if (EagerPump)
      pump(M, /*WorkersGone=*/false);
  }

  /// The runtime's pump pass, with the invariants checked at every verdict.
  void pump(Model &M, bool WorkersGone) {
    CommitFrontier &F = M.Frontier;
    while (Violation.empty()) {
      uint64_t P = F.next();
      bool WasFailed = F.failed();
      std::string OldReason = F.failure().Reason;
      CommitFrontier::Verdict V = F.verdict(WorkersGone);
      if (F.next() != P)
        return fail(M, "a verdict moved the frontier");
      if (WasFailed && (V != CommitFrontier::Verdict::Wait ||
                        F.failure().Reason != OldReason))
        return fail(M, "the frontier moved after it failed");
      if (V == CommitFrontier::Verdict::Wait)
        return;
      if (V == CommitFrontier::Verdict::Fail)
        return checkFailure(M);
      std::string Slot = "slot " + std::to_string(P);
      if (M.Merges[P] != Plan.NumWorkers)
        return fail(M, Slot + " cleared with " + std::to_string(M.Merges[P]) +
                           " of " + std::to_string(Plan.NumWorkers) +
                           " merges");
      if (Region.slot(P)->Poisoned.load())
        return fail(M, Slot + " cleared while poisoned");
      if (Cb.periodDoomed(P))
        return fail(M, Slot + " cleared while doomed by a misspeculation");
      if (M.Scribbled[P])
        return fail(M, Slot + " cleared with a scribbled header");
      std::vector<IoRecord> Out;
      if (!F.committed(Region.commitSlot(P, nullptr, nullptr, NoRedux, Out))) {
        if (F.next() != P)
          return fail(M, "a failed commit moved the frontier");
        return checkFailure(M);
      }
      if (F.next() != P + 1)
        return fail(M, Slot + " committed but the frontier is at " +
                           std::to_string(F.next()));
      if (++M.Commits[P] > 1)
        return fail(M, Slot + " committed twice");
      std::vector<std::string> Want, Got;
      for (unsigned W = 0; W < Plan.NumWorkers; ++W)
        if (share(W, P))
          Want.push_back(record(W, P));
      for (const IoRecord &R : Out)
        Got.push_back(R.Text);
      std::sort(Got.begin(), Got.end());
      if (Got != Want)
        return fail(M, Slot + " committed " + std::to_string(Got.size()) +
                           " output records, not its workers' " +
                           std::to_string(Want.size()));
    }
  }

  /// Every worker has exited or been reaped: the runtime's final pass and
  /// the join's outcome.
  void join(Model &M) {
    CommitFrontier &F = M.Frontier;
    pump(M, /*WorkersGone=*/true);
    if (!Violation.empty())
      return;
    if (F.pending())
      return fail(M, "a slot still waits after the join");
    uint64_t Before = F.next();
    if (F.finish())
      checkFailure(M);
    if (F.next() != Before)
      return fail(M, "finish moved the frontier");
    if (M.Faulted && !F.failed())
      return fail(M, "the epoch reports success despite a fault");
    if (!M.Faulted && (F.failed() || F.next() != Plan.numSlots()))
      return fail(M, "a fault-free epoch did not commit every slot");
    for (uint64_t P = 0; P < Plan.numSlots(); ++P)
      if (M.Commits[P] != (P < F.next() ? 1u : 0u))
        return fail(M, "slot " + std::to_string(P) + " committed " +
                           std::to_string(M.Commits[P]) + " times");
    // Recovery re-executes [committedEnd, recoveryEnd), inside the epoch,
    // and the next epoch starts at its end: past the epoch's begin, so the
    // loop always makes progress.
    uint64_t From = F.committedEnd(), To = F.recoveryEnd();
    if (From != (F.next() == Plan.numSlots() ? Plan.End
                                             : Plan.periodBegin(F.next())))
      return fail(M, "the committed end is not the frontier's slot");
    if (F.failed() && (To < From || To > Plan.End || To == Plan.Begin))
      return fail(M, "the recovery window [" + std::to_string(From) + ", " +
                         std::to_string(To) + ") leaves the epoch or is stuck");
  }

  void checkFailure(const Model &M) {
    const CommitFrontier::Failure &F = M.Frontier.failure();
    if (F.Reason.empty())
      return fail(M, "a stop without a reason");
    if (F.Code == trace::Reason::Generic)
      return fail(M, "the stop '" + F.Reason + "' has no typed code");
  }

  void fail(const Model &M, const std::string &Why) {
    if (Violation.empty())
      Violation = M.Trace + "-> " + Why;
  }

  EpochPlan Plan;
  bool EagerPump;
  ControlBlock &Cb;
  CheckpointRegion Region;
  bool Created = false;
  uint8_t *Page = nullptr;
  size_t Used = 0; ///< Bytes of the page the slots occupy.
  ReductionRegistry NoRedux;
  std::unordered_set<std::string> Seen;
  std::string Violation;
};

TEST(CommitFrontier, EveryInterleavingAtSmallScopeKeepsTheInvariants) {
  auto Start = std::chrono::steady_clock::now();
  auto Cb = std::make_unique<ControlBlock>();
  uint64_t States = 0;
  for (unsigned W = 1; W <= 3; ++W)
    for (uint64_t S = 1; S <= 3; ++S)
      for (bool Eager : {true, false}) {
        Explorer E(W, S, Eager, *Cb);
        std::string Bad = E.run();
        ASSERT_TRUE(Bad.empty()) << Bad;
        States += E.states();
      }
  double Sec = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - Start)
                   .count();
  std::printf("[ checker  ] %llu states in %.1f s\n",
              static_cast<unsigned long long>(States), Sec);
  EXPECT_LT(Sec, 30.0) << "the exhaustive check must stay tier-1 sized";
}

} // namespace
