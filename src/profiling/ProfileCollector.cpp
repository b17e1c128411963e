//===- profiling/ProfileCollector.cpp -------------------------------------===//

#include "profiling/ProfileCollector.h"

#include "bytecode/Lower.h"
#include "bytecode/VM.h"
#include "support/ErrorHandling.h"
#include "support/Timing.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace privateer;
using namespace privateer::profiling;
using namespace privateer::analysis;
using namespace privateer::ir;

std::string ObjectKey::str() const {
  if (Global)
    return "@" + Global->name();
  std::string S = "site:";
  if (AllocSite) {
    S += AllocSite->parent()->parent()->name() + "/" +
         AllocSite->parent()->name() + "/%" + AllocSite->name();
  }
  if (!Context.empty())
    S += " ctx[" + Context + "]";
  return S;
}

ProfileCollector::ProfileCollector(const FunctionAnalyses &FA,
                                   const bytecode::ProfileSites *Sites)
    : FA(FA) {
  if (!Sites) {
    addBlock(nullptr); // id 0: the null block a function is entered from
    return;
  }
  Globals = Sites->Globals;
  for (const BasicBlock *B : Sites->Blocks)
    addBlock(B);
  for (const Instruction *I : Sites->Insts)
    InstRecs.push_back(InstRec{I});
}

uint32_t ProfileCollector::addLoop(const Loop *L) {
  if (!L)
    return kNoLoop;
  auto It = LoopIds.find(L);
  if (It != LoopIds.end())
    return It->second;
  uint32_t Parent = addLoop(L->parent());
  LoopRecs.push_back(LoopRec{L, Parent});
  return LoopIds[L] = static_cast<uint32_t>(LoopRecs.size() - 1);
}

void ProfileCollector::addBlock(const BasicBlock *B) {
  BlockRec R;
  if (B) {
    R.B = B;
    R.Size = B->instructions().size();
    const Loop *L = FA.loops(B->parent()).loopFor(B);
    R.Innermost = addLoop(L);
    if (L && L->header() == B)
      R.Heads = R.Innermost;
    if (const Instruction *T = B->terminator();
        T && T->opcode() == Opcode::CondBr)
      R.Taken = T->blockRef(0);
  }
  BlockRecs.push_back(R);
}

uint32_t ProfileCollector::blockId(const BasicBlock *B) {
  auto [It, Inserted] = BlockIds.try_emplace(B, BlockRecs.size());
  if (Inserted)
    addBlock(B);
  return It->second;
}

uint32_t ProfileCollector::siteId(const Instruction *I) {
  auto [It, Inserted] = SiteIds.try_emplace(I, InstRecs.size());
  if (Inserted)
    InstRecs.push_back(InstRec{I});
  return It->second;
}

uint32_t ProfileCollector::internContexts() {
  // Intern the contexts of the activations that have none yet, bottom
  // up: an activation's context exists only if those below it do.
  size_t First = ActivationStack.size();
  while (First > 0 && ActivationStack[First - 1].Ctx == 0)
    --First;
  uint32_t Ctx = First ? ActivationStack[First - 1].Ctx : 0;
  for (size_t K = First; K < ActivationStack.size(); ++K) {
    Activation &A = ActivationStack[K];
    retain(Ctx, 1);
    // The new node's one reference is its live iteration's.
    CtxNode N{Ctx, 1, A.Loop, A.Id, A.Iteration};
    if (FreeContexts.empty()) {
      Contexts.push_back(N);
      Ctx = static_cast<uint32_t>(Contexts.size() - 1);
    } else {
      Ctx = FreeContexts.back();
      FreeContexts.pop_back();
      Contexts[Ctx] = N;
    }
    A.Ctx = Ctx;
  }
  return Ctx;
}

void ProfileCollector::recycle(uint32_t Ctx) {
  FreeContexts.push_back(Ctx);
  release(Contexts[Ctx].Parent, 1);
}

const ObjectKey *ProfileCollector::intern(ObjectKey K) {
  return &*P.Objects.insert(std::move(K)).first;
}

void ProfileCollector::lookupObject(InstRec &R, uint64_t Addr) {
  auto Interval = AddrMap.lookupInterval(Addr);
  if (!Interval)
    return;
  R.ObjLo = Interval->Lo;
  R.ObjHi = Interval->Hi;
  R.ObjGen = MapGen;
  if (Interval->Value == R.LastObj)
    return;
  R.LastObj = Interval->Value;
  P.InstObjects[R.I].insert(*R.LastObj);
}

ProfileCollector::ShadowBlock *
ProfileCollector::findShadow(InstRec &R, uint64_t Key, bool Create) {
  auto &Recent = RecentShadow[Key % RecentShadow.size()];
  if (Recent.first != Key || !Recent.second) {
    auto It = Shadow.find(Key);
    if (It == Shadow.end()) {
      if (!Create)
        return nullptr;
      It = Shadow.emplace(Key, std::make_unique<ShadowBlock>()).first;
    }
    Recent = {Key, It->second.get()};
  }
  R.ShadowKey = Key;
  return R.Shadow = Recent.second;
}

std::string ProfileCollector::contextString() const {
  // "The dynamic context distinguishes dynamic instances of a static
  // instruction by listing the function and loop invocations which
  // enclose that instruction": the call-site chain is the discriminating
  // part (enqueueQ called at line 60 vs line 74 in Figure 2).
  std::string Out;
  for (const Instruction *Site : CallStack) {
    if (!Out.empty())
      Out += ">";
    // Call site identified by caller function and block (most call
    // instructions have no result name).
    Out += Site->parent()->parent()->name() + "/" + Site->parent()->name();
  }
  return Out;
}

void ProfileCollector::onGlobalAlloc(const GlobalVariable *G, uint64_t Addr,
                                     uint64_t Bytes) {
  ObjectKey K;
  K.Global = G;
  P.GlobalBases[G] = Addr;
  AddrMap.insert(Addr, Addr + Bytes, intern(std::move(K)));
  ++MapGen;
}

void ProfileCollector::allocEvent(uint32_t Site, uint64_t Addr,
                                  uint64_t Bytes) {
  ++Allocs;
  ObjectKey K;
  K.AllocSite = InstRecs[Site].I;
  K.Context = contextString();
  const ObjectKey *Obj = intern(std::move(K));
  AddrMap.insert(Addr, Addr + (Bytes ? Bytes : 1), Obj);
  ++MapGen;
  // An alloca's address comes back without a free when its frame returns.
  LiveAlloc &A = LiveAllocs[Addr];
  uint32_t Ctx = currentContext();
  retain(Ctx, 1);
  release(A.Ctx, 1);
  A = LiveAlloc{Obj, Ctx};
}

void ProfileCollector::countLifetime(const LiveAlloc &A, bool FreedNow) {
  // Lifetime verdict per enclosing loop: short-lived iff freed in the
  // same activation and iteration it was allocated in.
  for (uint32_t C = A.Ctx; C; C = Contexts[C].Parent) {
    const CtxNode &N = Contexts[C];
    auto &Counts = Lifetimes[{A.Obj, N.Loop}];
    ++Counts.first;
    const Activation *Cur = FreedNow ? currentActivation(N.Loop) : nullptr;
    if (!Cur || Cur->Id != N.ActivationId || Cur->Iteration != N.Iteration)
      ++Counts.second;
  }
}

void ProfileCollector::freeEvent(uint64_t Addr) {
  auto It = LiveAllocs.find(Addr);
  if (It == LiveAllocs.end())
    return;
  countLifetime(It->second, /*FreedNow=*/true);
  if (auto Interval = AddrMap.lookupInterval(Addr)) {
    AddrMap.erase(Interval->Lo, Interval->Hi);
    ++MapGen;
  }
  release(It->second.Ctx, 1);
  LiveAllocs.erase(It);
}

void ProfileCollector::noteFlowDeps(InstRec &R, WriteRec W, uint64_t Run) {
  // Does this read observe a value written in an earlier iteration of
  // some active loop?  Walk the writer's context outwards, comparing each
  // loop's entry with its innermost current activation.
  for (uint32_t C = W.Ctx; C; C = Contexts[C].Parent) {
    const CtxNode &N = Contexts[C];
    const Activation *Cur = currentActivation(N.Loop);
    if (!Cur || Cur->Id != N.ActivationId)
      continue;
    // A live activation still in the writer's iteration means every
    // activation below it is too: nothing further out can carry.
    if (Cur->Iteration == N.Iteration)
      break;
    if (!R.Dep || R.DepStore != W.Store || R.DepLoop != N.Loop) {
      const Loop *L = LoopRecs[N.Loop].L;
      FlowDep D{InstRecs[W.Store - 1].I, R.I};
      R.Dep = &P.DepDistances[{L, D}];
      R.DepStore = W.Store;
      R.DepLoop = N.Loop;
      if (!R.Dep->Samples)
        P.FlowDeps[L].insert(D);
    }
    uint64_t Dist = Cur->Iteration - N.Iteration;
    R.Dep->Min = std::min(R.Dep->Min, Dist);
    R.Dep->Max = std::max(R.Dep->Max, Dist);
    R.Dep->Samples += Run;
  }
}

void ProfileCollector::loadEvent(uint32_t Site, uint64_t Addr,
                                 uint64_t Bytes) {
  ++Loads;
  InstRec &R = InstRecs[Site];
  noteObject(R, Addr);

  // Memory flow-dependence profiling, once per run of bytes with the same
  // last writer (each byte still counts as one sample).
  WriteRec Prev;
  uint64_t Run = 0;
  auto Flush = [&] {
    if (Run && Prev.Store)
      noteFlowDeps(R, Prev, Run);
  };
  const ShadowBlock *SB = nullptr;
  for (uint64_t B = 0; B < Bytes; ++B) {
    if (B == 0 || ((Addr + B) & kShadowMask) == 0)
      SB = shadowBlock(R, Addr + B, /*Create=*/false);
    WriteRec W = SB ? (*SB)[(Addr + B) & kShadowMask] : WriteRec();
    if (Run && W == Prev) {
      ++Run;
      continue;
    }
    Flush();
    Prev = W;
    Run = 1;
  }
  Flush();

  // Value-prediction profiling: the first execution of this load in each
  // iteration of each active loop.
  uint64_t Raw = 0;
  std::memcpy(&Raw, reinterpret_cast<const void *>(Addr),
              std::min<uint64_t>(Bytes, 8));
  for (const Activation &A : ActivationStack) {
    auto It = std::find_if(R.Preds.begin(), R.Preds.end(),
                           [&](const PredRec &P) { return P.Loop == A.Loop; });
    if (It == R.Preds.end()) {
      R.Preds.push_back(PredRec{A.Loop});
      It = R.Preds.end() - 1;
    }
    PredRec &PR = *It;
    if (PR.Unpredictable)
      continue;
    if (PR.MarkerAct == A.Id && PR.MarkerIter == A.Iteration)
      continue; // Not the first read this iteration.
    PR.MarkerAct = A.Id;
    PR.MarkerIter = A.Iteration;
    if (!PR.Seen) {
      PR.Seen = true;
      PR.Addr = Addr;
      PR.Bytes = Bytes;
      PR.Raw = Raw;
    } else if (PR.Addr != Addr || PR.Bytes != Bytes || PR.Raw != Raw) {
      PR.Unpredictable = true;
    }
  }
}

void ProfileCollector::storeEvent(uint32_t Site, uint64_t Addr,
                                  uint64_t Bytes) {
  ++Stores;
  InstRec &R = InstRecs[Site];
  noteObject(R, Addr);
  WriteRec W{Site + 1, currentContext()};
  retain(W.Ctx, static_cast<uint32_t>(Bytes));
  // Drop the overwritten records' contexts, once per run of equal ones.
  uint32_t OldCtx = 0, Run = 0;
  ShadowBlock *SB = nullptr;
  for (uint64_t B = 0; B < Bytes; ++B) {
    if (B == 0 || ((Addr + B) & kShadowMask) == 0)
      SB = shadowBlock(R, Addr + B, /*Create=*/true);
    WriteRec &Slot = (*SB)[(Addr + B) & kShadowMask];
    if (Slot.Ctx != OldCtx) {
      release(OldCtx, Run);
      OldCtx = Slot.Ctx;
      Run = 0;
    }
    ++Run;
    Slot = W;
  }
  release(OldCtx, Run);
}

void ProfileCollector::popActivation() {
  Activation &A = ActivationStack.back();
  LoopRec &L = LoopRecs[A.Loop];
  L.Stats->Weight += IrCount - A.Start;
  L.Top = A.PrevTop;
  release(A.Ctx, 1);
  ActivationStack.pop_back();
}

void ProfileCollector::blockEvent(uint32_t Block, uint32_t From) {
  ++Blocks;
  const BlockRec &B = BlockRecs[Block];
  BlockRec &F = BlockRecs[From];

  // Branch bias (control-speculation profile).
  if (F.Taken) {
    F.Branch.first += F.Taken == B.B;
    ++F.Branch.second;
  }

  // Leave loops this block is outside of (within the current frame).
  size_t Base = FrameBases.back();
  while (ActivationStack.size() > Base &&
         !contains(ActivationStack.back().Loop, B))
    popActivation();

  // Enter or iterate a loop whose header this is.
  if (B.Heads != kNoLoop) {
    LoopRec &L = LoopRecs[B.Heads];
    if (ActivationStack.size() > Base &&
        ActivationStack.back().Loop == B.Heads && contains(B.Heads, F)) {
      Activation &A = ActivationStack.back();
      ++A.Iteration;
      release(A.Ctx, 1);
      A.Ctx = 0;
    } else {
      if (!L.Stats)
        L.Stats = &P.Loops[L.L];
      ActivationStack.push_back(
          Activation{B.Heads, L.Top, 0, NextActivationId++, 0, IrCount});
      L.Top = static_cast<int32_t>(ActivationStack.size() - 1);
      ++L.Stats->Invocations;
    }
    ++L.Stats->Iterations;
  }

  // Execution weight: every active loop, across frames (callee work
  // accrues to caller loops), counts the IR entered while it is active.
  IrCount += B.Size;
}

void ProfileCollector::returnEvent() {
  while (ActivationStack.size() > FrameBases.back())
    popActivation();
  FrameBases.pop_back();
  CallStack.pop_back();
}

Profile ProfileCollector::finish() {
  // Objects never freed are not short-lived for any loop that was active
  // at their allocation.
  for (const auto &[Addr, Alloc] : LiveAllocs)
    countLifetime(Alloc, /*FreedNow=*/false);
  LiveAllocs.clear();
  for (const auto &[Key, Counts] : Lifetimes)
    P.Lifetime[{*Key.first, LoopRecs[Key.second].L}] = Counts;

  for (const BlockRec &B : BlockRecs)
    if (B.Branch.second)
      P.Branches[B.B->terminator()] = B.Branch;

  // Loops still active have accrued everything entered since they began.
  for (const Activation &A : ActivationStack)
    LoopRecs[A.Loop].Stats->Weight += IrCount - A.Start;

  // Materialize surviving value predictions (sign-extended like Load).
  for (const InstRec &R : InstRecs)
    for (const PredRec &PR : R.Preds) {
      if (!PR.Seen || PR.Unpredictable)
        continue;
      int64_t V = 0;
      std::memcpy(&V, &PR.Raw, 8);
      if (PR.Bytes < 8) {
        unsigned Shift = 64 - 8 * static_cast<unsigned>(PR.Bytes);
        V = (V << Shift) >> Shift;
      }
      P.Predictables[{R.I, LoopRecs[PR.Loop].L}] =
          PredictableLoad{R.I, PR.Addr, PR.Bytes, V};
    }
  return std::move(P);
}

namespace {

/// A stream that swallows everything written to it.  It needs no file
/// descriptor, so the training run's prints cannot fall through to stdout
/// when none is free.
std::FILE *discardStream() {
  static std::FILE *Sink = [] {
    cookie_io_functions_t Fns{};
    Fns.write = [](void *, const char *, size_t N) -> ssize_t {
      return static_cast<ssize_t>(N);
    };
    std::FILE *F = fopencookie(nullptr, "w", Fns);
    if (!F)
      reportFatalError("cannot open the training run's output sink");
    return F;
  }();
  return Sink;
}

} // namespace

TrainingRun profiling::runTrainingProfile(Module &M, const FunctionAnalyses &FA,
                                          const std::string &Entry,
                                          const std::vector<interp::Cell> &Args,
                                          uint64_t Budget, ExecEngine Engine) {
  TrainingRun R;
  double T0 = wallSeconds();
  interp::PlainMemoryManager MM;
  bytecode::ProfileSites Sites;
  std::unique_ptr<bytecode::BytecodeProgram> BP;
  if (Engine == ExecEngine::Bytecode) {
    bytecode::LowerOptions LO;
    LO.Profile = &Sites;
    BP = bytecode::lowerModule(M, LO);
  }
  ProfileCollector Collector(FA, BP ? &Sites : nullptr);
  Runtime &Rt = Runtime::get();
  std::FILE *Saved = Rt.sequentialOutput();
  Rt.setSequentialOutput(discardStream());
  auto Train = [&](auto &Exec) {
    Exec.setInstructionBudget(Budget);
    Exec.setTrapsThrow(true);
    try {
      Exec.initializeGlobals();
      Exec.run(Entry, Args);
      R.Prof = Collector.finish();
    } catch (const interp::Trap &T) {
      R.Trap = T.Reason;
    }
    R.Instructions = Exec.instructionsExecuted();
  };
  if (BP) {
    bytecode::VM Vm(*BP, MM);
    Vm.setCollector(&Collector);
    Train(Vm);
  } else {
    interp::Interpreter Interp(M, MM, &Collector);
    Train(Interp);
  }
  Rt.setSequentialOutput(Saved);
  R.Blocks = Collector.Blocks;
  R.Loads = Collector.Loads;
  R.Stores = Collector.Stores;
  R.Allocs = Collector.Allocs;
  R.WallMs = (wallSeconds() - T0) * 1e3;
  return R;
}
