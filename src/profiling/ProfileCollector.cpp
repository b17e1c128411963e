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

ProfileCollector::BlockInfo &
ProfileCollector::blockInfo(const BasicBlock *B) {
  auto [It, Inserted] = Blocks.try_emplace(B);
  BlockInfo &BI = It->second;
  if (!Inserted)
    return BI;
  if (const Loop *L = FA.loops(B->parent()).loopFor(B); L && L->header() == B)
    BI.Heads = L;
  return BI;
}

const ProfileCollector::Activation *
ProfileCollector::currentActivation(const Loop *L) const {
  for (auto It = ActivationStack.rbegin(); It != ActivationStack.rend();
       ++It)
    if (It->L == L)
      return &*It;
  return nullptr;
}

uint32_t ProfileCollector::currentContext() {
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
    CtxNode N{Ctx, 1, A.L, A.Id, A.Iteration};
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

void ProfileCollector::release(uint32_t Ctx, uint32_t N) {
  while (Ctx) {
    assert(Contexts[Ctx].Refs >= N && "context released more than held");
    if ((Contexts[Ctx].Refs -= N) != 0)
      return;
    FreeContexts.push_back(Ctx);
    Ctx = Contexts[Ctx].Parent;
    N = 1;
  }
}

const ObjectKey *ProfileCollector::intern(ObjectKey K) {
  return &*P.Objects.insert(std::move(K)).first;
}

void ProfileCollector::noteObject(const Instruction *I, InstRec &R,
                                  uint64_t Addr) {
  auto K = AddrMap.lookup(Addr);
  if (!K || *K == R.LastObj)
    return;
  R.LastObj = *K;
  P.InstObjects[I].insert(**K);
}

ProfileCollector::ShadowBlock *ProfileCollector::shadowBlock(uint64_t Addr,
                                                             bool Create) {
  uint64_t Key = Addr / (kShadowMask + 1);
  if (Key == LastShadowKey)
    return LastShadow;
  auto It = Shadow.find(Key);
  if (It == Shadow.end()) {
    if (!Create)
      return nullptr;
    It = Shadow.emplace(Key, std::make_unique<ShadowBlock>()).first;
  }
  LastShadowKey = Key;
  return LastShadow = It->second.get();
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
}

void ProfileCollector::onAlloc(const Instruction *Site, uint64_t Addr,
                               uint64_t Bytes) {
  ++Allocs;
  ObjectKey K;
  K.AllocSite = Site;
  K.Context = contextString();
  const ObjectKey *Obj = intern(std::move(K));
  AddrMap.insert(Addr, Addr + (Bytes ? Bytes : 1), Obj);
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
    auto &Counts = P.Lifetime[{*A.Obj, N.L}];
    ++Counts.first;
    const Activation *Cur = FreedNow ? currentActivation(N.L) : nullptr;
    if (!Cur || Cur->Id != N.ActivationId || Cur->Iteration != N.Iteration)
      ++Counts.second;
  }
}

void ProfileCollector::onFree(const Instruction *, uint64_t Addr) {
  auto It = LiveAllocs.find(Addr);
  if (It == LiveAllocs.end())
    return;
  countLifetime(It->second, /*FreedNow=*/true);
  auto Interval = AddrMap.lookupInterval(Addr);
  if (Interval)
    AddrMap.erase(Interval->Lo, Interval->Hi);
  release(It->second.Ctx, 1);
  LiveAllocs.erase(It);
}

void ProfileCollector::noteFlowDeps(const Instruction *I, WriteRec W,
                                    uint64_t Run) {
  // Does this read observe a value written in an earlier iteration of
  // some active loop?  Walk the writer's context outwards, comparing each
  // loop's entry with its innermost current activation.
  const Instruction *Src = StoreInsts[W.Store - 1];
  for (uint32_t C = W.Ctx; C; C = Contexts[C].Parent) {
    const CtxNode &N = Contexts[C];
    const Activation *Cur = currentActivation(N.L);
    if (!Cur || Cur->Id != N.ActivationId)
      continue;
    // A live activation still in the writer's iteration means every
    // activation below it is too: nothing further out can carry.
    if (Cur->Iteration == N.Iteration)
      break;
    FlowDep D{Src, I};
    DepDistance &DS = P.DepDistances[{N.L, D}];
    if (!DS.Samples)
      P.FlowDeps[N.L].insert(D);
    uint64_t Dist = Cur->Iteration - N.Iteration;
    DS.Min = std::min(DS.Min, Dist);
    DS.Max = std::max(DS.Max, Dist);
    DS.Samples += Run;
  }
}

void ProfileCollector::onLoad(const Instruction *I, uint64_t Addr,
                              uint64_t Bytes) {
  ++Loads;
  InstRec &R = Insts[I];
  noteObject(I, R, Addr);

  // Memory flow-dependence profiling, once per run of bytes with the same
  // last writer (each byte still counts as one sample).
  WriteRec Prev;
  uint64_t Run = 0;
  auto Flush = [&] {
    if (Run && Prev.Store)
      noteFlowDeps(I, Prev, Run);
  };
  const ShadowBlock *SB = nullptr;
  for (uint64_t B = 0; B < Bytes; ++B) {
    if (B == 0 || ((Addr + B) & kShadowMask) == 0)
      SB = shadowBlock(Addr + B, /*Create=*/false);
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
                           [&](const PredRec &PR) { return PR.L == A.L; });
    if (It == R.Preds.end()) {
      R.Preds.push_back(PredRec{A.L});
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

void ProfileCollector::onStore(const Instruction *I, uint64_t Addr,
                               uint64_t Bytes) {
  ++Stores;
  InstRec &R = Insts[I];
  noteObject(I, R, Addr);
  if (!R.StoreId) {
    StoreInsts.push_back(I);
    R.StoreId = static_cast<uint32_t>(StoreInsts.size());
  }
  WriteRec W{R.StoreId, currentContext()};
  retain(W.Ctx, static_cast<uint32_t>(Bytes));
  // Drop the overwritten records' contexts, once per run of equal ones.
  uint32_t OldCtx = 0, Run = 0;
  ShadowBlock *SB = nullptr;
  for (uint64_t B = 0; B < Bytes; ++B) {
    if (B == 0 || ((Addr + B) & kShadowMask) == 0)
      SB = shadowBlock(Addr + B, /*Create=*/true);
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

void ProfileCollector::onBlockEnter(const BasicBlock *B,
                                    const BasicBlock *From) {
  // Branch bias (control-speculation profile).
  if (const Instruction *T = From ? From->terminator() : nullptr;
      T && T->opcode() == Opcode::CondBr) {
    std::pair<uint64_t, uint64_t> *&Counts = blockInfo(From).Branch;
    if (!Counts)
      Counts = &P.Branches[T];
    ++Counts->second;
    if (T->blockRef(0) == B)
      ++Counts->first;
  }

  // Leave loops this block is outside of (within the current frame).
  size_t Base = FrameBases.back();
  while (ActivationStack.size() > Base &&
         !ActivationStack.back().L->contains(B)) {
    release(ActivationStack.back().Ctx, 1);
    ActivationStack.pop_back();
  }

  // Enter or iterate a loop whose header this is.
  const BlockInfo &BI = blockInfo(B);
  if (const Loop *L = BI.Heads) {
    bool BackEdge = ActivationStack.size() > Base &&
                    ActivationStack.back().L == L && From &&
                    L->contains(From);
    if (BackEdge) {
      Activation &A = ActivationStack.back();
      ++A.Iteration;
      release(A.Ctx, 1);
      A.Ctx = 0;
    } else {
      ActivationStack.push_back(
          Activation{L, &P.Loops[L], NextActivationId++, 0, 0});
      ++ActivationStack.back().Stats->Invocations;
    }
    ++ActivationStack.back().Stats->Iterations;
  }

  // Execution weight: this block's work counts toward every active loop,
  // across frames (callee work accrues to caller loops).
  for (Activation &A : ActivationStack)
    A.Stats->Weight += B->instructions().size();
}

void ProfileCollector::onCall(const Instruction *Site, const Function *) {
  CallStack.push_back(Site);
  FrameBases.push_back(ActivationStack.size());
}

void ProfileCollector::onReturn(const Function *) {
  for (size_t K = FrameBases.back(); K < ActivationStack.size(); ++K)
    release(ActivationStack[K].Ctx, 1);
  ActivationStack.resize(FrameBases.back());
  FrameBases.pop_back();
  CallStack.pop_back();
}

Profile ProfileCollector::finish() {
  // Objects never freed are not short-lived for any loop that was active
  // at their allocation.
  for (const auto &[Addr, Alloc] : LiveAllocs)
    countLifetime(Alloc, /*FreedNow=*/false);
  LiveAllocs.clear();

  // Materialize surviving value predictions (sign-extended like Load).
  for (const auto &[I, R] : Insts)
    for (const PredRec &PR : R.Preds) {
      if (!PR.Seen || PR.Unpredictable)
        continue;
      int64_t V = 0;
      std::memcpy(&V, &PR.Raw, 8);
      if (PR.Bytes < 8) {
        unsigned Shift = 64 - 8 * static_cast<unsigned>(PR.Bytes);
        V = (V << Shift) >> Shift;
      }
      P.Predictables[{I, PR.L}] = PredictableLoad{I, PR.Addr, PR.Bytes, V};
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
  ProfileCollector Collector(FA);
  interp::PlainMemoryManager MM;
  bytecode::ProfileSites Sites;
  std::unique_ptr<bytecode::BytecodeProgram> BP;
  if (Engine == ExecEngine::Bytecode) {
    bytecode::LowerOptions LO;
    LO.Profile = &Sites;
    BP = bytecode::lowerModule(M, LO, R.EngineNote);
  }
  R.EngineUsed = BP ? ExecEngine::Bytecode : ExecEngine::Interp;
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
    Vm.setObserver(&Collector, &Sites);
    Train(Vm);
  } else {
    interp::Interpreter Interp(M, MM, &Collector);
    Train(Interp);
  }
  Rt.setSequentialOutput(Saved);
  R.Loads = Collector.Loads;
  R.Stores = Collector.Stores;
  R.Allocs = Collector.Allocs;
  R.WallMs = (wallSeconds() - T0) * 1e3;
  return R;
}
