//===- bytecode/VM.cpp - Direct-threaded bytecode VM ----------------------===//

#include "bytecode/VM.h"

#include "interp/Semantics.h"
#include "profiling/ProfileCollector.h"
#include "runtime/HeapKind.h"
#include "support/ErrorHandling.h"

#include <cassert>
#include <cstring>

using namespace privateer;
using namespace privateer::bytecode;
using namespace privateer::interp;

#if defined(__GNUC__) || defined(__clang__)
#define PRIVATEER_BC_THREADED 1
#else
#define PRIVATEER_BC_THREADED 0
#endif

namespace {

// Register cells are raw 64-bit patterns, exactly like interp::Cell;
// typing is by use.  memcpy compiles away.
inline int64_t sI(uint64_t V) {
  int64_t R;
  std::memcpy(&R, &V, 8);
  return R;
}
inline uint64_t uI(int64_t V) {
  uint64_t R;
  std::memcpy(&R, &V, 8);
  return R;
}
inline double dF(uint64_t V) {
  double D;
  std::memcpy(&D, &V, 8);
  return D;
}
inline uint64_t uF(double D) {
  uint64_t R;
  std::memcpy(&R, &D, 8);
  return R;
}

} // namespace

VM::VM(const BytecodeProgram &Prog, MemoryManager &MM)
    : Prog(Prog), MM(MM), RegStack(new uint64_t[kRegStackSlots]) {}

void VM::initializeGlobals() {
  GlobalAddrs.resize(Prog.Globals.size(), 0);
  for (size_t Idx = 0; Idx < Prog.Globals.size(); ++Idx) {
    const BcGlobal &G = Prog.Globals[Idx];
    void *P = MM.allocateTagged(G.SizeBytes, G.HasHeap, G.Heap, /*Zero=*/true);
    GlobalAddrs[Idx] = reinterpret_cast<uint64_t>(P);
    if (Obs)
      Obs->globalEvent(Idx, GlobalAddrs[Idx], G.SizeBytes);
  }
  // Frame-entry images depend on the global addresses just assigned.
  FrameInit.resize(Prog.Functions.size());
  for (size_t F = 0; F < Prog.Functions.size(); ++F) {
    const BcFunction &Fn = Prog.Functions[F];
    std::vector<uint64_t> &T = FrameInit[F];
    T.assign(Fn.NumRegs, 0);
    for (const auto &[Reg, Bits] : Fn.ConstInit)
      T[Reg] = Bits;
    for (const auto &[Reg, GlobalIdx] : Fn.GlobalInit)
      T[Reg] = GlobalAddrs[GlobalIdx];
  }
}

uint64_t VM::globalAddress(uint32_t Idx) const {
  if (Idx >= GlobalAddrs.size() || !GlobalAddrs[Idx])
    reportFatalError("global #" + std::to_string(Idx) + " not initialized");
  return GlobalAddrs[Idx];
}

Cell VM::run(const std::string &Name, const std::vector<Cell> &Args) {
  auto It = Prog.FunctionIdx.find(Name);
  if (It == Prog.FunctionIdx.end())
    reportFatalError("no function named @" + Name);
  const BcFunction &Fn = Prog.Functions[It->second];
  if (Args.size() != Fn.NumArgs)
    reportFatalError("call arity mismatch for @" + Fn.Name);
  std::vector<uint64_t> Raw(Args.size());
  for (size_t A = 0; A < Args.size(); ++A)
    Raw[A] = Args[A].Raw;
  Cell C;
  C.Raw = callFunction(It->second, Raw.data(), Raw.size());
  return C;
}

uint64_t VM::callFunction(uint32_t FnIdx, const uint64_t *Args,
                          size_t NumArgs) {
  const BcFunction &Fn = Prog.Functions[FnIdx];
  assert(NumArgs == Fn.NumArgs && "lowering guarantees call arity");
  assert(FrameInit.size() == Prog.Functions.size() &&
         "initializeGlobals must run before execution");
  // Carve the frame out of the register arena (no allocation on the call
  // path) and image it from the per-function template in one memcpy.
  const size_t Base = StackTop;
  if (Base + Fn.NumRegs > kRegStackSlots)
    reportFatalError("register stack exhausted (runaway recursion?)");
  StackTop = Base + Fn.NumRegs;
  Frame Frm;
  Frm.R = RegStack.get() + Base;
  if (Fn.NumRegs)
    std::memcpy(Frm.R, FrameInit[FnIdx].data(),
                sizeof(uint64_t) * Fn.NumRegs);
  for (size_t A = 0; A < NumArgs; ++A)
    Frm.R[A] = Args[A];
  uint64_t Ret = 0;
  ExecStatus St = exec(Fn, Frm, 0, /*StopAtIterEnd=*/false, Ret);
  assert(St == ExecStatus::Returned && "only body runs stop at IterEnd");
  (void)St;
  // §4.4: "a corresponding deallocation is inserted at all function
  // exits" for replaced stack allocations.
  for (auto It = Frm.Allocas.rbegin(); It != Frm.Allocas.rend(); ++It)
    MM.deallocate(*It);
  StackTop = Base;
  return Ret;
}

void VM::trap(const char *Reason) const {
  if (TrapsThrow)
    throw Trap{Reason};
  reportFatalError(Reason);
}

uint32_t VM::runPlannedLoop(const BcFunction &Fn, Frame &Frm,
                            const BcParLoopSite &Site) {
  int64_t Begin = sI(Frm.R[Site.BeginReg]);
  int64_t Bound = sI(Frm.R[Site.BoundReg]);
  uint64_t N = Bound > Begin ? static_cast<uint64_t>(Bound - Begin) : 0;

  if (N > 0) {
    // Dependence tokens are posted in IV space; any iteration below the
    // loop's first IV value was produced before the loop and must not be
    // waited for.
    Runtime::get().setDepFloor(Begin);
    InvocationStats S = Runtime::get().runParallel(
        N, Plan->Options, [&](uint64_t It) {
          Frm.R[Site.IvReg] = uI(Begin + static_cast<int64_t>(It));
          InParallelBody = true;
          uint64_t Dummy = 0;
          ExecStatus St =
              exec(Fn, Frm, Site.BodyEntryPc, /*StopAtIterEnd=*/true, Dummy);
          InParallelBody = false;
          if (St == ExecStatus::Returned)
            reportFatalError("planned DOALL loop returned out of its body");
        });
    Plan->Stats += S;
  }

  // After the loop, the IV holds the first value failing the bound check.
  Frm.R[Site.IvReg] = uI(Bound > Begin ? Bound : Begin);
  return Site.ExitEntryPc;
}

VM::ExecStatus VM::exec(const BcFunction &Fn, Frame &Frm, uint32_t StartPc,
                        bool StopAtIterEnd, uint64_t &RetValue) {
  Runtime &Rt = Runtime::get();
  // One mode read per body/function entry; the mode of a process only
  // changes across fork boundaries, which always enter through a fresh
  // exec invocation.
  const bool Spec = Rt.speculating();
  uint64_t *R = Frm.R;
  const BcInst *Code = Fn.Code.data();
  const BcInst *I = Code + StartPc;
  // The instruction budget is enforced at jumps only — every loop executes
  // one — so straight-line dispatch is just increment + indirect goto.
  // The running count lives in a local, flushed to the Executed member
  // around nested execution (Call, ParLoopEnter) and at every exit.
  uint64_t Exec = Executed;
  // An observed run counts IR instructions instead (EvBlock).
  const uint64_t Bud = Obs ? ~0ull : Budget;

#if PRIVATEER_BC_THREADED
  static const void *Handlers[] = {
#define PRIVATEER_BC_LABEL(N) &&H_##N,
      PRIVATEER_BC_OPCODES(PRIVATEER_BC_LABEL)
#undef PRIVATEER_BC_LABEL
  };
  static_assert(sizeof(Handlers) / sizeof(Handlers[0]) == kNumBcOps);
#define BC_HANDLER(N) H_##N:
#define BC_DISPATCH()                                                         \
  do {                                                                        \
    ++Exec;                                                                   \
    goto *Handlers[I->Op];                                                    \
  } while (0)
#else
#define BC_HANDLER(N) case BcOp::N:
#define BC_DISPATCH() goto dispatch
#endif
#define BC_NEXT()                                                             \
  do {                                                                        \
    ++I;                                                                      \
    BC_DISPATCH();                                                            \
  } while (0)
#define BC_JUMP(Target)                                                       \
  do {                                                                        \
    if (Exec > Bud) [[unlikely]]                                              \
      trap("instruction budget exceeded (runaway loop?)");                    \
    I = Code + (Target);                                                      \
    BC_DISPATCH();                                                            \
  } while (0)
#define BC_SKIP2() /* fused pair: step over the replaced second inst */       \
  do {                                                                        \
    I += 2;                                                                   \
    BC_DISPATCH();                                                            \
  } while (0)

#if PRIVATEER_BC_THREADED
  BC_DISPATCH();
#else
dispatch:
  ++Exec;
  switch (static_cast<BcOp>(I->Op)) {
#endif

  BC_HANDLER(Mov) { R[I->A] = R[I->B]; }
  BC_NEXT();
  BC_HANDLER(MovImm) { R[I->A] = uI(I->Imm); }
  BC_NEXT();

  BC_HANDLER(Alloca) {
    uint64_t Bytes = static_cast<uint64_t>(I->Imm);
    const BcAllocSite &S = Fn.AllocSites[I->B];
    void *P = MM.allocateTagged(Bytes, S.HasHeap, S.Heap, /*Zero=*/false);
    std::memset(P, 0, Bytes);
    if (S.Reduces)
      MM.registerReduction(P, Bytes, S.Elem, S.Op);
    Frm.Allocas.push_back(P);
    R[I->A] = reinterpret_cast<uint64_t>(P);
  }
  BC_NEXT();
  BC_HANDLER(Malloc) {
    uint64_t Bytes = R[I->C];
    const BcAllocSite &S = Fn.AllocSites[I->B];
    void *P = MM.allocateTagged(Bytes, S.HasHeap, S.Heap, /*Zero=*/false);
    if (S.Reduces)
      MM.registerReduction(P, Bytes, S.Elem, S.Op);
    R[I->A] = reinterpret_cast<uint64_t>(P);
  }
  BC_NEXT();
  BC_HANDLER(Free) { MM.deallocate(reinterpret_cast<void *>(R[I->A])); }
  BC_NEXT();

  BC_HANDLER(Load8) {
    std::memcpy(&R[I->A], reinterpret_cast<void *>(R[I->B]), 8);
  }
  BC_NEXT();
  BC_HANDLER(LoadSx) {
    int64_t V = 0;
    std::memcpy(&V, reinterpret_cast<void *>(R[I->B]), I->C);
    unsigned Shift = 64 - 8 * I->C;
    V = (V << Shift) >> Shift;
    R[I->A] = uI(V);
  }
  BC_NEXT();
  BC_HANDLER(LoadZx) {
    uint64_t V = 0;
    std::memcpy(&V, reinterpret_cast<void *>(R[I->B]), I->C);
    R[I->A] = V;
  }
  BC_NEXT();
  BC_HANDLER(Store8) {
    std::memcpy(reinterpret_cast<void *>(R[I->B]), &R[I->A], 8);
  }
  BC_NEXT();
  BC_HANDLER(StoreN) {
    std::memcpy(reinterpret_cast<void *>(R[I->B]), &R[I->A], I->C);
  }
  BC_NEXT();

  BC_HANDLER(Add) { R[I->A] = uI(sem::addWrap(sI(R[I->B]), sI(R[I->C]))); }
  BC_NEXT();
  BC_HANDLER(Sub) { R[I->A] = uI(sem::subWrap(sI(R[I->B]), sI(R[I->C]))); }
  BC_NEXT();
  BC_HANDLER(Mul) { R[I->A] = uI(sem::mulWrap(sI(R[I->B]), sI(R[I->C]))); }
  BC_NEXT();
  BC_HANDLER(SDiv) {
    int64_t D = sI(R[I->C]);
    if (D == 0)
      trap("division by zero");
    R[I->A] = uI(sem::sdivWrap(sI(R[I->B]), D));
  }
  BC_NEXT();
  BC_HANDLER(SRem) {
    int64_t D = sI(R[I->C]);
    if (D == 0)
      trap("remainder by zero");
    R[I->A] = uI(sem::sremWrap(sI(R[I->B]), D));
  }
  BC_NEXT();
  BC_HANDLER(And) { R[I->A] = R[I->B] & R[I->C]; }
  BC_NEXT();
  BC_HANDLER(Or) { R[I->A] = R[I->B] | R[I->C]; }
  BC_NEXT();
  BC_HANDLER(Xor) { R[I->A] = R[I->B] ^ R[I->C]; }
  BC_NEXT();
  BC_HANDLER(Shl) { R[I->A] = uI(sem::shlWrap(sI(R[I->B]), sI(R[I->C]))); }
  BC_NEXT();
  BC_HANDLER(Shr) { R[I->A] = uI(sem::shrLogical(sI(R[I->B]), sI(R[I->C]))); }
  BC_NEXT();

  BC_HANDLER(AddImm) { R[I->A] = uI(sem::addWrap(sI(R[I->B]), I->Imm)); }
  BC_NEXT();
  BC_HANDLER(SubImm) { R[I->A] = uI(sem::subWrap(sI(R[I->B]), I->Imm)); }
  BC_NEXT();
  BC_HANDLER(MulImm) { R[I->A] = uI(sem::mulWrap(sI(R[I->B]), I->Imm)); }
  BC_NEXT();
  BC_HANDLER(SDivImm) {
    if (I->Imm == 0)
      trap("division by zero");
    R[I->A] = uI(sem::sdivWrap(sI(R[I->B]), I->Imm));
  }
  BC_NEXT();
  BC_HANDLER(SRemImm) {
    if (I->Imm == 0)
      trap("remainder by zero");
    R[I->A] = uI(sem::sremWrap(sI(R[I->B]), I->Imm));
  }
  BC_NEXT();
  BC_HANDLER(AndImm) { R[I->A] = R[I->B] & uI(I->Imm); }
  BC_NEXT();
  BC_HANDLER(OrImm) { R[I->A] = R[I->B] | uI(I->Imm); }
  BC_NEXT();
  BC_HANDLER(XorImm) { R[I->A] = R[I->B] ^ uI(I->Imm); }
  BC_NEXT();
  BC_HANDLER(ShlImm) { R[I->A] = uI(sem::shlWrap(sI(R[I->B]), I->Imm)); }
  BC_NEXT();
  BC_HANDLER(ShrImm) { R[I->A] = uI(sem::shrLogical(sI(R[I->B]), I->Imm)); }
  BC_NEXT();

  BC_HANDLER(FAdd) { R[I->A] = uF(dF(R[I->B]) + dF(R[I->C])); }
  BC_NEXT();
  BC_HANDLER(FSub) { R[I->A] = uF(dF(R[I->B]) - dF(R[I->C])); }
  BC_NEXT();
  BC_HANDLER(FMul) { R[I->A] = uF(dF(R[I->B]) * dF(R[I->C])); }
  BC_NEXT();
  BC_HANDLER(FDiv) { R[I->A] = uF(dF(R[I->B]) / dF(R[I->C])); }
  BC_NEXT();

  BC_HANDLER(SiToFp) { R[I->A] = uF(static_cast<double>(sI(R[I->B]))); }
  BC_NEXT();
  BC_HANDLER(FpToSi) { R[I->A] = uI(sem::fpToSiSat(dF(R[I->B]))); }
  BC_NEXT();

  BC_HANDLER(CmpEq) { R[I->A] = R[I->B] == R[I->C] ? 1 : 0; }
  BC_NEXT();
  BC_HANDLER(CmpNe) { R[I->A] = R[I->B] != R[I->C] ? 1 : 0; }
  BC_NEXT();
  BC_HANDLER(CmpLt) { R[I->A] = sI(R[I->B]) < sI(R[I->C]) ? 1 : 0; }
  BC_NEXT();
  BC_HANDLER(CmpLe) { R[I->A] = sI(R[I->B]) <= sI(R[I->C]) ? 1 : 0; }
  BC_NEXT();
  BC_HANDLER(CmpGt) { R[I->A] = sI(R[I->B]) > sI(R[I->C]) ? 1 : 0; }
  BC_NEXT();
  BC_HANDLER(CmpGe) { R[I->A] = sI(R[I->B]) >= sI(R[I->C]) ? 1 : 0; }
  BC_NEXT();

  BC_HANDLER(CmpEqImm) { R[I->A] = sI(R[I->B]) == I->Imm ? 1 : 0; }
  BC_NEXT();
  BC_HANDLER(CmpNeImm) { R[I->A] = sI(R[I->B]) != I->Imm ? 1 : 0; }
  BC_NEXT();
  BC_HANDLER(CmpLtImm) { R[I->A] = sI(R[I->B]) < I->Imm ? 1 : 0; }
  BC_NEXT();
  BC_HANDLER(CmpLeImm) { R[I->A] = sI(R[I->B]) <= I->Imm ? 1 : 0; }
  BC_NEXT();
  BC_HANDLER(CmpGtImm) { R[I->A] = sI(R[I->B]) > I->Imm ? 1 : 0; }
  BC_NEXT();
  BC_HANDLER(CmpGeImm) { R[I->A] = sI(R[I->B]) >= I->Imm ? 1 : 0; }
  BC_NEXT();

  BC_HANDLER(FCmpEq) { R[I->A] = dF(R[I->B]) == dF(R[I->C]) ? 1 : 0; }
  BC_NEXT();
  BC_HANDLER(FCmpNe) { R[I->A] = dF(R[I->B]) != dF(R[I->C]) ? 1 : 0; }
  BC_NEXT();
  BC_HANDLER(FCmpLt) { R[I->A] = dF(R[I->B]) < dF(R[I->C]) ? 1 : 0; }
  BC_NEXT();
  BC_HANDLER(FCmpLe) { R[I->A] = dF(R[I->B]) <= dF(R[I->C]) ? 1 : 0; }
  BC_NEXT();
  BC_HANDLER(FCmpGt) { R[I->A] = dF(R[I->B]) > dF(R[I->C]) ? 1 : 0; }
  BC_NEXT();
  BC_HANDLER(FCmpGe) { R[I->A] = dF(R[I->B]) >= dF(R[I->C]) ? 1 : 0; }
  BC_NEXT();

  BC_HANDLER(Select) {
    R[I->A] = R[I->B] != 0 ? R[I->C] : R[static_cast<uint16_t>(I->Imm)];
  }
  BC_NEXT();

  BC_HANDLER(Jmp) { BC_JUMP(I->Imm); }
  BC_HANDLER(JmpIfZ) {
    if (R[I->A] == 0)
      BC_JUMP(I->Imm);
  }
  BC_NEXT();
  BC_HANDLER(JmpIfNZ) {
    if (R[I->A] != 0)
      BC_JUMP(I->Imm);
  }
  BC_NEXT();

  BC_HANDLER(Ret) {
    Executed = Exec;
    RetValue = I->C ? R[I->A] : 0;
    return ExecStatus::Returned;
  }

  BC_HANDLER(Call) {
    const BcCallSite &CS = Fn.CallSites[I->Imm];
    const uint16_t *ArgRegs = Fn.RegPool.data() + CS.ArgStart;
    uint64_t Small[16];
    std::vector<uint64_t> Big;
    uint64_t *Args = Small;
    if (CS.ArgCount > 16) {
      Big.resize(CS.ArgCount);
      Args = Big.data();
    }
    for (uint16_t A = 0; A < CS.ArgCount; ++A)
      Args[A] = R[ArgRegs[A]];
    Executed = Exec;
    uint64_t RV = callFunction(CS.Callee, Args, CS.ArgCount);
    Exec = Executed;
    if (I->C)
      R[I->A] = RV;
  }
  BC_NEXT();

  BC_HANDLER(Print) {
    const BcPrintSite &PS = Fn.PrintSites[I->Imm];
    std::vector<Cell> Args(PS.ArgCount);
    for (uint16_t A = 0; A < PS.ArgCount; ++A)
      Args[A].Raw = R[Fn.RegPool[PS.ArgStart + A]];
    std::string Out = sem::formatPrintedText(PS.Format, Args);
    Rt.deferPrintf("%s", Out.c_str());
  }
  BC_NEXT();

  // The five per-heap-class separation checks: the paper's single
  // mask-AND+compare (§5.1), with the expected tag bits folded into Imm.
#define BC_CHECKHEAP_BODY()                                                   \
  do {                                                                        \
    if (Spec) {                                                               \
      Rt.countSeparationCheck();                                              \
      if ((R[I->A] & kHeapTagMask) != static_cast<uint64_t>(I->Imm))          \
        Rt.misspecAbort(                                                      \
            "separation check failed: pointer outside assumed heap");         \
    }                                                                         \
  } while (0)
  BC_HANDLER(CheckHeapRo) { BC_CHECKHEAP_BODY(); }
  BC_NEXT();
  BC_HANDLER(CheckHeapPrivate) { BC_CHECKHEAP_BODY(); }
  BC_NEXT();
  BC_HANDLER(CheckHeapRedux) { BC_CHECKHEAP_BODY(); }
  BC_NEXT();
  BC_HANDLER(CheckHeapShortLived) { BC_CHECKHEAP_BODY(); }
  BC_NEXT();
  BC_HANDLER(CheckHeapUnrestricted) { BC_CHECKHEAP_BODY(); }
  BC_NEXT();
#undef BC_CHECKHEAP_BODY

  BC_HANDLER(PrivRead) {
    if (Spec) {
      uint64_t Addr = R[I->A];
      if ((Addr & kHeapTagMask) !=
          (heapTag(HeapKind::Private) << kHeapTagShift))
        Rt.misspecAbort("private_read of a pointer outside the private heap");
      Rt.privateReadTagged(Addr, static_cast<size_t>(I->Imm));
    }
  }
  BC_NEXT();
  BC_HANDLER(PrivWrite) {
    if (Spec) {
      uint64_t Addr = R[I->A];
      if ((Addr & kHeapTagMask) !=
          (heapTag(HeapKind::Private) << kHeapTagShift))
        Rt.misspecAbort(
            "private_write of a pointer outside the private heap");
      Rt.privateWriteTagged(Addr, static_cast<size_t>(I->Imm));
    }
  }
  BC_NEXT();
  BC_HANDLER(SpecEq) {
    if (Spec && R[I->A] != R[I->B])
      Rt.misspecAbort("value prediction failed");
  }
  BC_NEXT();

  BC_HANDLER(ParLoopEnter) {
    if (Plan && !InParallelBody) {
      Executed = Exec;
      uint32_t Cont = runPlannedLoop(Fn, Frm, Fn.ParSites.front());
      Exec = Executed;
      BC_JUMP(Cont);
    }
  }
  BC_NEXT();
  BC_HANDLER(IterEnd) {
    if (StopAtIterEnd) {
      Executed = Exec;
      RetValue = 0;
      return ExecStatus::IterEnded;
    }
    BC_JUMP(I->Imm);
  }

  // Fused superinstructions (see bytecode::fusePairs): each executes the
  // original pair's effects in order — including the first instruction's
  // register write, which later code may read — then either takes the
  // fused branch or steps over the replaced second instruction.
#define BC_CMPJZ_BODY(Cond, Target)                                           \
  do {                                                                        \
    uint64_t V = (Cond) ? 1 : 0;                                              \
    R[I->A] = V;                                                              \
    if (V == 0)                                                               \
      BC_JUMP(Target);                                                        \
    BC_SKIP2();                                                               \
  } while (0)
  BC_HANDLER(CmpEqJz) { BC_CMPJZ_BODY(R[I->B] == R[I->C], I->Imm); }
  BC_HANDLER(CmpNeJz) { BC_CMPJZ_BODY(R[I->B] != R[I->C], I->Imm); }
  BC_HANDLER(CmpLtJz) { BC_CMPJZ_BODY(sI(R[I->B]) < sI(R[I->C]), I->Imm); }
  BC_HANDLER(CmpLeJz) { BC_CMPJZ_BODY(sI(R[I->B]) <= sI(R[I->C]), I->Imm); }
  BC_HANDLER(CmpGtJz) { BC_CMPJZ_BODY(sI(R[I->B]) > sI(R[I->C]), I->Imm); }
  BC_HANDLER(CmpGeJz) { BC_CMPJZ_BODY(sI(R[I->B]) >= sI(R[I->C]), I->Imm); }
  BC_HANDLER(CmpEqImmJz) { BC_CMPJZ_BODY(sI(R[I->B]) == I->Imm, I->C); }
  BC_HANDLER(CmpNeImmJz) { BC_CMPJZ_BODY(sI(R[I->B]) != I->Imm, I->C); }
  BC_HANDLER(CmpLtImmJz) { BC_CMPJZ_BODY(sI(R[I->B]) < I->Imm, I->C); }
  BC_HANDLER(CmpLeImmJz) { BC_CMPJZ_BODY(sI(R[I->B]) <= I->Imm, I->C); }
  BC_HANDLER(CmpGtImmJz) { BC_CMPJZ_BODY(sI(R[I->B]) > I->Imm, I->C); }
  BC_HANDLER(CmpGeImmJz) { BC_CMPJZ_BODY(sI(R[I->B]) >= I->Imm, I->C); }
#undef BC_CMPJZ_BODY

  BC_HANDLER(AddLoad8) {
    uint64_t P = uI(sem::addWrap(sI(R[I->B]), sI(R[I->C])));
    R[static_cast<uint16_t>(I->Imm)] = P;
    std::memcpy(&R[I->A], reinterpret_cast<void *>(P), 8);
  }
  BC_SKIP2();
  BC_HANDLER(AddImmLoad8) {
    uint64_t P = uI(sem::addWrap(sI(R[I->B]), I->Imm));
    R[I->C] = P;
    std::memcpy(&R[I->A], reinterpret_cast<void *>(P), 8);
  }
  BC_SKIP2();
  BC_HANDLER(AddStore8) {
    uint64_t P = uI(sem::addWrap(sI(R[I->B]), sI(R[I->C])));
    R[static_cast<uint16_t>(I->Imm)] = P;
    std::memcpy(reinterpret_cast<void *>(P), &R[I->A], 8);
  }
  BC_SKIP2();
  BC_HANDLER(AddImmStore8) {
    uint64_t P = uI(sem::addWrap(sI(R[I->B]), I->Imm));
    R[I->C] = P;
    std::memcpy(reinterpret_cast<void *>(P), &R[I->A], 8);
  }
  BC_SKIP2();

  BC_HANDLER(PostDep) {
    Rt.postDep(R[I->A], static_cast<uint32_t>(I->Imm), R[I->B]);
  }
  BC_NEXT();
  BC_HANDLER(WaitDep) {
    R[I->A] = Rt.waitDep(R[I->B], static_cast<uint32_t>(I->Imm));
  }
  BC_NEXT();

  // Training-run events (profiling lowering only, so Obs is set).
  BC_HANDLER(EvBlock) {
    IrExecuted += I->C;
    if (IrExecuted > Budget) [[unlikely]]
      trap("instruction budget exceeded (runaway loop?)");
    Obs->blockEvent(I->Imm, R[I->A]);
    R[I->A] = uI(I->Imm);
  }
  BC_NEXT();
  BC_HANDLER(EvLoad) { Obs->loadEvent(I->Imm, R[I->A], I->C); }
  BC_NEXT();
  BC_HANDLER(EvStore) { Obs->storeEvent(I->Imm, R[I->A], I->C); }
  BC_NEXT();
  BC_HANDLER(EvAlloc) { Obs->allocEvent(I->Imm, R[I->A], R[I->B]); }
  BC_NEXT();
  BC_HANDLER(EvFree) { Obs->freeEvent(R[I->A]); }
  BC_NEXT();
  BC_HANDLER(EvCall) { Obs->callEvent(I->Imm); }
  BC_NEXT();
  BC_HANDLER(EvReturn) { Obs->returnEvent(); }
  BC_NEXT();

#if !PRIVATEER_BC_THREADED
  }
  PRIVATEER_UNREACHABLE("bad bytecode opcode");
#endif
#undef BC_HANDLER
#undef BC_DISPATCH
#undef BC_NEXT
#undef BC_JUMP
#undef BC_SKIP2
}
