//===- interp/Interpreter.cpp ---------------------------------------------===//

#include "interp/Interpreter.h"

#include "interp/Semantics.h"
#include "runtime/Runtime.h"
#include "support/ErrorHandling.h"

#include <cinttypes>

using namespace privateer;
using namespace privateer::interp;
using namespace privateer::ir;

Interpreter::Interpreter(Module &M, PlainMemoryManager &MM,
                         InterpObserver *Obs)
    : M(M), MM(MM), Obs(Obs) {}

void Interpreter::initializeGlobals() {
  for (const auto &G : M.globals()) {
    void *P = MM.allocate(G->sizeBytes());
    GlobalAddrs[G.get()] = reinterpret_cast<uint64_t>(P);
    if (Obs)
      Obs->onGlobalAlloc(G.get(), reinterpret_cast<uint64_t>(P),
                         G->sizeBytes());
  }
}

Cell Interpreter::run(const std::string &Name,
                      const std::vector<Cell> &Args) {
  Function *F = M.functionByName(Name);
  if (!F)
    reportFatalError("no function named @" + Name);
  return callFunction(F, Args);
}

Cell Interpreter::eval(const Value *V, Frame &F) const {
  switch (V->kind()) {
  case ValueKind::ConstInt:
    return Cell::fromInt(static_cast<const ConstantInt *>(V)->value());
  case ValueKind::ConstFloat:
    return Cell::fromFloat(static_cast<const ConstantFloat *>(V)->value());
  case ValueKind::Global: {
    auto It = GlobalAddrs.find(static_cast<const GlobalVariable *>(V));
    if (It == GlobalAddrs.end())
      reportFatalError("global '" + V->name() + "' not initialized");
    return Cell::fromPtr(It->second);
  }
  case ValueKind::Argument:
  case ValueKind::Instruction: {
    auto It = F.Values.find(V);
    if (It == F.Values.end())
      reportFatalError("use of undefined value %" + V->name());
    return It->second;
  }
  }
  PRIVATEER_UNREACHABLE("bad value kind");
}

Cell Interpreter::callFunction(Function *F, const std::vector<Cell> &Args) {
  if (Args.size() != F->arguments().size())
    reportFatalError("call arity mismatch for @" + F->name());
  Frame Frm;
  for (size_t I = 0; I < Args.size(); ++I)
    Frm.Values[F->arguments()[I].get()] = Args[I];
  Cell Ret = runBlocks(*F, Frm);
  // §4.4: "a corresponding deallocation is inserted at all function
  // exits" for replaced stack allocations.
  for (auto It = Frm.Allocas.rbegin(); It != Frm.Allocas.rend(); ++It)
    MM.deallocate(*It);
  return Ret;
}

Cell Interpreter::runBlocks(const Function &Fn, Frame &F) {
  BasicBlock *B = Fn.entry();
  const BasicBlock *From = nullptr;

  while (true) {
    if (Obs)
      Obs->onBlockEnter(B, From);

    // Phis first, all reading the pre-transfer state.
    std::vector<std::pair<const Value *, Cell>> PhiUpdates;
    size_t FirstNonPhi = 0;
    const auto &Insts = B->instructions();
    for (; FirstNonPhi < Insts.size(); ++FirstNonPhi) {
      const Instruction &I = *Insts[FirstNonPhi];
      if (I.opcode() != Opcode::Phi)
        break;
      bool Found = false;
      for (unsigned A = 0; A < I.numBlockRefs(); ++A) {
        if (I.blockRef(A) == From) {
          PhiUpdates.emplace_back(&I, eval(I.operand(A), F));
          Found = true;
          break;
        }
      }
      if (!Found)
        reportFatalError("phi in '" + B->name() +
                         "' has no arm for predecessor");
    }
    for (auto &[V, C] : PhiUpdates)
      F.Values[V] = C;
    Executed += PhiUpdates.size();

    for (size_t Idx = FirstNonPhi; Idx < Insts.size(); ++Idx) {
      const Instruction &I = *Insts[Idx];
      if (++Executed > Budget)
        trap("instruction budget exceeded (runaway loop?)");

      if (I.isTerminator()) {
        switch (I.opcode()) {
        case Opcode::Ret:
          return I.numOperands() ? eval(I.operand(0), F) : Cell();
        case Opcode::Br:
          From = B;
          B = I.blockRef(0);
          break;
        case Opcode::CondBr:
          From = B;
          B = eval(I.operand(0), F).asInt() != 0 ? I.blockRef(0)
                                                 : I.blockRef(1);
          break;
        default:
          PRIVATEER_UNREACHABLE("bad terminator");
        }
        break;
      }
      Cell Result = execute(I, F);
      if (I.type() != Type::Void)
        F.Values[&I] = Result;
    }
  }
}

Cell Interpreter::execute(const Instruction &I, Frame &F) {
  switch (I.opcode()) {
  case Opcode::Alloca: {
    void *P = MM.allocate(I.accessBytes());
    F.Allocas.push_back(P);
    if (Obs)
      Obs->onAlloc(&I, reinterpret_cast<uint64_t>(P), I.accessBytes());
    return Cell::fromPtr(reinterpret_cast<uint64_t>(P));
  }
  case Opcode::Malloc: {
    uint64_t Bytes = static_cast<uint64_t>(eval(I.operand(0), F).asInt());
    void *P = MM.allocate(Bytes);
    if (Obs)
      Obs->onAlloc(&I, reinterpret_cast<uint64_t>(P), Bytes);
    return Cell::fromPtr(reinterpret_cast<uint64_t>(P));
  }
  case Opcode::Free: {
    uint64_t P = eval(I.operand(0), F).asPtr();
    if (Obs)
      Obs->onFree(&I, P);
    MM.deallocate(reinterpret_cast<void *>(P));
    return Cell();
  }
  case Opcode::Load: {
    uint64_t Addr = eval(I.operand(0), F).asPtr();
    uint64_t Bytes = I.accessBytes();
    if (Obs)
      Obs->onLoad(&I, Addr, Bytes);
    if (I.type() == Type::F64) { // 8 bytes: the verifier checks it.
      double V;
      std::memcpy(&V, reinterpret_cast<void *>(Addr), 8);
      return Cell::fromFloat(V);
    }
    // Integer/pointer: sign-extend sub-word loads (C-style int fields).
    int64_t V = 0;
    std::memcpy(&V, reinterpret_cast<void *>(Addr), Bytes);
    if (Bytes < 8 && I.type() == Type::I64) {
      unsigned Shift = 64 - 8 * Bytes;
      V = (V << Shift) >> Shift;
    }
    return Cell::fromInt(V);
  }
  case Opcode::Store: {
    Cell V = eval(I.operand(0), F);
    uint64_t Addr = eval(I.operand(1), F).asPtr();
    uint64_t Bytes = I.accessBytes();
    if (Obs)
      Obs->onStore(&I, Addr, Bytes);
    std::memcpy(reinterpret_cast<void *>(Addr), &V.Raw, Bytes);
    return Cell();
  }
  case Opcode::Gep:
    return Cell::fromPtr(eval(I.operand(0), F).asPtr() +
                         static_cast<uint64_t>(eval(I.operand(1), F).asInt()));
  case Opcode::Add:
    return Cell::fromInt(sem::addWrap(eval(I.operand(0), F).asInt(),
                                      eval(I.operand(1), F).asInt()));
  case Opcode::Sub:
    return Cell::fromInt(sem::subWrap(eval(I.operand(0), F).asInt(),
                                      eval(I.operand(1), F).asInt()));
  case Opcode::Mul:
    return Cell::fromInt(sem::mulWrap(eval(I.operand(0), F).asInt(),
                                      eval(I.operand(1), F).asInt()));
  case Opcode::SDiv: {
    int64_t D = eval(I.operand(1), F).asInt();
    if (D == 0)
      trap("division by zero");
    return Cell::fromInt(sem::sdivWrap(eval(I.operand(0), F).asInt(), D));
  }
  case Opcode::SRem: {
    int64_t D = eval(I.operand(1), F).asInt();
    if (D == 0)
      trap("remainder by zero");
    return Cell::fromInt(sem::sremWrap(eval(I.operand(0), F).asInt(), D));
  }
  case Opcode::And:
    return Cell::fromInt(eval(I.operand(0), F).asInt() &
                         eval(I.operand(1), F).asInt());
  case Opcode::Or:
    return Cell::fromInt(eval(I.operand(0), F).asInt() |
                         eval(I.operand(1), F).asInt());
  case Opcode::Xor:
    return Cell::fromInt(eval(I.operand(0), F).asInt() ^
                         eval(I.operand(1), F).asInt());
  case Opcode::Shl:
    return Cell::fromInt(sem::shlWrap(eval(I.operand(0), F).asInt(),
                                      eval(I.operand(1), F).asInt()));
  case Opcode::Shr:
    return Cell::fromInt(sem::shrLogical(eval(I.operand(0), F).asInt(),
                                         eval(I.operand(1), F).asInt()));
  case Opcode::FAdd:
    return Cell::fromFloat(eval(I.operand(0), F).asFloat() +
                           eval(I.operand(1), F).asFloat());
  case Opcode::FSub:
    return Cell::fromFloat(eval(I.operand(0), F).asFloat() -
                           eval(I.operand(1), F).asFloat());
  case Opcode::FMul:
    return Cell::fromFloat(eval(I.operand(0), F).asFloat() *
                           eval(I.operand(1), F).asFloat());
  case Opcode::FDiv:
    return Cell::fromFloat(eval(I.operand(0), F).asFloat() /
                           eval(I.operand(1), F).asFloat());
  case Opcode::SiToFp:
    return Cell::fromFloat(
        static_cast<double>(eval(I.operand(0), F).asInt()));
  case Opcode::FpToSi:
    return Cell::fromInt(sem::fpToSiSat(eval(I.operand(0), F).asFloat()));
  case Opcode::ICmp: {
    int64_t A = eval(I.operand(0), F).asInt();
    int64_t B = eval(I.operand(1), F).asInt();
    bool R = false;
    switch (I.cmpPred()) {
    case CmpPred::Eq:
      R = A == B;
      break;
    case CmpPred::Ne:
      R = A != B;
      break;
    case CmpPred::Lt:
      R = A < B;
      break;
    case CmpPred::Le:
      R = A <= B;
      break;
    case CmpPred::Gt:
      R = A > B;
      break;
    case CmpPred::Ge:
      R = A >= B;
      break;
    }
    return Cell::fromInt(R ? 1 : 0);
  }
  case Opcode::FCmp: {
    double A = eval(I.operand(0), F).asFloat();
    double B = eval(I.operand(1), F).asFloat();
    bool R = false;
    switch (I.cmpPred()) {
    case CmpPred::Eq:
      R = A == B;
      break;
    case CmpPred::Ne:
      R = A != B;
      break;
    case CmpPred::Lt:
      R = A < B;
      break;
    case CmpPred::Le:
      R = A <= B;
      break;
    case CmpPred::Gt:
      R = A > B;
      break;
    case CmpPred::Ge:
      R = A >= B;
      break;
    }
    return Cell::fromInt(R ? 1 : 0);
  }
  case Opcode::Select:
    return eval(I.operand(0), F).asInt() != 0 ? eval(I.operand(1), F)
                                              : eval(I.operand(2), F);
  case Opcode::Call: {
    std::vector<Cell> Args;
    Args.reserve(I.numOperands());
    for (unsigned A = 0; A < I.numOperands(); ++A)
      Args.push_back(eval(I.operand(A), F));
    if (Obs)
      Obs->onCall(&I, I.callee());
    Cell R = callFunction(I.callee(), Args);
    if (Obs)
      Obs->onReturn(I.callee());
    return R;
  }
  case Opcode::Print:
    formatPrint(I, F);
    return Cell();
  case Opcode::CheckHeap:
  case Opcode::PrivateRead:
  case Opcode::PrivateWrite:
  case Opcode::SpeculateEq:
  case Opcode::PostDep:
  case Opcode::WaitDep:
    reportFatalError(std::string("interpreter runs untransformed IR only: ") +
                     opcodeName(I.opcode()));
  case Opcode::Phi:
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Ret:
    break;
  }
  PRIVATEER_UNREACHABLE("opcode handled elsewhere");
}

void Interpreter::trap(const char *Reason) const {
  if (TrapsThrow)
    throw Trap{Reason};
  reportFatalError(Reason);
}

void Interpreter::formatPrint(const Instruction &I, Frame &F) {
  std::vector<Cell> Args;
  Args.reserve(I.numOperands());
  for (unsigned A = 0; A < I.numOperands(); ++A)
    Args.push_back(eval(I.operand(A), F));
  Runtime::get().deferText(sem::formatPrintedText(I.printFormat(), Args));
}
