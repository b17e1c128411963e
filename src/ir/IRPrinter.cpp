//===- ir/IRPrinter.cpp ---------------------------------------------------===//

#include "ir/IRPrinter.h"

#include "support/ErrorHandling.h"

#include <cstdio>

using namespace privateer;
using namespace privateer::ir;

namespace {

void ensureNames(Function &F) {
  unsigned Next = 0;
  for (const auto &B : F.blocks())
    for (const auto &I : B->instructions())
      if (I->type() != Type::Void && I->name().empty())
        I->setName("t" + std::to_string(Next++));
}

std::string valueRef(const Value *V) {
  switch (V->kind()) {
  case ValueKind::ConstInt:
    return std::to_string(static_cast<const ConstantInt *>(V)->value());
  case ValueKind::ConstFloat: {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  static_cast<const ConstantFloat *>(V)->value());
    std::string S = Buf;
    // Guarantee the parser sees a float, not an int literal.
    if (S.find('.') == std::string::npos &&
        S.find('e') == std::string::npos &&
        S.find("inf") == std::string::npos &&
        S.find("nan") == std::string::npos)
      S += ".0";
    return S;
  }
  case ValueKind::Global:
    return "@" + V->name();
  case ValueKind::Argument:
  case ValueKind::Instruction:
    return "%" + V->name();
  }
  PRIVATEER_UNREACHABLE("bad value kind");
}

std::string escapeString(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '\n')
      Out += "\\n";
    else if (C == '\t')
      Out += "\\t";
    else if (C == '"')
      Out += "\\\"";
    else if (C == '\\')
      Out += "\\\\";
    else
      Out += C;
  }
  return Out;
}

std::string heapToken(HeapKind K) { return heapKindName(K); }

void printInstruction(const Instruction &I, std::string &Out) {
  Out += "  ";
  if (I.type() != Type::Void) {
    Out += "%" + I.name() + " = ";
  }
  switch (I.opcode()) {
  case Opcode::Alloca:
    Out += "alloca " + std::to_string(I.accessBytes());
    break;
  case Opcode::Malloc:
    Out += "malloc " + valueRef(I.operand(0));
    if (I.hasAllocHeap())
      Out += ", " + heapToken(I.allocHeap());
    break;
  case Opcode::Free:
    Out += "free " + valueRef(I.operand(0));
    break;
  case Opcode::Load:
    Out += std::string("load ") + typeName(I.type()) + ", " +
           valueRef(I.operand(0)) + ", " + std::to_string(I.accessBytes());
    break;
  case Opcode::Store:
    Out += "store " + valueRef(I.operand(0)) + ", " +
           valueRef(I.operand(1)) + ", " + std::to_string(I.accessBytes());
    break;
  case Opcode::Gep:
    Out += "gep " + valueRef(I.operand(0)) + ", " + valueRef(I.operand(1));
    break;
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::SDiv:
  case Opcode::SRem:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
    Out += std::string(opcodeName(I.opcode())) + " " +
           valueRef(I.operand(0)) + ", " + valueRef(I.operand(1));
    break;
  case Opcode::SiToFp:
  case Opcode::FpToSi:
    Out += std::string(opcodeName(I.opcode())) + " " +
           valueRef(I.operand(0));
    break;
  case Opcode::ICmp:
  case Opcode::FCmp:
    Out += std::string(opcodeName(I.opcode())) + " " +
           cmpPredName(I.cmpPred()) + ", " + valueRef(I.operand(0)) + ", " +
           valueRef(I.operand(1));
    break;
  case Opcode::Br:
    Out += "br " + I.blockRef(0)->name();
    break;
  case Opcode::CondBr:
    Out += "condbr " + valueRef(I.operand(0)) + ", " +
           I.blockRef(0)->name() + ", " + I.blockRef(1)->name();
    break;
  case Opcode::Ret:
    Out += "ret";
    if (I.numOperands() > 0)
      Out += " " + valueRef(I.operand(0));
    break;
  case Opcode::Call: {
    Out += "call @" + I.callee()->name() + "(";
    for (unsigned A = 0; A < I.numOperands(); ++A) {
      if (A)
        Out += ", ";
      Out += valueRef(I.operand(A));
    }
    Out += ")";
    break;
  }
  case Opcode::Phi: {
    Out += "phi";
    for (unsigned A = 0; A < I.numOperands(); ++A) {
      Out += (A ? ", [" : " [") + I.blockRef(A)->name() + ": " +
             valueRef(I.operand(A)) + "]";
    }
    break;
  }
  case Opcode::Select:
    Out += "select " + valueRef(I.operand(0)) + ", " +
           valueRef(I.operand(1)) + ", " + valueRef(I.operand(2));
    break;
  case Opcode::Print: {
    Out += "print \"" + escapeString(I.printFormat()) + "\"";
    for (unsigned A = 0; A < I.numOperands(); ++A)
      Out += ", " + valueRef(I.operand(A));
    break;
  }
  case Opcode::CheckHeap:
    Out += "checkheap " + valueRef(I.operand(0)) + ", " +
           heapToken(I.expectedHeap());
    break;
  case Opcode::PrivateRead:
  case Opcode::PrivateWrite:
    Out += std::string(opcodeName(I.opcode())) + " " +
           valueRef(I.operand(0)) + ", " + std::to_string(I.accessBytes());
    break;
  case Opcode::SpeculateEq:
    Out += "speculate_eq " + valueRef(I.operand(0)) + ", " +
           valueRef(I.operand(1));
    break;
  case Opcode::PostDep:
    Out += "postdep " + valueRef(I.operand(0)) + ", " +
           valueRef(I.operand(1)) + ", " + std::to_string(I.depChannel());
    break;
  case Opcode::WaitDep:
    Out += "waitdep " + valueRef(I.operand(0)) + ", " +
           std::to_string(I.depChannel());
    break;
  }
  Out += "\n";
}

} // namespace

std::string ir::printFunction(Function &F) {
  ensureNames(F);
  std::string Out = "define " + std::string(typeName(F.returnType())) +
                    " @" + F.name() + "(";
  for (size_t A = 0; A < F.arguments().size(); ++A) {
    if (A)
      Out += ", ";
    const Argument *Arg = F.arguments()[A].get();
    Out += std::string(typeName(Arg->type())) + " %" + Arg->name();
  }
  Out += ") {\n";
  for (const auto &B : F.blocks()) {
    Out += B->name() + ":\n";
    for (const auto &I : B->instructions())
      printInstruction(*I, Out);
  }
  Out += "}\n";
  return Out;
}

std::string ir::printModule(Module &M) {
  std::string Out;
  for (const auto &G : M.globals()) {
    Out += "global @" + G->name() + " " + std::to_string(G->sizeBytes());
    if (G->hasAssignedHeap())
      Out += std::string(" ") + heapKindName(G->assignedHeap());
    Out += "\n";
  }
  if (!M.globals().empty())
    Out += "\n";
  for (const auto &F : M.functions()) {
    Out += printFunction(*F);
    Out += "\n";
  }
  return Out;
}
