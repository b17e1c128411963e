//===- ir/IR.cpp ----------------------------------------------------------===//

#include "ir/IR.h"

#include "support/ErrorHandling.h"

using namespace privateer;
using namespace privateer::ir;

const char *ir::typeName(Type T) {
  switch (T) {
  case Type::Void:
    return "void";
  case Type::I64:
    return "i64";
  case Type::F64:
    return "f64";
  case Type::Ptr:
    return "ptr";
  }
  return "<bad-type>";
}

const char *ir::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Alloca:
    return "alloca";
  case Opcode::Malloc:
    return "malloc";
  case Opcode::Free:
    return "free";
  case Opcode::Load:
    return "load";
  case Opcode::Store:
    return "store";
  case Opcode::Gep:
    return "gep";
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::SDiv:
    return "sdiv";
  case Opcode::SRem:
    return "srem";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::Shl:
    return "shl";
  case Opcode::Shr:
    return "shr";
  case Opcode::FAdd:
    return "fadd";
  case Opcode::FSub:
    return "fsub";
  case Opcode::FMul:
    return "fmul";
  case Opcode::FDiv:
    return "fdiv";
  case Opcode::SiToFp:
    return "sitofp";
  case Opcode::FpToSi:
    return "fptosi";
  case Opcode::ICmp:
    return "icmp";
  case Opcode::FCmp:
    return "fcmp";
  case Opcode::Br:
    return "br";
  case Opcode::CondBr:
    return "condbr";
  case Opcode::Ret:
    return "ret";
  case Opcode::Call:
    return "call";
  case Opcode::Phi:
    return "phi";
  case Opcode::Select:
    return "select";
  case Opcode::Print:
    return "print";
  case Opcode::CheckHeap:
    return "checkheap";
  case Opcode::PrivateRead:
    return "privread";
  case Opcode::PrivateWrite:
    return "privwrite";
  case Opcode::SpeculateEq:
    return "speculate_eq";
  case Opcode::PostDep:
    return "postdep";
  case Opcode::WaitDep:
    return "waitdep";
  }
  return "<bad-opcode>";
}

const char *ir::cmpPredName(CmpPred P) {
  switch (P) {
  case CmpPred::Eq:
    return "eq";
  case CmpPred::Ne:
    return "ne";
  case CmpPred::Lt:
    return "lt";
  case CmpPred::Le:
    return "le";
  case CmpPred::Gt:
    return "gt";
  case CmpPred::Ge:
    return "ge";
  }
  return "<bad-pred>";
}

size_t BasicBlock::indexOf(const Instruction *I) const {
  for (size_t Idx = 0; Idx < Insts.size(); ++Idx)
    if (Insts[Idx].get() == I)
      return Idx;
  PRIVATEER_UNREACHABLE("instruction not in block");
}

std::vector<BasicBlock *> BasicBlock::successors() const {
  Instruction *T = terminator();
  if (!T || T->opcode() == Opcode::Ret)
    return {};
  return T->blockRefs();
}

BasicBlock *Function::blockByName(const std::string &N) const {
  for (const auto &B : Blocks)
    if (B->name() == N)
      return B.get();
  return nullptr;
}

ConstantInt *Module::constInt(int64_t V) {
  auto C = std::make_unique<ConstantInt>(V);
  ConstantInt *P = C.get();
  Constants.push_back(std::move(C));
  return P;
}

ConstantFloat *Module::constFloat(double V) {
  auto C = std::make_unique<ConstantFloat>(V);
  ConstantFloat *P = C.get();
  Constants.push_back(std::move(C));
  return P;
}

Function *Module::functionByName(const std::string &N) const {
  for (const auto &F : Functions)
    if (F->name() == N)
      return F.get();
  return nullptr;
}

GlobalVariable *Module::globalByName(const std::string &N) const {
  for (const auto &G : Globals)
    if (G->name() == N)
      return G.get();
  return nullptr;
}
