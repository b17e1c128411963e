//===- ir/IRBuilder.h - Instruction construction helpers --------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience construction of IR, in the spirit of llvm::IRBuilder.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_IR_IRBUILDER_H
#define PRIVATEER_IR_IRBUILDER_H

#include "ir/IR.h"

namespace privateer {
namespace ir {

class IRBuilder {
public:
  explicit IRBuilder(Module &M) : M(M) {}

  void setInsertPoint(BasicBlock *B) { Block = B; }
  Module &module() { return M; }

  ConstantInt *i64(int64_t V) { return M.constInt(V); }
  ConstantFloat *f64(double V) { return M.constFloat(V); }

  Instruction *alloca_(uint64_t Bytes, std::string Name) {
    auto I = make(Opcode::Alloca, Type::Ptr, std::move(Name));
    I->setAccessBytes(Bytes);
    return append(std::move(I));
  }

  Instruction *malloc_(Value *Bytes, std::string Name) {
    auto I = make(Opcode::Malloc, Type::Ptr, std::move(Name));
    I->addOperand(Bytes);
    return append(std::move(I));
  }

  Instruction *free_(Value *Ptr) {
    auto I = make(Opcode::Free, Type::Void);
    I->addOperand(Ptr);
    return append(std::move(I));
  }

  Instruction *load(Type Ty, Value *Ptr, uint64_t Bytes, std::string Name) {
    auto I = make(Opcode::Load, Ty, std::move(Name));
    I->addOperand(Ptr);
    I->setAccessBytes(Bytes);
    return append(std::move(I));
  }

  Instruction *store(Value *V, Value *Ptr, uint64_t Bytes) {
    auto I = make(Opcode::Store, Type::Void);
    I->addOperand(V);
    I->addOperand(Ptr);
    I->setAccessBytes(Bytes);
    return append(std::move(I));
  }

  Instruction *gep(Value *Ptr, Value *Offset, std::string Name) {
    auto I = make(Opcode::Gep, Type::Ptr, std::move(Name));
    I->addOperand(Ptr);
    I->addOperand(Offset);
    return append(std::move(I));
  }

  Instruction *binop(Opcode Op, Value *A, Value *B, std::string Name) {
    Type Ty = (Op >= Opcode::FAdd && Op <= Opcode::FDiv) ? Type::F64
                                                         : Type::I64;
    auto I = make(Op, Ty, std::move(Name));
    I->addOperand(A);
    I->addOperand(B);
    return append(std::move(I));
  }

  Instruction *icmp(CmpPred P, Value *A, Value *B, std::string Name) {
    auto I = make(Opcode::ICmp, Type::I64, std::move(Name));
    I->setCmpPred(P);
    I->addOperand(A);
    I->addOperand(B);
    return append(std::move(I));
  }

  Instruction *fcmp(CmpPred P, Value *A, Value *B, std::string Name) {
    auto I = make(Opcode::FCmp, Type::I64, std::move(Name));
    I->setCmpPred(P);
    I->addOperand(A);
    I->addOperand(B);
    return append(std::move(I));
  }

  Instruction *br(BasicBlock *Target) {
    auto I = make(Opcode::Br, Type::Void);
    I->addBlockRef(Target);
    return append(std::move(I));
  }

  Instruction *condBr(Value *Cond, BasicBlock *T, BasicBlock *F) {
    auto I = make(Opcode::CondBr, Type::Void);
    I->addOperand(Cond);
    I->addBlockRef(T);
    I->addBlockRef(F);
    return append(std::move(I));
  }

  Instruction *ret(Value *V = nullptr) {
    auto I = make(Opcode::Ret, Type::Void);
    if (V)
      I->addOperand(V);
    return append(std::move(I));
  }

  Instruction *call(Function *Callee, std::vector<Value *> Args,
                    std::string Name = "") {
    auto I = make(Opcode::Call, Callee->returnType(), std::move(Name));
    I->setCallee(Callee);
    for (Value *A : Args)
      I->addOperand(A);
    return append(std::move(I));
  }

  /// Empty phi; add incoming pairs with addOperand and addBlockRef.
  Instruction *phi(Type Ty, std::string Name) {
    auto I = make(Opcode::Phi, Ty, std::move(Name));
    return append(std::move(I));
  }

  Instruction *select(Value *Cond, Value *A, Value *B, std::string Name) {
    auto I = make(Opcode::Select, A->type(), std::move(Name));
    I->addOperand(Cond);
    I->addOperand(A);
    I->addOperand(B);
    return append(std::move(I));
  }

  Instruction *print(std::string Format, std::vector<Value *> Args) {
    auto I = make(Opcode::Print, Type::Void);
    I->setPrintFormat(std::move(Format));
    for (Value *A : Args)
      I->addOperand(A);
    return append(std::move(I));
  }

  Instruction *sitofp(Value *V, std::string Name) {
    auto I = make(Opcode::SiToFp, Type::F64, std::move(Name));
    I->addOperand(V);
    return append(std::move(I));
  }

  Instruction *fptosi(Value *V, std::string Name) {
    auto I = make(Opcode::FpToSi, Type::I64, std::move(Name));
    I->addOperand(V);
    return append(std::move(I));
  }

private:
  std::unique_ptr<Instruction> make(Opcode Op, Type Ty,
                                    std::string Name = "") {
    return std::make_unique<Instruction>(Op, Ty, std::move(Name));
  }

  Instruction *append(std::unique_ptr<Instruction> I) {
    assert(Block && "no insertion point");
    return Block->append(std::move(I));
  }

  Module &M;
  BasicBlock *Block = nullptr;
};

} // namespace ir
} // namespace privateer

#endif // PRIVATEER_IR_IRBUILDER_H
