//===- ir/IR.h - Mini compiler IR -------------------------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small typed SSA-style IR standing in for the paper's LLVM substrate
/// (DESIGN.md substitution #1).  It is deliberately rich in exactly the
/// ways that defeat prior privatization schemes: raw pointers with byte
/// arithmetic (Gep), untyped memory (loads/stores carry an access size, so
/// reinterpreting bytes — "type casts" — is the default), dynamic
/// allocation (Malloc/Free), recursion, and indirect data structures.
///
/// Instructions form one class with an opcode and checked accessors (a
/// pragmatic compression of LLVM's Instruction hierarchy).  Privateer's
/// transformation inserts the intrinsic opcodes CheckHeap, PrivateRead,
/// PrivateWrite, and SpeculateEq, which the interpreter lowers onto the
/// runtime (Figure 2b's check_heap / private_read / private_write /
/// misspec sites).
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_IR_IR_H
#define PRIVATEER_IR_IR_H

#include "runtime/HeapKind.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace privateer {
namespace ir {

enum class Type : uint8_t { Void, I64, F64, Ptr };

const char *typeName(Type T);

enum class ValueKind : uint8_t {
  ConstInt,
  ConstFloat,
  Global,
  Argument,
  Instruction,
};

class Value {
public:
  Value(ValueKind K, Type T, std::string N)
      : Kind(K), Ty(T), Name(std::move(N)) {}
  virtual ~Value() = default;

  ValueKind kind() const { return Kind; }
  Type type() const { return Ty; }
  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

private:
  ValueKind Kind;
  Type Ty;
  std::string Name;
};

class ConstantInt : public Value {
public:
  explicit ConstantInt(int64_t V)
      : Value(ValueKind::ConstInt, Type::I64, ""), Val(V) {}
  int64_t value() const { return Val; }

private:
  int64_t Val;
};

class ConstantFloat : public Value {
public:
  explicit ConstantFloat(double V)
      : Value(ValueKind::ConstFloat, Type::F64, ""), Val(V) {}
  double value() const { return Val; }

private:
  double Val;
};

/// A named global memory object, zero-initialized, \p SizeBytes long.
/// Its value is the object's address (Type::Ptr).  The heap assignment
/// (paper §4.2) is recorded here by the transformation (§4.4).
class GlobalVariable : public Value {
public:
  GlobalVariable(std::string N, uint64_t SizeBytes)
      : Value(ValueKind::Global, Type::Ptr, std::move(N)),
        Size(SizeBytes) {}
  uint64_t sizeBytes() const { return Size; }

  bool hasAssignedHeap() const { return HasHeap; }
  HeapKind assignedHeap() const {
    assert(HasHeap && "global has no heap assignment");
    return Heap;
  }
  void assignHeap(HeapKind K) {
    Heap = K;
    HasHeap = true;
  }

private:
  uint64_t Size;
  HeapKind Heap = HeapKind::Unrestricted;
  bool HasHeap = false;
};

class Function;

class Argument : public Value {
public:
  Argument(Type T, std::string N, unsigned Idx, Function *F)
      : Value(ValueKind::Argument, T, std::move(N)), Index(Idx), Parent(F) {}
  unsigned index() const { return Index; }
  Function *parent() const { return Parent; }

private:
  unsigned Index;
  Function *Parent;
};

enum class Opcode : uint8_t {
  // Memory.
  Alloca, // Fixed-size stack slot (operand-free; bytes in payload).
  Malloc, // Operand 0: byte count (i64).
  Free,   // Operand 0: pointer.
  Load,   // Operand 0: pointer; payload: access bytes; result: type().
  Store,  // Operand 0: value, operand 1: pointer; payload: access bytes.
  Gep,    // Operand 0: pointer, operand 1: byte offset (i64) -> ptr.
  // Integer arithmetic (i64).
  Add, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, Shr,
  // Floating point (f64).
  FAdd, FSub, FMul, FDiv,
  // Conversions.
  SiToFp, FpToSi,
  // Comparison (result i64: 0/1); payload: predicate.
  ICmp, FCmp,
  // Control flow.
  Br,     // Successor 0.
  CondBr, // Operand 0: condition; successors 0 (true), 1 (false).
  Ret,    // Optional operand 0.
  Call,   // Payload: callee; operands: arguments.
  Phi,    // Operands parallel to incoming blocks.
  Select, // Operand 0: cond, 1: true value, 2: false value.
  // Output (deferred I/O in speculative execution).
  Print, // Payload: printf-style format; operands: arguments.
  // Privateer intrinsics (inserted by the transformation, §4.5-4.6).
  CheckHeap,   // Operand 0: pointer; payload: expected heap.
  PrivateRead, // Operand 0: pointer; payload: bytes.
  PrivateWrite,
  SpeculateEq, // Operands 0, 1: values; misspec when unequal.
  // Cross-iteration dependence forwarding (DOACROSS / pipeline).  The
  // channel id travels in the access-bytes payload slot.
  PostDep, // Operands 0, 1: iteration, value; payload: channel.
  WaitDep, // Operand 0: target iteration; payload: channel; yields i64.
};

const char *opcodeName(Opcode Op);

enum class CmpPred : uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

const char *cmpPredName(CmpPred P);

class BasicBlock;

class Instruction : public Value {
public:
  Instruction(Opcode Op, Type T, std::string N = "")
      : Value(ValueKind::Instruction, T, std::move(N)), Op(Op) {}

  Opcode opcode() const { return Op; }
  BasicBlock *parent() const { return Parent; }
  void setParent(BasicBlock *B) { Parent = B; }

  // Operands.
  unsigned numOperands() const { return Operands.size(); }
  Value *operand(unsigned I) const {
    assert(I < Operands.size() && "operand index out of range");
    return Operands[I];
  }
  void addOperand(Value *V) { Operands.push_back(V); }
  void setOperand(unsigned I, Value *V) {
    assert(I < Operands.size() && "operand index out of range");
    Operands[I] = V;
  }
  const std::vector<Value *> &operands() const { return Operands; }

  // Successors (Br/CondBr) and Phi incoming blocks.
  unsigned numBlockRefs() const { return Blocks.size(); }
  BasicBlock *blockRef(unsigned I) const {
    assert(I < Blocks.size() && "block ref index out of range");
    return Blocks[I];
  }
  void addBlockRef(BasicBlock *B) { Blocks.push_back(B); }
  const std::vector<BasicBlock *> &blockRefs() const { return Blocks; }

  bool isTerminator() const {
    return Op == Opcode::Br || Op == Opcode::CondBr || Op == Opcode::Ret;
  }

  // Payload accessors, asserted by opcode.
  uint64_t accessBytes() const {
    assert((Op == Opcode::Load || Op == Opcode::Store ||
            Op == Opcode::Alloca || Op == Opcode::PrivateRead ||
            Op == Opcode::PrivateWrite) &&
           "opcode carries no byte count");
    return Bytes;
  }
  void setAccessBytes(uint64_t B) { Bytes = B; }

  /// Token channel of a postdep/waitdep.
  uint32_t depChannel() const {
    assert((Op == Opcode::PostDep || Op == Opcode::WaitDep) &&
           "not a dependence-token op");
    return static_cast<uint32_t>(Bytes);
  }
  void setDepChannel(uint32_t C) {
    assert((Op == Opcode::PostDep || Op == Opcode::WaitDep) &&
           "not a dependence-token op");
    Bytes = C;
  }

  CmpPred cmpPred() const {
    assert((Op == Opcode::ICmp || Op == Opcode::FCmp) && "not a compare");
    return Pred;
  }
  void setCmpPred(CmpPred P) { Pred = P; }

  Function *callee() const {
    assert(Op == Opcode::Call && "not a call");
    return Callee;
  }
  void setCallee(Function *F) { Callee = F; }

  const std::string &printFormat() const {
    assert(Op == Opcode::Print && "not a print");
    return Format;
  }
  void setPrintFormat(std::string F) { Format = std::move(F); }

  HeapKind expectedHeap() const {
    assert(Op == Opcode::CheckHeap && "not a heap check");
    return Heap;
  }
  void setExpectedHeap(HeapKind K) { Heap = K; }

  /// Heap assignment of an allocation site (Malloc/Alloca); set by the
  /// transformation's Replace Allocation step (§4.4).
  bool hasAllocHeap() const { return HasAllocHeap; }
  HeapKind allocHeap() const {
    assert(HasAllocHeap && "allocation site has no heap assignment");
    return Heap;
  }
  void setAllocHeap(HeapKind K) {
    Heap = K;
    HasAllocHeap = true;
  }

private:
  Opcode Op;
  BasicBlock *Parent = nullptr;
  std::vector<Value *> Operands;
  std::vector<BasicBlock *> Blocks;
  uint64_t Bytes = 0;
  CmpPred Pred = CmpPred::Eq;
  Function *Callee = nullptr;
  std::string Format;
  HeapKind Heap = HeapKind::Unrestricted;
  bool HasAllocHeap = false;
};

class BasicBlock {
public:
  BasicBlock(std::string N, Function *F) : Name(std::move(N)), Parent(F) {}

  const std::string &name() const { return Name; }
  Function *parent() const { return Parent; }

  const std::vector<std::unique_ptr<Instruction>> &instructions() const {
    return Insts;
  }
  bool empty() const { return Insts.empty(); }
  Instruction *terminator() const {
    if (Insts.empty() || !Insts.back()->isTerminator())
      return nullptr;
    return Insts.back().get();
  }

  Instruction *append(std::unique_ptr<Instruction> I) {
    I->setParent(this);
    Insts.push_back(std::move(I));
    return Insts.back().get();
  }

  /// Inserts \p I before position \p Pos (instruction index).
  Instruction *insertAt(size_t Pos, std::unique_ptr<Instruction> I) {
    assert(Pos <= Insts.size() && "insertion position out of range");
    I->setParent(this);
    auto It = Insts.insert(Insts.begin() + Pos, std::move(I));
    return It->get();
  }

  /// Index of \p I within this block; asserts if absent.
  size_t indexOf(const Instruction *I) const;

  /// Removes and destroys the instruction at \p Pos.  The caller must have
  /// replaced every use first (the DOACROSS pre-pass deletes rewritten
  /// loop-carried phis this way).
  void removeAt(size_t Pos) {
    assert(Pos < Insts.size() && "removal position out of range");
    Insts.erase(Insts.begin() + Pos);
  }

  /// Successor blocks, derived from the terminator.
  std::vector<BasicBlock *> successors() const;

private:
  std::string Name;
  Function *Parent;
  std::vector<std::unique_ptr<Instruction>> Insts;
};

class Module;

class Function {
public:
  Function(std::string N, Type RetTy, Module *M)
      : Name(std::move(N)), ReturnType(RetTy), Parent(M) {}

  const std::string &name() const { return Name; }
  Type returnType() const { return ReturnType; }
  Module *parent() const { return Parent; }

  Argument *addArgument(Type T, std::string N) {
    Args.push_back(std::make_unique<Argument>(
        T, std::move(N), static_cast<unsigned>(Args.size()), this));
    return Args.back().get();
  }
  const std::vector<std::unique_ptr<Argument>> &arguments() const {
    return Args;
  }

  BasicBlock *createBlock(std::string N) {
    Blocks.push_back(std::make_unique<BasicBlock>(std::move(N), this));
    return Blocks.back().get();
  }
  const std::vector<std::unique_ptr<BasicBlock>> &blocks() const {
    return Blocks;
  }
  BasicBlock *entry() const {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front().get();
  }
  BasicBlock *blockByName(const std::string &N) const;

private:
  std::string Name;
  Type ReturnType;
  Module *Parent;
  std::vector<std::unique_ptr<Argument>> Args;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
};

class Module {
public:
  Function *createFunction(std::string N, Type RetTy) {
    Functions.push_back(std::make_unique<Function>(std::move(N), RetTy, this));
    return Functions.back().get();
  }
  GlobalVariable *createGlobal(std::string N, uint64_t SizeBytes) {
    Globals.push_back(
        std::make_unique<GlobalVariable>(std::move(N), SizeBytes));
    return Globals.back().get();
  }

  ConstantInt *constInt(int64_t V);
  ConstantFloat *constFloat(double V);

  Function *functionByName(const std::string &N) const;
  GlobalVariable *globalByName(const std::string &N) const;

  const std::vector<std::unique_ptr<Function>> &functions() const {
    return Functions;
  }
  const std::vector<std::unique_ptr<GlobalVariable>> &globals() const {
    return Globals;
  }

private:
  std::vector<std::unique_ptr<Function>> Functions;
  std::vector<std::unique_ptr<GlobalVariable>> Globals;
  std::vector<std::unique_ptr<Value>> Constants;
};

} // namespace ir
} // namespace privateer

#endif // PRIVATEER_IR_IR_H
