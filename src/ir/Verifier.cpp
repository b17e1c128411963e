//===- ir/Verifier.cpp ----------------------------------------------------===//

#include "ir/Verifier.h"

#include <cstring>
#include <map>
#include <set>

using namespace privateer;
using namespace privateer::ir;

namespace {

/// Bound of the bytecode encoding's 16-bit register, site and count fields.
constexpr size_t kBytecodeLimit = 65535;

class VerifierImpl {
public:
  explicit VerifierImpl(const Module &M) : M(M) {}

  std::vector<std::string> run() {
    for (const auto &G : M.globals())
      if (!Globals.emplace(G->name(), G.get()).second)
        Errors.push_back("global @" + G->name() + " is defined twice");
    for (const auto &F : M.functions())
      if (!Functions.emplace(F->name(), F.get()).second)
        Errors.push_back("function @" + F->name() + " is defined twice");
    for (const auto &F : M.functions())
      verifyFunction(*F);
    return std::move(Errors);
  }

private:
  void error(const Function &F, const BasicBlock *B, const std::string &Msg) {
    std::string Where = "@" + F.name();
    if (B)
      Where += "/" + B->name();
    Errors.push_back(Where + ": " + Msg);
  }

  void verifyFunction(const Function &F) {
    if (F.blocks().empty()) {
      error(F, nullptr, "function has no blocks");
      return;
    }
    std::map<const BasicBlock *, std::vector<const BasicBlock *>> Preds;
    for (const auto &B : F.blocks())
      for (BasicBlock *S : B->successors())
        Preds[S].push_back(B.get());

    for (const auto &B : F.blocks()) {
      if (!B->terminator()) {
        error(F, B.get(), "block does not end with a terminator");
        continue;
      }
      bool SeenNonPhi = false;
      for (size_t Idx = 0; Idx < B->instructions().size(); ++Idx) {
        const Instruction &I = *B->instructions()[Idx];
        bool IsLast = Idx + 1 == B->instructions().size();
        if (I.isTerminator() && !IsLast)
          error(F, B.get(), "terminator in the middle of a block");
        if (I.opcode() == Opcode::Phi) {
          if (SeenNonPhi)
            error(F, B.get(), "phi after non-phi instruction");
          verifyPhi(F, *B, I, Preds[B.get()]);
        } else {
          SeenNonPhi = true;
        }
        verifyInstruction(F, *B, I);
        verifyOperandScope(F, *B, I);
      }
      if (B->instructions().size() > kBytecodeLimit)
        error(F, B.get(),
              "block has " + std::to_string(B->instructions().size()) +
                  " instructions, above the bytecode limit of 65535");
    }
    verifyBytecodeLimits(F);
  }

  /// Operands, callees and successors must belong to this function and
  /// module: the bytecode lowering resolves each of them there.
  void verifyOperandScope(const Function &F, const BasicBlock &B,
                          const Instruction &I) {
    for (unsigned A = 0; A < I.numOperands(); ++A) {
      const Value *V = I.operand(A);
      if ((V->kind() == ValueKind::Argument &&
           static_cast<const Argument *>(V)->parent() != &F) ||
          (V->kind() == ValueKind::Instruction &&
           (!static_cast<const Instruction *>(V)->parent() ||
            static_cast<const Instruction *>(V)->parent()->parent() != &F)))
        error(F, &B, "operand %" + V->name() + " is from another function");
      if (V->kind() == ValueKind::Global &&
          !defines(Globals, static_cast<const GlobalVariable *>(V)))
        error(F, &B, "operand @" + V->name() + " is not a module global");
    }
    if (I.opcode() == Opcode::Call && I.callee() &&
        !defines(Functions, I.callee()))
      error(F, &B, "callee @" + I.callee()->name() + " is not in the module");
    for (unsigned S = 0; S < I.numBlockRefs(); ++S)
      if (I.blockRef(S)->parent() != &F)
        error(F, &B, "block '" + I.blockRef(S)->name() +
                         "' is in another function");
  }

  /// The bytecode lowering's 16-bit register fields.  Its register plan
  /// takes at most one register per argument, value, phi (staging),
  /// distinct constant (operands and alloca sizes) and referenced global,
  /// plus the profiling lowering's predecessor register.  Alloc sites are
  /// values, so this also bounds the 16-bit alloc-site index.  The
  /// lowerer's allocReg (bytecode/Lower.cpp) fails fatally should its plan
  /// ever outgrow this bound.
  void verifyBytecodeLimits(const Function &F) {
    size_t Regs = F.arguments().size() + 1;
    std::set<uint64_t> Consts;
    std::set<const Value *> Referenced;
    for (const auto &B : F.blocks())
      for (const auto &I : B->instructions()) {
        Regs += (I->type() != Type::Void) + (I->opcode() == Opcode::Phi);
        if (I->opcode() == Opcode::Alloca)
          Consts.insert(I->accessBytes());
        for (unsigned A = 0; A < I->numOperands(); ++A) {
          const Value *V = I->operand(A);
          uint64_t Bits;
          if (V->kind() == ValueKind::ConstInt) {
            int64_t C = static_cast<const ConstantInt *>(V)->value();
            std::memcpy(&Bits, &C, 8);
            Consts.insert(Bits);
          } else if (V->kind() == ValueKind::ConstFloat) {
            double C = static_cast<const ConstantFloat *>(V)->value();
            std::memcpy(&Bits, &C, 8);
            Consts.insert(Bits);
          } else if (V->kind() == ValueKind::Global) {
            Referenced.insert(V);
          }
        }
      }
    Regs += Consts.size() + Referenced.size();
    if (Regs > kBytecodeLimit)
      error(F, nullptr,
            "needs up to " + std::to_string(Regs) +
                " registers (args + values + phi staging + distinct "
                "constants + referenced globals + 1), above the bytecode "
                "limit of 65535");
  }

  void verifyPhi(const Function &F, const BasicBlock &B,
                 const Instruction &I,
                 const std::vector<const BasicBlock *> &Preds) {
    if (I.numOperands() != I.numBlockRefs()) {
      error(F, &B, "phi operand/block count mismatch");
      return;
    }
    std::set<const BasicBlock *> Seen;
    for (unsigned A = 0; A < I.numBlockRefs(); ++A) {
      const BasicBlock *In = I.blockRef(A);
      if (!Seen.insert(In).second)
        error(F, &B, "phi lists predecessor '" + In->name() + "' twice");
      bool IsPred = false;
      for (const BasicBlock *P : Preds)
        IsPred |= P == In;
      if (!IsPred)
        error(F, &B,
              "phi incoming block '" + In->name() + "' is not a predecessor");
    }
    for (const BasicBlock *P : Preds)
      if (!Seen.count(P))
        error(F, &B, "phi misses predecessor '" + P->name() + "'");
  }

  void verifyInstruction(const Function &F, const BasicBlock &B,
                         const Instruction &I) {
    auto WantOperands = [&](unsigned N) {
      if (I.numOperands() != N)
        error(F, &B,
              std::string(opcodeName(I.opcode())) + " expects " +
                  std::to_string(N) + " operands, has " +
                  std::to_string(I.numOperands()));
    };
    auto WantAccessSize = [&]() {
      uint64_t Sz = I.accessBytes();
      if (Sz != 1 && Sz != 2 && Sz != 4 && Sz != 8)
        error(F, &B,
              std::string(opcodeName(I.opcode())) +
                  " access size must be 1/2/4/8 bytes");
    };
    switch (I.opcode()) {
    case Opcode::Load:
      WantOperands(1);
      WantAccessSize();
      if (I.operand(0)->type() != Type::Ptr)
        error(F, &B, "load pointer operand is not ptr-typed");
      if (I.type() == Type::F64 && I.accessBytes() != 8)
        error(F, &B, "f64 load must access 8 bytes");
      break;
    case Opcode::Store:
      WantOperands(2);
      WantAccessSize();
      if (I.operand(1)->type() != Type::Ptr)
        error(F, &B, "store pointer operand is not ptr-typed");
      break;
    case Opcode::Gep:
      WantOperands(2);
      if (I.operand(0)->type() != Type::Ptr)
        error(F, &B, "gep base is not ptr-typed");
      break;
    case Opcode::Malloc:
    case Opcode::Free:
    case Opcode::SiToFp:
    case Opcode::FpToSi:
      WantOperands(1);
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
    case Opcode::ICmp:
    case Opcode::FCmp:
    case Opcode::SpeculateEq:
      WantOperands(2);
      break;
    case Opcode::CondBr:
      WantOperands(1);
      if (I.numBlockRefs() != 2)
        error(F, &B, "condbr needs two successors");
      break;
    case Opcode::Br:
      WantOperands(0);
      if (I.numBlockRefs() != 1)
        error(F, &B, "br needs one successor");
      break;
    case Opcode::Ret:
      if (F.returnType() == Type::Void && I.numOperands() != 0)
        error(F, &B, "void function returns a value");
      if (F.returnType() != Type::Void && I.numOperands() != 1)
        error(F, &B, "non-void function returns nothing");
      break;
    case Opcode::Call:
      if (!I.callee())
        error(F, &B, "call without callee");
      else if (I.numOperands() != I.callee()->arguments().size())
        error(F, &B,
              "call to @" + I.callee()->name() + " passes " +
                  std::to_string(I.numOperands()) + " args, wants " +
                  std::to_string(I.callee()->arguments().size()));
      break;
    case Opcode::CheckHeap:
      WantOperands(1);
      break;
    case Opcode::PrivateRead:
    case Opcode::PrivateWrite:
      WantOperands(1);
      if (I.accessBytes() == 0)
        error(F, &B, "privacy check covers zero bytes");
      break;
    case Opcode::Alloca:
      if (I.accessBytes() == 0)
        error(F, &B, "alloca of zero bytes");
      break;
    case Opcode::Select:
      WantOperands(3);
      break;
    case Opcode::PostDep:
      WantOperands(2);
      break;
    case Opcode::WaitDep:
      WantOperands(1);
      break;
    case Opcode::Print:
      if (I.numOperands() > kBytecodeLimit)
        error(F, &B, "print has more than 65535 operands");
      break;
    case Opcode::Phi:
      break;
    }
  }

  /// Whether \p Names maps \p X's name to \p X itself: the lowering
  /// resolves globals and callees by name.
  template <typename T>
  static bool defines(const std::map<std::string, const T *> &Names,
                      const T *X) {
    auto It = Names.find(X->name());
    return It != Names.end() && It->second == X;
  }

  const Module &M;
  std::vector<std::string> Errors;
  std::map<std::string, const GlobalVariable *> Globals;
  std::map<std::string, const Function *> Functions;
};

} // namespace

std::vector<std::string> ir::verifyModule(const Module &M) {
  return VerifierImpl(M).run();
}
