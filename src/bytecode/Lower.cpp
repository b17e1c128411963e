//===- bytecode/Lower.cpp - IR -> bytecode lowering -----------------------===//

#include "bytecode/Lower.h"

#include "runtime/HeapKind.h"
#include "support/ErrorHandling.h"

#include <cassert>
#include <cstring>
#include <tuple>

using namespace privateer;
using namespace privateer::bytecode;
using namespace privateer::ir;

const char *bytecode::bcOpName(BcOp Op) {
  switch (Op) {
#define PRIVATEER_BC_NAME(N)                                                  \
  case BcOp::N:                                                               \
    return #N;
    PRIVATEER_BC_OPCODES(PRIVATEER_BC_NAME)
#undef PRIVATEER_BC_NAME
  }
  return "<invalid>";
}

namespace {

/// Lowering peephole: rewrite common adjacent pairs into fused
/// superinstructions.  The second instruction of each pair stays in place,
/// so absolute jump targets remain valid — a jump into the middle of a
/// fused pair executes the preserved original, while the fused opcode
/// performs both effects and skips it.  Fusion is unconditionally
/// semantics-preserving: the fused handlers replay the pair's register
/// writes in the original order (including the first instruction's
/// destination, which later code may still read), and the candidate first
/// opcodes are never terminators, so control always flows into the pair's
/// second half.  Runs after jump fixups, when every Imm target is final.
void fusePairs(BcFunction &BF) {
  auto Contig = [](BcOp Lo, BcOp Op, BcOp Hi) {
    return static_cast<unsigned>(Op) >= static_cast<unsigned>(Lo) &&
           static_cast<unsigned>(Op) <= static_cast<unsigned>(Hi);
  };
  auto FuseOp = [](BcOp Base, BcOp Op, BcOp Lo) {
    return static_cast<uint16_t>(static_cast<unsigned>(Base) +
                                 (static_cast<unsigned>(Op) -
                                  static_cast<unsigned>(Lo)));
  };
  std::vector<BcInst> &Code = BF.Code;
  for (size_t Pc = 0; Pc + 1 < Code.size(); ++Pc) {
    BcInst &A = Code[Pc];
    const BcInst &B = Code[Pc + 1];
    BcOp AO = static_cast<BcOp>(A.Op);
    BcOp BO = static_cast<BcOp>(B.Op);
    if (BO == BcOp::JmpIfZ && B.A == A.A &&
        Contig(BcOp::CmpEq, AO, BcOp::CmpGe)) {
      // cmp rA,rB,rC ; jz rA,T  ->  Cmp*Jz with T in the free Imm slot.
      A.Op = FuseOp(BcOp::CmpEqJz, AO, BcOp::CmpEq);
      A.Imm = B.Imm;
      ++Pc;
    } else if (BO == BcOp::JmpIfZ && B.A == A.A &&
               Contig(BcOp::CmpEqImm, AO, BcOp::CmpGeImm) && B.Imm >= 0 &&
               B.Imm < 65536) {
      // Imm compares keep the constant in Imm; the target moves into C,
      // so only targets that fit 16 bits fuse.
      A.Op = FuseOp(BcOp::CmpEqImmJz, AO, BcOp::CmpEqImm);
      A.C = static_cast<uint16_t>(B.Imm);
      ++Pc;
    } else if (AO == BcOp::Add && BO == BcOp::Load8 && B.B == A.A) {
      // rX = rB + rC ; rA = load rX  ->  AddLoad8 (addr reg rX in Imm).
      A.Imm = A.A;
      A.A = B.A;
      A.Op = static_cast<uint16_t>(BcOp::AddLoad8);
      ++Pc;
    } else if (AO == BcOp::AddImm && BO == BcOp::Load8 && B.B == A.A) {
      // rX = rB + Imm ; rA = load rX  ->  AddImmLoad8 (rX in free C).
      A.C = A.A;
      A.A = B.A;
      A.Op = static_cast<uint16_t>(BcOp::AddImmLoad8);
      ++Pc;
    } else if (AO == BcOp::Add && BO == BcOp::Store8 && B.B == A.A) {
      // rX = rB + rC ; store rA to rX  ->  AddStore8 (rX in Imm).
      A.Imm = A.A;
      A.A = B.A;
      A.Op = static_cast<uint16_t>(BcOp::AddStore8);
      ++Pc;
    } else if (AO == BcOp::AddImm && BO == BcOp::Store8 && B.B == A.A) {
      // rX = rB + Imm ; store rA to rX  ->  AddImmStore8 (rX in free C).
      A.C = A.A;
      A.A = B.A;
      A.Op = static_cast<uint16_t>(BcOp::AddImmStore8);
      ++Pc;
    }
  }
}

/// The fused-opcode arithmetic above assumes the compare families keep
/// their X-macro order.
static_assert(static_cast<unsigned>(BcOp::CmpGe) -
                      static_cast<unsigned>(BcOp::CmpEq) == 5 &&
                  static_cast<unsigned>(BcOp::CmpGeImm) -
                      static_cast<unsigned>(BcOp::CmpEqImm) == 5 &&
                  static_cast<unsigned>(BcOp::CmpGeJz) -
                      static_cast<unsigned>(BcOp::CmpEqJz) == 5 &&
                  static_cast<unsigned>(BcOp::CmpGeImmJz) -
                      static_cast<unsigned>(BcOp::CmpEqImmJz) == 5,
              "compare opcode families must stay contiguous and ordered");

/// Lowers one function.  Register plan: arguments first, then every
/// value-producing instruction; phis get an extra staging register written
/// on incoming edges and copied at block entry (so all phis of a block read
/// the pre-transfer state, as in the interpreter); constants and global
/// addresses that cannot be folded into an Imm operand get materialized
/// registers preloaded from the frame-entry template.  The verifier bounds
/// the plan to the 16-bit register fields (ir/Verifier.h), so every
/// verified function lowers; the asserts below restate its guarantees, and
/// allocReg re-checks the register bound in every build.
class FunctionLowerer {
public:
  FunctionLowerer(BytecodeProgram &Prog, BcFunction &BF, const Function &F,
                  const LowerOptions &Opts)
      : Prog(Prog), BF(BF), F(F), Opts(Opts) {}

  void lower() {
    if (Opts.PlanLoop && Opts.PlanLoop->header()->parent() == &F)
      preparePlan();

    // Pass 1: the register plan.
    for (const auto &A : F.arguments())
      Regs[A.get()] = allocReg();
    BF.NumArgs = static_cast<uint16_t>(F.arguments().size());
    if (Opts.Profile)
      PredReg = allocReg();
    for (const auto &B : F.blocks())
      for (const auto &I : B->instructions())
        if (I->type() != Type::Void)
          Regs[I.get()] = allocReg();
    // Phi staging plan.  A block's phis form a parallel copy: incoming
    // edges must write somewhere the block's own phi reads can't observe
    // mid-transfer.  Staging registers (plus a copy at block entry) give
    // that in general, but when no phi of the block uses another phi of
    // the same block as an incoming value, the edge writes can target the
    // phi registers directly and the entry copies disappear — one fewer
    // dispatch per loop iteration for the common single-phi header.
    for (const auto &B : F.blocks()) {
      std::vector<const Instruction *> Phis = leadingPhis(B.get());
      if (Phis.empty())
        continue;
      bool NeedStage = false;
      for (const Instruction *Phi : Phis)
        for (unsigned A = 0; A < Phi->numOperands() && !NeedStage; ++A)
          for (const Instruction *Other : Phis)
            if (Phi->operand(A) == Other) {
              NeedStage = true;
              break;
            }
      for (const Instruction *Phi : Phis)
        Stage[Phi] = NeedStage ? allocReg() : Regs[Phi];
    }

    // Pass 2: code emission.
    for (const auto &B : F.blocks())
      lowerBlock(B.get());
    for (const auto &[Pc, Target] : Fixups)
      BF.Code[Pc].Imm = BlockPc.at(Target);
    assert((!PlannedHeader || (BF.ParSites.front().BodyEntryPc &&
                               BF.ParSites.front().ExitEntryPc)) &&
           "planned loop header edges were not lowered");
    BF.NumRegs = static_cast<uint16_t>(NextReg);
    BF.HasRetValue = F.returnType() != Type::Void;
    // Fusion would step over the events placed between a pair's halves.
    if (!Opts.Profile)
      fusePairs(BF);
  }

private:
  BytecodeProgram &Prog;
  BcFunction &BF;
  const Function &F;
  const LowerOptions &Opts;

  std::map<const Value *, uint16_t> Regs;
  std::map<const Instruction *, uint16_t> Stage;
  std::map<uint64_t, uint16_t> ConstRegs; // raw 64-bit pattern -> register
  std::map<const GlobalVariable *, uint16_t> GlobalRegs;
  std::map<const BasicBlock *, uint32_t> BlockPc;
  std::vector<std::pair<uint32_t, const BasicBlock *>> Fixups;
  uint32_t NextReg = 0;
  const BasicBlock *PlannedHeader = nullptr;
  /// Profiling lowering: the frame register holding the id of the block
  /// control came from (0 at function entry).
  uint16_t PredReg = 0;

  /// ir::verifyModule's register bound (verifyBytecodeLimits in
  /// ir/Verifier.cpp) must stay an upper bound of every allocReg call in
  /// this plan; this check fails loudly, in every build, when it does not.
  uint16_t allocReg() {
    if (NextReg >= 65535)
      reportFatalError("lowering @" + F.name() +
                       ": register plan exceeds 65535, above the verifier's "
                       "bound (ir/Verifier.cpp verifyBytecodeLimits)");
    return static_cast<uint16_t>(NextReg++);
  }

  uint32_t emit(BcOp Op, uint16_t A = 0, uint16_t B = 0, uint16_t C = 0,
                int64_t Imm = 0) {
    BcInst I;
    I.Op = static_cast<uint16_t>(Op);
    I.A = A;
    I.B = B;
    I.C = C;
    I.Imm = Imm;
    BF.Code.push_back(I);
    return static_cast<uint32_t>(BF.Code.size() - 1);
  }

  /// Emits a jump-like instruction whose Imm is \p Target's entry pc,
  /// patched after all blocks are laid out.
  uint32_t emitJump(BcOp Op, const BasicBlock *Target, uint16_t A = 0) {
    uint32_t Pc = emit(Op, A);
    Fixups.emplace_back(Pc, Target);
    return Pc;
  }

  uint16_t constReg(uint64_t Bits) {
    auto It = ConstRegs.find(Bits);
    if (It != ConstRegs.end())
      return It->second;
    uint16_t R = allocReg();
    ConstRegs[Bits] = R;
    BF.ConstInit.emplace_back(R, Bits);
    return R;
  }

  uint16_t regFor(const Value *V) {
    switch (V->kind()) {
    case ValueKind::ConstInt: {
      int64_t I = static_cast<const ConstantInt *>(V)->value();
      uint64_t Bits;
      std::memcpy(&Bits, &I, 8);
      return constReg(Bits);
    }
    case ValueKind::ConstFloat: {
      double D = static_cast<const ConstantFloat *>(V)->value();
      uint64_t Bits;
      std::memcpy(&Bits, &D, 8);
      return constReg(Bits);
    }
    case ValueKind::Global: {
      const auto *G = static_cast<const GlobalVariable *>(V);
      auto It = GlobalRegs.find(G);
      if (It != GlobalRegs.end())
        return It->second;
      uint16_t R = allocReg();
      GlobalRegs[G] = R;
      BF.GlobalInit.emplace_back(R, Prog.GlobalIdx.at(G->name()));
      return R;
    }
    case ValueKind::Argument:
    case ValueKind::Instruction:
      return Regs.at(V);
    }
    PRIVATEER_UNREACHABLE("bad value kind");
  }

  /// Constant-int right-hand sides fold into the instruction's Imm field.
  bool asImm(const Value *V, int64_t &Out) const {
    if (V->kind() != ValueKind::ConstInt)
      return false;
    Out = static_cast<const ConstantInt *>(V)->value();
    return true;
  }

  /// Profiling lowering: the id an event names \p I by.
  int64_t siteId(const Instruction &I) {
    Opts.Profile->Insts.push_back(&I);
    return static_cast<int64_t>(Opts.Profile->Insts.size() - 1);
  }

  uint16_t addAllocSite(const Instruction *I) {
    BcAllocSite S;
    S.HasHeap = I->hasAllocHeap();
    if (S.HasHeap)
      S.Heap = I->allocHeap();
    if (Opts.SiteReductions) {
      auto It = Opts.SiteReductions->find(I);
      if ((S.Reduces = It != Opts.SiteReductions->end()))
        std::tie(S.Elem, S.Op) = It->second;
    }
    BF.AllocSites.push_back(S);
    assert(BF.AllocSites.size() <= 65535 && "sites are values: bounded too");
    return static_cast<uint16_t>(BF.AllocSites.size() - 1);
  }

  /// Creates the function's BcParLoopSite.  The shape the VM compiles in
  /// is what Loop::canonicalIv guarantees.
  void preparePlan() {
    PlannedHeader = Opts.PlanLoop->header();
    [[maybe_unused]] const Instruction *Term = PlannedHeader->terminator();
    assert(PlannedHeader != F.entry() && Term->opcode() == Opcode::CondBr &&
           Opts.PlanLoop->contains(Term->blockRef(0)) &&
           Opts.Iv.ExitBlock == Term->blockRef(1) && Opts.Iv.Phi &&
           Opts.Iv.Begin && Opts.Iv.Bound &&
           "the planned loop must have its canonical IV");
    BF.ParSites.emplace_back();
  }

  /// Leading phis of \p B (the interpreter executes exactly these as the
  /// block's phi group).
  static std::vector<const Instruction *> leadingPhis(const BasicBlock *B) {
    std::vector<const Instruction *> Phis;
    for (const auto &I : B->instructions()) {
      if (I->opcode() != Opcode::Phi)
        break;
      Phis.push_back(I.get());
    }
    return Phis;
  }

  /// Emits the \p From -> \p To edge: phi staging writes (reading the
  /// pre-transfer state), then the transfer itself — a plain jump, or the
  /// planned-loop interception instructions on edges touching the planned
  /// header.  Returns the edge's first pc.
  uint32_t emitEdge(const BasicBlock *From, const BasicBlock *To) {
    uint32_t EdgePc = static_cast<uint32_t>(BF.Code.size());
    for (const Instruction *Phi : leadingPhis(To)) {
      unsigned Arm = 0;
      while (Phi->blockRef(Arm) != From)
        ++Arm; // The verifier gives each predecessor an arm.
      const Value *Src = Phi->operand(Arm);
      int64_t Imm;
      if (asImm(Src, Imm))
        emit(BcOp::MovImm, Stage[Phi], 0, 0, Imm);
      else if (Src->kind() == ValueKind::ConstFloat) {
        double D = static_cast<const ConstantFloat *>(Src)->value();
        int64_t Bits;
        std::memcpy(&Bits, &D, 8);
        emit(BcOp::MovImm, Stage[Phi], 0, 0, Bits);
      } else
        emit(BcOp::Mov, Stage[Phi], regFor(Src));
    }
    if (To == PlannedHeader && !Opts.PlanLoop->contains(From)) {
      // Entering the planned loop from outside: hand iterations to the
      // runtime; falls through to the plain jump when no plan is armed.
      emit(BcOp::ParLoopEnter);
      emitJump(BcOp::Jmp, To);
    } else if (To == PlannedHeader) {
      // Back edge: one planned iteration ends here; plain jump otherwise.
      emitJump(BcOp::IterEnd, To);
    } else {
      emitJump(BcOp::Jmp, To);
    }
    return EdgePc;
  }

  void lowerBlock(const BasicBlock *B) {
    BlockPc[B] = static_cast<uint32_t>(BF.Code.size());
    if (Opts.Profile) {
      // The block's IR count feeds the instruction budget, which counts
      // what the interpreter counts; the verifier bounds it to 16 bits.
      Opts.Profile->Blocks.push_back(B);
      emit(BcOp::EvBlock, PredReg, 0,
           static_cast<uint16_t>(B->instructions().size()),
           static_cast<int64_t>(Opts.Profile->Blocks.size() - 1));
    }
    std::vector<const Instruction *> Phis = leadingPhis(B);
    for (const Instruction *Phi : Phis)
      if (Stage[Phi] != Regs[Phi])
        emit(BcOp::Mov, Regs[Phi], Stage[Phi]);

    const auto &Insts = B->instructions();
    for (size_t Idx = Phis.size(); Idx < Insts.size(); ++Idx) {
      const Instruction &I = *Insts[Idx];
      if (!I.isTerminator()) {
        lowerInst(I);
        continue;
      }
      switch (I.opcode()) {
      case Opcode::Ret:
        if (I.numOperands())
          emit(BcOp::Ret, regFor(I.operand(0)), 0, 1);
        else
          emit(BcOp::Ret, 0, 0, 0);
        break;
      case Opcode::Br:
        emitEdge(B, I.blockRef(0));
        break;
      case Opcode::CondBr: {
        uint16_t Cond = regFor(I.operand(0));
        uint32_t SkipPc = emit(BcOp::JmpIfZ, Cond);
        uint32_t ThenPc = emitEdge(B, I.blockRef(0));
        uint32_t ElsePc = static_cast<uint32_t>(BF.Code.size());
        BF.Code[SkipPc].Imm = ElsePc;
        emitEdge(B, I.blockRef(1));
        if (B == PlannedHeader) {
          BcParLoopSite &Site = BF.ParSites.front();
          Site.BodyEntryPc = ThenPc;
          Site.ExitEntryPc = ElsePc;
          Site.BeginReg = regFor(Opts.Iv.Begin);
          Site.BoundReg = regFor(Opts.Iv.Bound);
          Site.IvReg = regFor(Opts.Iv.Phi);
        }
        break;
      }
      default:
        PRIVATEER_UNREACHABLE("unlowerable terminator");
      }
      return; // Terminator ends the block.
    }
    PRIVATEER_UNREACHABLE("the verifier ends every block in a terminator");
  }

  void lowerIntBinop(const Instruction &I, BcOp RR, BcOp RI) {
    int64_t Imm;
    if (asImm(I.operand(1), Imm))
      emit(RI, Regs[&I], regFor(I.operand(0)), 0, Imm);
    else
      emit(RR, Regs[&I], regFor(I.operand(0)), regFor(I.operand(1)));
  }

  void lowerInst(const Instruction &I) {
    switch (I.opcode()) {
    case Opcode::Alloca: {
      uint16_t Site = addAllocSite(&I);
      emit(BcOp::Alloca, Regs[&I], Site, 0,
           static_cast<int64_t>(I.accessBytes()));
      if (Opts.Profile)
        emit(BcOp::EvAlloc, Regs[&I], constReg(I.accessBytes()), 0,
             siteId(I));
      return;
    }
    case Opcode::Malloc: {
      uint16_t Site = addAllocSite(&I);
      emit(BcOp::Malloc, Regs[&I], Site, regFor(I.operand(0)));
      if (Opts.Profile)
        emit(BcOp::EvAlloc, Regs[&I], regFor(I.operand(0)), 0, siteId(I));
      return;
    }
    case Opcode::Free:
      if (Opts.Profile)
        emit(BcOp::EvFree, regFor(I.operand(0)), 0, 0, siteId(I));
      emit(BcOp::Free, regFor(I.operand(0)));
      return;
    case Opcode::Load: {
      uint64_t Bytes = I.accessBytes();
      uint16_t Ptr = regFor(I.operand(0));
      if (Opts.Profile)
        emit(BcOp::EvLoad, Ptr, 0, static_cast<uint16_t>(Bytes), siteId(I));
      assert((I.type() != Type::F64 || Bytes == 8) &&
             "the verifier makes f64 loads 8 bytes");
      if (Bytes == 8)
        emit(BcOp::Load8, Regs[&I], Ptr);
      else if (I.type() == Type::I64)
        emit(BcOp::LoadSx, Regs[&I], Ptr, static_cast<uint16_t>(Bytes));
      else
        emit(BcOp::LoadZx, Regs[&I], Ptr, static_cast<uint16_t>(Bytes));
      return;
    }
    case Opcode::Store: {
      uint64_t Bytes = I.accessBytes();
      uint16_t Val = regFor(I.operand(0));
      uint16_t Ptr = regFor(I.operand(1));
      if (Opts.Profile)
        emit(BcOp::EvStore, Ptr, 0, static_cast<uint16_t>(Bytes), siteId(I));
      if (Bytes == 8)
        emit(BcOp::Store8, Val, Ptr);
      else
        emit(BcOp::StoreN, Val, Ptr, static_cast<uint16_t>(Bytes));
      return;
    }
    case Opcode::Gep: {
      // ptr + byte offset == wrapping 64-bit add.
      int64_t Imm;
      if (asImm(I.operand(1), Imm))
        emit(BcOp::AddImm, Regs[&I], regFor(I.operand(0)), 0, Imm);
      else
        emit(BcOp::Add, Regs[&I], regFor(I.operand(0)),
             regFor(I.operand(1)));
      return;
    }
    case Opcode::Add:
      lowerIntBinop(I, BcOp::Add, BcOp::AddImm);
      return;
    case Opcode::Sub:
      lowerIntBinop(I, BcOp::Sub, BcOp::SubImm);
      return;
    case Opcode::Mul:
      lowerIntBinop(I, BcOp::Mul, BcOp::MulImm);
      return;
    case Opcode::SDiv:
      lowerIntBinop(I, BcOp::SDiv, BcOp::SDivImm);
      return;
    case Opcode::SRem:
      lowerIntBinop(I, BcOp::SRem, BcOp::SRemImm);
      return;
    case Opcode::And:
      lowerIntBinop(I, BcOp::And, BcOp::AndImm);
      return;
    case Opcode::Or:
      lowerIntBinop(I, BcOp::Or, BcOp::OrImm);
      return;
    case Opcode::Xor:
      lowerIntBinop(I, BcOp::Xor, BcOp::XorImm);
      return;
    case Opcode::Shl:
      lowerIntBinop(I, BcOp::Shl, BcOp::ShlImm);
      return;
    case Opcode::Shr:
      lowerIntBinop(I, BcOp::Shr, BcOp::ShrImm);
      return;
    case Opcode::FAdd:
      emit(BcOp::FAdd, Regs[&I], regFor(I.operand(0)), regFor(I.operand(1)));
      return;
    case Opcode::FSub:
      emit(BcOp::FSub, Regs[&I], regFor(I.operand(0)), regFor(I.operand(1)));
      return;
    case Opcode::FMul:
      emit(BcOp::FMul, Regs[&I], regFor(I.operand(0)), regFor(I.operand(1)));
      return;
    case Opcode::FDiv:
      emit(BcOp::FDiv, Regs[&I], regFor(I.operand(0)), regFor(I.operand(1)));
      return;
    case Opcode::SiToFp:
      emit(BcOp::SiToFp, Regs[&I], regFor(I.operand(0)));
      return;
    case Opcode::FpToSi:
      emit(BcOp::FpToSi, Regs[&I], regFor(I.operand(0)));
      return;
    case Opcode::ICmp: {
      static const BcOp RR[] = {BcOp::CmpEq, BcOp::CmpNe, BcOp::CmpLt,
                                BcOp::CmpLe, BcOp::CmpGt, BcOp::CmpGe};
      static const BcOp RI[] = {BcOp::CmpEqImm, BcOp::CmpNeImm,
                                BcOp::CmpLtImm, BcOp::CmpLeImm,
                                BcOp::CmpGtImm, BcOp::CmpGeImm};
      unsigned P = static_cast<unsigned>(I.cmpPred());
      lowerIntBinop(I, RR[P], RI[P]);
      return;
    }
    case Opcode::FCmp: {
      static const BcOp RR[] = {BcOp::FCmpEq, BcOp::FCmpNe, BcOp::FCmpLt,
                                BcOp::FCmpLe, BcOp::FCmpGt, BcOp::FCmpGe};
      unsigned P = static_cast<unsigned>(I.cmpPred());
      emit(RR[P], Regs[&I], regFor(I.operand(0)), regFor(I.operand(1)));
      return;
    }
    case Opcode::Select:
      emit(BcOp::Select, Regs[&I], regFor(I.operand(0)),
           regFor(I.operand(1)), regFor(I.operand(2)));
      return;
    case Opcode::Call: {
      BcCallSite Site;
      Site.Callee = Prog.FunctionIdx.at(I.callee()->name());
      Site.ArgStart = static_cast<uint32_t>(BF.RegPool.size());
      Site.ArgCount = static_cast<uint16_t>(I.numOperands());
      for (unsigned A = 0; A < I.numOperands(); ++A)
        BF.RegPool.push_back(regFor(I.operand(A)));
      BF.CallSites.push_back(Site);
      bool HasResult = I.type() != Type::Void;
      int64_t Id = Opts.Profile ? siteId(I) : 0;
      if (Opts.Profile)
        emit(BcOp::EvCall, 0, 0, 0, Id);
      emit(BcOp::Call, HasResult ? Regs[&I] : 0, 0, HasResult ? 1 : 0,
           static_cast<int64_t>(BF.CallSites.size() - 1));
      if (Opts.Profile)
        emit(BcOp::EvReturn, 0, 0, 0, Id);
      return;
    }
    case Opcode::Print: {
      BcPrintSite Site;
      Site.Format = I.printFormat();
      Site.ArgStart = static_cast<uint32_t>(BF.RegPool.size());
      Site.ArgCount = static_cast<uint16_t>(I.numOperands());
      for (unsigned A = 0; A < I.numOperands(); ++A)
        BF.RegPool.push_back(regFor(I.operand(A)));
      BF.PrintSites.push_back(std::move(Site));
      emit(BcOp::Print, 0, 0, 0,
           static_cast<int64_t>(BF.PrintSites.size() - 1));
      return;
    }
    case Opcode::CheckHeap: {
      static const BcOp PerClass[] = {
          BcOp::CheckHeapRo,           BcOp::CheckHeapPrivate,
          BcOp::CheckHeapRedux,        BcOp::CheckHeapShortLived,
          BcOp::CheckHeapUnrestricted, BcOp::CheckHeapCommutative};
      static_assert(sizeof(PerClass) / sizeof(PerClass[0]) == kNumHeapKinds,
                    "per-class check table must cover every heap kind");
      HeapKind K = I.expectedHeap();
      emit(PerClass[static_cast<unsigned>(K)], regFor(I.operand(0)), 0, 0,
           static_cast<int64_t>(heapTag(K) << kHeapTagShift));
      return;
    }
    case Opcode::PrivateRead:
      emit(BcOp::PrivRead, regFor(I.operand(0)), 0, 0,
           static_cast<int64_t>(I.accessBytes()));
      return;
    case Opcode::PrivateWrite:
      emit(BcOp::PrivWrite, regFor(I.operand(0)), 0, 0,
           static_cast<int64_t>(I.accessBytes()));
      return;
    case Opcode::ComUpdate:
      // Separation check is fused into the handler: Imm carries the
      // commutative heap's tag bits, C packs the access width and the
      // combining operator.
      emit(BcOp::ComUpdate, regFor(I.operand(1)), regFor(I.operand(0)),
           static_cast<uint16_t>(I.accessBytes() |
                                 (static_cast<unsigned>(I.comOp()) << 4)),
           static_cast<int64_t>(heapTag(HeapKind::Commutative)
                                << kHeapTagShift));
      return;
    case Opcode::SpeculateEq:
      emit(BcOp::SpecEq, regFor(I.operand(0)), regFor(I.operand(1)));
      return;
    case Opcode::PostDep:
      emit(BcOp::PostDep, regFor(I.operand(0)), regFor(I.operand(1)), 0,
           static_cast<int64_t>(I.depChannel()));
      return;
    case Opcode::WaitDep:
      emit(BcOp::WaitDep, Regs[&I], regFor(I.operand(0)), 0,
           static_cast<int64_t>(I.depChannel()));
      return;
    case Opcode::Phi:
    case Opcode::Br:
    case Opcode::CondBr:
    case Opcode::Ret:
      break;
    }
    PRIVATEER_UNREACHABLE("unlowerable opcode");
  }
};

} // namespace

std::unique_ptr<BytecodeProgram>
bytecode::lowerModule(const Module &M, const LowerOptions &Opts) {
  assert(!(Opts.Profile && Opts.PlanLoop) &&
         "a profiling lowering takes no planned loop");
  auto Prog = std::make_unique<BytecodeProgram>();
  for (const auto &G : M.globals()) {
    if (Opts.Profile)
      Opts.Profile->Globals.push_back(G.get());
    Prog->GlobalIdx[G->name()] = static_cast<uint32_t>(Prog->Globals.size());
    BcGlobal BG;
    BG.Name = G->name();
    BG.SizeBytes = G->sizeBytes();
    BG.HasHeap = G->hasAssignedHeap();
    if (BG.HasHeap)
      BG.Heap = G->assignedHeap();
    Prog->Globals.push_back(std::move(BG));
  }
  // Names first so call sites can reference functions lowered later.
  for (const auto &F : M.functions()) {
    Prog->FunctionIdx[F->name()] =
        static_cast<uint32_t>(Prog->Functions.size());
    Prog->Functions.emplace_back();
    Prog->Functions.back().Name = F->name();
  }
  for (size_t Idx = 0; Idx < M.functions().size(); ++Idx)
    FunctionLowerer(*Prog, Prog->Functions[Idx], *M.functions()[Idx], Opts)
        .lower();
  return Prog;
}
