//===- transform/Doacross.cpp ---------------------------------------------===//

#include "transform/Doacross.h"

using namespace privateer;
using namespace privateer::transform;
using namespace privateer::analysis;
using namespace privateer::ir;

namespace {

/// Replaces every operand use of \p From in \p F with \p To, except in
/// \p Keep (the select that reads the original value as its fallback arm).
void replaceUses(Function &F, Value *From, Value *To,
                 const Instruction *Keep) {
  for (const auto &B : F.blocks())
    for (const auto &I : B->instructions()) {
      if (I.get() == From || I.get() == Keep)
        continue;
      for (unsigned A = 0; A < I->numOperands(); ++A)
        if (I->operand(A) == From)
          I->setOperand(A, To);
    }
}

std::unique_ptr<Instruction> makeWaitDep(Value *Iter, uint32_t Chan,
                                         std::string Name) {
  auto W = std::make_unique<Instruction>(Opcode::WaitDep, Type::I64,
                                         std::move(Name));
  W->addOperand(Iter);
  W->setDepChannel(Chan);
  return W;
}

std::unique_ptr<Instruction> makePostDep(Value *Iter, Value *V,
                                         uint32_t Chan) {
  auto P = std::make_unique<Instruction>(Opcode::PostDep, Type::Void);
  P->addOperand(Iter);
  P->addOperand(V);
  P->setDepChannel(Chan);
  return P;
}

} // namespace

DoacrossStats transform::applyDoacross(Module &M, const DoacrossPlan &Plan) {
  DoacrossStats Stats;
  if (!Plan.TheLoop) {
    Stats.Errors.push_back("doacross plan has no loop");
    return Stats;
  }
  const Loop &L = *Plan.TheLoop;
  Function &F = *L.header()->parent();
  Instruction *Iv = Plan.Iv.Phi;
  Value *Begin = Plan.Iv.Begin;
  BasicBlock *BodyEntry = L.header()->terminator()->blockRef(0);
  BasicBlock *Latch = L.latches().empty() ? nullptr : L.latches().front();
  if (!Latch || !L.contains(BodyEntry)) {
    Stats.Errors.push_back("doacross plan lost its loop shape");
    return Stats;
  }
  Stats.Channels = Plan.NumChannels;

  // --- Scalar recurrences. ------------------------------------------------
  // Insert every carry's forwarding code first, then reroute uses, then
  // delete the phis: one carry's latch-incoming value may be another
  // carried phi, and the postdep referencing it must be rerouted to that
  // phi's select before the phi dies.
  size_t Pos = 0;
  while (Pos < BodyEntry->instructions().size() &&
         BodyEntry->instructions()[Pos]->opcode() == Opcode::Phi)
    ++Pos;
  std::vector<std::pair<Instruction *, Instruction *>> Retired; // phi, sel
  for (const ScalarCarry &SC : Plan.Scalars) {
    std::string Tag = "dx" + std::to_string(SC.Channel);

    auto First = std::make_unique<Instruction>(Opcode::ICmp, Type::I64,
                                               Tag + ".first");
    First->setCmpPred(CmpPred::Eq);
    First->addOperand(Iv);
    First->addOperand(Begin);
    Instruction *FirstI = BodyEntry->insertAt(Pos++, std::move(First));

    auto Prev =
        std::make_unique<Instruction>(Opcode::Sub, Type::I64, Tag + ".prev");
    Prev->addOperand(Iv);
    Prev->addOperand(M.constInt(1));
    Instruction *PrevI = BodyEntry->insertAt(Pos++, std::move(Prev));

    Instruction *TokI = BodyEntry->insertAt(
        Pos++, makeWaitDep(PrevI, SC.Channel, Tag + ".tok"));

    auto Sel = std::make_unique<Instruction>(Opcode::Select, Type::I64,
                                             Tag + ".carry");
    Sel->addOperand(FirstI);
    Sel->addOperand(SC.Init);
    Sel->addOperand(TokI);
    Instruction *SelI = BodyEntry->insertAt(Pos++, std::move(Sel));

    // Post the next iteration's live-in where every iteration passes.
    Latch->insertAt(Latch->indexOf(Latch->terminator()),
                    makePostDep(Iv, SC.Next, SC.Channel));

    Retired.push_back({SC.Phi, SelI});
    ++Stats.ScalarCarries;
  }
  for (const auto &[Phi, Sel] : Retired)
    replaceUses(F, Phi, Sel, nullptr);
  for (const auto &[Phi, Sel] : Retired) {
    (void)Sel;
    L.header()->removeAt(L.header()->indexOf(Phi));
  }

  // --- Array recurrences. -------------------------------------------------
  std::set<const Instruction *> Posted;
  for (const ArrayCarry &AC : Plan.Arrays) {
    std::string Tag = "da" + std::to_string(AC.Channel);
    BasicBlock *B = AC.Load->parent();

    auto Pre =
        std::make_unique<Instruction>(Opcode::ICmp, Type::I64, Tag + ".pre");
    Pre->setCmpPred(CmpPred::Lt);
    Pre->addOperand(AC.TargetIter);
    Pre->addOperand(Begin);
    Instruction *PreI =
        B->insertAt(B->indexOf(AC.Load), std::move(Pre));

    Instruction *TokI =
        B->insertAt(B->indexOf(AC.Load) + 1,
                    makeWaitDep(AC.TargetIter, AC.Channel, Tag + ".tok"));

    auto Sel = std::make_unique<Instruction>(Opcode::Select, Type::I64,
                                             Tag + ".fwd");
    Sel->addOperand(PreI);
    Sel->addOperand(AC.Load);
    Sel->addOperand(TokI);
    Instruction *SelI =
        B->insertAt(B->indexOf(TokI) + 1, std::move(Sel));

    replaceUses(F, AC.Load, SelI, SelI);

    if (Posted.insert(AC.Store).second) {
      BasicBlock *SB = AC.Store->parent();
      SB->insertAt(SB->indexOf(AC.Store) + 1,
                   makePostDep(Iv, AC.Store->operand(0), AC.Channel));
    }
    ++Stats.ArrayCarries;
  }

  return Stats;
}
