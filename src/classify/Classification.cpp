//===- classify/Classification.cpp ----------------------------------------===//

#include "classify/Classification.h"

#include <algorithm>
#include <optional>

using namespace privateer;
using namespace privateer::classify;
using namespace privateer::analysis;
using namespace privateer::profiling;
using namespace privateer::ir;

namespace {

/// All instructions executed by the loop: its body blocks plus every
/// function reachable through calls from them ("if I is of the form
/// r := call f(...) then recur on f", Algorithm 2).
std::vector<const Instruction *> loopInstructions(const Loop &L,
                                                  const FunctionAnalyses &FA) {
  std::vector<const Instruction *> Out;
  for (BasicBlock *B : L.blocks())
    for (const auto &I : B->instructions())
      Out.push_back(I.get());
  std::set<BasicBlock *> Body(L.blocks().begin(), L.blocks().end());
  for (Function *F : FA.callGraph().reachableFromBlocks(Body))
    for (const auto &B : F->blocks())
      for (const auto &I : B->instructions())
        Out.push_back(I.get());
  return Out;
}

/// Structural address equality: the same SSA value, or geps recomputing
/// the same address (equal bases, equal offsets).
bool sameAddress(const Value *A, const Value *B) {
  if (A == B)
    return true;
  if (A->kind() == ValueKind::ConstInt && B->kind() == ValueKind::ConstInt)
    return static_cast<const ConstantInt *>(A)->value() ==
           static_cast<const ConstantInt *>(B)->value();
  if (A->kind() != ValueKind::Instruction ||
      B->kind() != ValueKind::Instruction)
    return false;
  auto *IA = static_cast<const Instruction *>(A);
  auto *IB = static_cast<const Instruction *>(B);
  if (IA->opcode() != Opcode::Gep || IB->opcode() != Opcode::Gep)
    return false;
  return sameAddress(IA->operand(0), IB->operand(0)) &&
         sameAddress(IA->operand(1), IB->operand(1));
}

/// Number of operand slots referencing each value, across the whole
/// module.  Update recognition needs single-use guarantees: the loaded
/// value must feed only the combine, and the combine only the store —
/// otherwise the old cell value escapes and the update is not a pure fold.
std::map<const Value *, unsigned> countUses(const ir::Module &M) {
  std::map<const Value *, unsigned> Uses;
  for (const auto &F : M.functions())
    for (const auto &B : F->blocks())
      for (const auto &I : B->instructions())
        for (const Value *Op : I->operands())
          ++Uses[Op];
  return Uses;
}

std::optional<ReduxOp> reduxOpForOpcode(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::FAdd:
    return ReduxOp::Add;
  case Opcode::Mul:
  case Opcode::FMul:
    return ReduxOp::Mul;
  case Opcode::And:
    return ReduxOp::And;
  case Opcode::Or:
    return ReduxOp::Or;
  case Opcode::Xor:
    return ReduxOp::Xor;
  default:
    return std::nullopt;
  }
}

/// Recognizes the reduction update ending at \p Store.
///
/// Pattern A (fold):       r = load p; v = op(r, x); store v, q
/// with p, q the same address and op one of add, mul, and, or, xor on
/// i64-typed sign-extending loads of 1-8 bytes, or fadd, fmul on f64 cells
/// (Algorithm 2's shape).
///
/// Pattern B (min/max):    r = load p; c = icmp pred, a, b;
///                         v = select c, t, f; store v, q
/// where {a,b} = {t,f} = {r,x} and pred is an ordering, so v is exactly
/// min(r,x) or max(r,x).
///
/// Both demand matching access widths and single-use chains, so the old
/// value cannot escape and x is independent of r.  Pattern B also demands
/// 8-byte cells: trunc(min(sext(r), x)) stops commuting once x leaves a
/// narrower cell's range, while pattern A's integer operators wrap exactly
/// at any width.
bool matchReduxUpdate(const Instruction *Store,
                      const std::map<const Value *, unsigned> &Uses,
                      const std::set<const Instruction *> &InLoop,
                      ReduxUpdate &Out) {
  auto UseCount = [&](const Value *V) {
    auto It = Uses.find(V);
    return It == Uses.end() ? 0u : It->second;
  };
  auto IsUpdateLoad = [&](const Value *V, Type T, unsigned WantUses) {
    if (V->kind() != ValueKind::Instruction)
      return false;
    auto *Ld = static_cast<const Instruction *>(V);
    if (Ld->opcode() != Opcode::Load || Ld->type() != T ||
        !InLoop.count(Ld) || UseCount(Ld) != WantUses ||
        Ld->accessBytes() != Store->accessBytes() ||
        !sameAddress(Ld->operand(0), Store->operand(1)))
      return false;
    Out.Load = Ld;
    Out.Store = Store;
    return true;
  };

  Value *V = Store->operand(0);
  if (V->kind() != ValueKind::Instruction)
    return false;
  auto *Comb = static_cast<Instruction *>(V);
  if (!InLoop.count(Comb) || UseCount(Comb) != 1)
    return false;

  if (auto Op = reduxOpForOpcode(Comb->opcode())) {
    // Pattern A.  The load feeds only the combine.
    bool Float =
        Comb->opcode() == Opcode::FAdd || Comb->opcode() == Opcode::FMul;
    Type T = Float ? Type::F64 : Type::I64;
    Out.Op = *Op;
    Out.Elem = Float ? ReduxElem::F64 : reduxIntElem(Store->accessBytes());
    return IsUpdateLoad(Comb->operand(0), T, 1) ||
           IsUpdateLoad(Comb->operand(1), T, 1);
  }

  if (Comb->opcode() != Opcode::Select || Store->accessBytes() != 8)
    return false;
  Value *CondV = Comb->operand(0);
  if (CondV->kind() != ValueKind::Instruction)
    return false;
  auto *Cmp = static_cast<Instruction *>(CondV);
  if (Cmp->opcode() != Opcode::ICmp || !InLoop.count(Cmp) ||
      UseCount(Cmp) != 1)
    return false;
  CmpPred Pred = Cmp->cmpPred();
  if (Pred != CmpPred::Lt && Pred != CmpPred::Le && Pred != CmpPred::Gt &&
      Pred != CmpPred::Ge)
    return false;
  Value *A = Cmp->operand(0), *B = Cmp->operand(1);
  Value *T = Comb->operand(1), *F = Comb->operand(2);
  bool Straight = T == A && F == B; // select picks the compare's lhs.
  bool Swapped = T == B && F == A;
  if (!Straight && !Swapped)
    return false;
  // "a < b ? a : b" is min; swapping either the predicate direction or
  // the select arms flips it.
  bool PredIsLess = Pred == CmpPred::Lt || Pred == CmpPred::Le;
  Out.Op = (PredIsLess == Straight) ? ReduxOp::Min : ReduxOp::Max;
  Out.Elem = ReduxElem::I64;
  // One compare operand is the update's load (used by compare + select),
  // the other is the folded-in value.
  return IsUpdateLoad(A, Type::I64, 2) || IsUpdateLoad(B, Type::I64, 2);
}

/// Instruction-level footprint for the dependence-refinement loop of
/// Algorithm 1: (Ra, Wa, Xa) of one instruction.
struct InstFootprint {
  std::set<ObjectKey> R, W, X;
};

InstFootprint instFootprint(const Instruction *I, const Footprint &Fp,
                            const Profile &P) {
  InstFootprint Out;
  const std::set<ObjectKey> &Objs = P.objectsAccessedBy(I);
  if (Fp.ReduxAccesses.count(I)) {
    Out.X = Objs;
    return Out;
  }
  if (I->opcode() == Opcode::Load)
    Out.R = Objs;
  else if (I->opcode() == Opcode::Store)
    Out.W = Objs;
  return Out;
}

std::set<ObjectKey> setUnion(const std::set<ObjectKey> &A,
                             const std::set<ObjectKey> &B) {
  std::set<ObjectKey> Out = A;
  Out.insert(B.begin(), B.end());
  return Out;
}

std::set<ObjectKey> setIntersect(const std::set<ObjectKey> &A,
                                 const std::set<ObjectKey> &B) {
  std::set<ObjectKey> Out;
  std::set_intersection(A.begin(), A.end(), B.begin(), B.end(),
                        std::inserter(Out, Out.begin()));
  return Out;
}

void setSubtract(std::set<ObjectKey> &A, const std::set<ObjectKey> &B) {
  for (const ObjectKey &K : B)
    A.erase(K);
}

} // namespace

Footprint classify::getFootprint(const Loop &L, const FunctionAnalyses &FA,
                                 const Profile &P) {
  Footprint Out;
  std::vector<const Instruction *> Insts = loopInstructions(L, FA);
  std::set<const Instruction *> InLoop(Insts.begin(), Insts.end());

  // Recognize reduction updates first.
  std::map<const Value *, unsigned> Uses =
      countUses(*L.header()->parent()->parent());
  for (const Instruction *I : Insts) {
    ReduxUpdate U;
    if (I->opcode() != Opcode::Store || !matchReduxUpdate(I, Uses, InLoop, U))
      continue;
    Out.ReduxUpdates.push_back(U);
    for (const Instruction *Acc : {U.Load, U.Store}) {
      Out.ReduxAccesses.insert(Acc);
      const auto &Objs = P.objectsAccessedBy(Acc);
      Out.Redux.insert(Objs.begin(), Objs.end());
    }
  }
  // Remaining accesses populate the read and write footprints.
  for (const Instruction *I : Insts) {
    if (Out.ReduxAccesses.count(I))
      continue;
    const auto &Objs = P.objectsAccessedBy(I);
    if (I->opcode() == Opcode::Load)
      Out.Read.insert(Objs.begin(), Objs.end());
    else if (I->opcode() == Opcode::Store)
      Out.Write.insert(Objs.begin(), Objs.end());
  }
  return Out;
}

HeapAssignment classify::classifyLoop(const Loop &L,
                                      const FunctionAnalyses &FA,
                                      const Profile &P,
                                      const std::set<FlowDep> *CoveredDeps,
                                      bool EnableReductions) {
  HeapAssignment HA;
  HA.TheLoop = &L;
  HA.Fp = getFootprint(L, FA, P);
  const Footprint &Fp = HA.Fp;

  // Short-lived: allocated and freed within one iteration of L.
  std::set<ObjectKey> ShortLived;
  for (const ObjectKey &O : setUnion(setUnion(Fp.Read, Fp.Write), Fp.Redux))
    if (P.isShortLived(O, &L))
      ShortLived.insert(O);

  // Reduction heap: objects accessed *only* through recognized updates,
  // all agreeing on operator and element (a cell folded with add here and
  // mul there is order-sensitive across the two operators, so mixed
  // objects are rejected).  (The paper's Algorithm 1 pseudo-code tests
  // membership in the read/write footprints, but §4.2's prose — "If the
  // compiler does not expect an object in the reduction set to be accessed
  // by loads or stores elsewhere in the loop" — makes the intent clear;
  // the conference text's condition appears to have lost a negation.)
  std::set<ObjectKey> Redux;
  if (EnableReductions) {
    std::map<ObjectKey, std::pair<ReduxElem, ReduxOp>> Want;
    std::set<ObjectKey> Mixed;
    for (const ReduxUpdate &U : Fp.ReduxUpdates)
      for (const Instruction *Acc : {U.Store, U.Load})
        for (const ObjectKey &O : P.objectsAccessedBy(Acc)) {
          auto [It, New] = Want.try_emplace(O, U.Elem, U.Op);
          if (!New && It->second != std::make_pair(U.Elem, U.Op))
            Mixed.insert(O);
        }
    for (const ObjectKey &O : Fp.Redux)
      if (!Fp.Read.count(O) && !Fp.Write.count(O) && !ShortLived.count(O) &&
          !Mixed.count(O)) {
        Redux.insert(O);
        HA.ReduxOps[O] = Want[O];
      }
  }
  // Rejected update objects (or all of them when reductions are off) fall
  // back into the ordinary footprints and classify as plain loads and
  // stores would — typically private, where cross-worker updates of one
  // cell surface as misspeculation.
  std::set<ObjectKey> ReadFp = Fp.Read;
  std::set<ObjectKey> WriteFp = Fp.Write;
  for (const ObjectKey &O : Fp.Redux)
    if (!Redux.count(O)) {
      ReadFp.insert(O);
      WriteFp.insert(O);
    }

  // Cross-iteration flow dependences: privatization cannot remove them;
  // value prediction sometimes can (§4.3 refinement, used by dijkstra's
  // empty-queue speculation).
  std::set<ObjectKey> Unrestricted;
  std::map<std::pair<const GlobalVariable *, uint64_t>, ValuePrediction>
      Preds;
  for (const FlowDep &D : P.crossIterationFlowDeps(&L)) {
    // DOACROSS carve-out: dependences the token-forwarding rewrite covers
    // are satisfied by the rings, not by memory; their objects privatize
    // normally (the store still merges by timestamp at commit).
    if (CoveredDeps && CoveredDeps->count(D)) {
      HA.Notes.push_back("flow dep %" + D.Src->name() + " -> %" +
                         D.Dst->name() + " forwarded by doacross tokens");
      continue;
    }
    InstFootprint A = instFootprint(D.Src, Fp, P);
    InstFootprint B = instFootprint(D.Dst, Fp, P);
    std::set<ObjectKey> F = setIntersect(setUnion(A.W, A.X),
                                         setUnion(B.R, B.X));
    setSubtract(F, ShortLived);
    setSubtract(F, Redux);
    if (F.empty())
      continue;

    // Value-prediction refinement: if the consuming load's first read per
    // iteration is a constant at a statically known address, speculate it
    // and drop the dependence (the runtime still validates).
    if (const PredictableLoad *PL = P.predictableFirstRead(D.Dst, &L)) {
      const GlobalVariable *G = nullptr;
      uint64_t Offset = 0;
      for (const ObjectKey &O : P.objectsAccessedBy(D.Dst))
        if (O.Global && PL->Address >= P.globalBase(O.Global) &&
            PL->Address + PL->Bytes <=
                P.globalBase(O.Global) + O.Global->sizeBytes()) {
          G = O.Global;
          Offset = PL->Address - P.globalBase(O.Global);
          break;
        }
      if (G) {
        auto [It, Inserted] = Preds.try_emplace(
            {G, Offset},
            ValuePrediction{D.Dst, G, Offset, PL->Bytes, PL->Value});
        if (Inserted || (It->second.Value == PL->Value &&
                         It->second.Bytes == PL->Bytes)) {
          HA.Notes.push_back("value-predicted @" + G->name() + "+" +
                             std::to_string(Offset) + " == " +
                             std::to_string(PL->Value));
          continue;
        }
      }
    }
    Unrestricted.insert(F.begin(), F.end());
  }

  // Private: everything else written.  Read-only: everything else read.
  std::set<ObjectKey> Private = WriteFp;
  setSubtract(Private, ShortLived);
  setSubtract(Private, Unrestricted);
  setSubtract(Private, Redux);
  std::set<ObjectKey> ReadOnly = ReadFp;
  setSubtract(ReadOnly, ShortLived);
  setSubtract(ReadOnly, Unrestricted);
  setSubtract(ReadOnly, Redux);
  setSubtract(ReadOnly, Private);

  for (const ObjectKey &O : ShortLived)
    HA.ObjectHeaps[O] = HeapKind::ShortLived;
  for (const ObjectKey &O : Redux)
    HA.ObjectHeaps[O] = HeapKind::Redux;
  for (const ObjectKey &O : Unrestricted)
    HA.ObjectHeaps[O] = HeapKind::Unrestricted;
  for (const ObjectKey &O : Private)
    HA.ObjectHeaps[O] = HeapKind::Private;
  for (const ObjectKey &O : ReadOnly)
    HA.ObjectHeaps[O] = HeapKind::ReadOnly;

  for (const auto &[GO, Pred] : Preds) {
    (void)GO;
    HA.Predictions.push_back(Pred);
  }

  for (const auto &[O, ElemOp] : HA.ReduxOps)
    HA.Notes.push_back(std::string("reduction ") + O.str() + ": " +
                       reduxOpName(ElemOp.second) + "/" +
                       std::to_string(reduxElemSize(ElemOp.first)) +
                       "B, combined at commit");

  HA.Parallelizable = Unrestricted.empty();
  if (!HA.Parallelizable)
    HA.Notes.push_back("unrestricted objects remain: " +
                       std::to_string(Unrestricted.size()));
  return HA;
}

std::vector<HeapAssignment>
classify::selectLoops(const std::vector<HeapAssignment> &Candidates,
                      const FunctionAnalyses &FA, const Profile &P) {
  // Heaviest (by profiled weight) parallelizable loops first.
  std::vector<const HeapAssignment *> Order;
  for (const HeapAssignment &HA : Candidates)
    if (HA.Parallelizable)
      Order.push_back(&HA);
  std::sort(Order.begin(), Order.end(),
            [&](const HeapAssignment *A, const HeapAssignment *B) {
              return P.loopStats(A->TheLoop).Weight >
                     P.loopStats(B->TheLoop).Weight;
            });

  auto MayBeSimultaneouslyActive = [&](const Loop *A, const Loop *B) {
    // Nested in the same function?
    for (BasicBlock *Blk : A->blocks())
      if (B->contains(Blk))
        return true;
    for (BasicBlock *Blk : B->blocks())
      if (A->contains(Blk))
        return true;
    // Or reachable through calls from the other's body?
    std::set<BasicBlock *> ABody(A->blocks().begin(), A->blocks().end());
    for (Function *F : FA.callGraph().reachableFromBlocks(ABody))
      if (F == B->header()->parent())
        return true;
    std::set<BasicBlock *> BBody(B->blocks().begin(), B->blocks().end());
    for (Function *F : FA.callGraph().reachableFromBlocks(BBody))
      if (F == A->header()->parent())
        return true;
    return false;
  };

  auto HeapsConflict = [](const HeapAssignment &A, const HeapAssignment &B) {
    for (const auto &[O, K] : A.ObjectHeaps) {
      auto It = B.ObjectHeaps.find(O);
      if (It != B.ObjectHeaps.end() && It->second != K)
        return true;
    }
    return false;
  };

  std::vector<HeapAssignment> Selected;
  for (const HeapAssignment *HA : Order) {
    bool Compatible = true;
    for (const HeapAssignment &S : Selected) {
      if (MayBeSimultaneouslyActive(HA->TheLoop, S.TheLoop) ||
          HeapsConflict(*HA, S)) {
        Compatible = false;
        break;
      }
    }
    if (Compatible)
      Selected.push_back(*HA);
  }
  return Selected;
}
