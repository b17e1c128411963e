//===- analysis/DepDistance.cpp -------------------------------------------===//

#include "analysis/DepDistance.h"

#include <algorithm>

using namespace privateer;
using namespace privateer::analysis;
using namespace privateer::ir;
using namespace privateer::profiling;

namespace {

/// A signed-i64 interval, or "unknown".
struct Interval {
  int64_t Lo = 0;
  int64_t Hi = 0;
  bool Known = false;
};

Interval unknown() { return Interval(); }
Interval exact(int64_t V) { return Interval{V, V, true}; }

bool addOverflows(int64_t A, int64_t B, int64_t &Out) {
  return __builtin_add_overflow(A, B, &Out);
}

/// Tiny interval analysis over the index expression: just enough to prove
/// the dependence-distance term of a generated recurrence (masks, moduli,
/// and small affine combinations) lies in [1, depchan::kMaxDistance].
Interval intervalOf(const Value *V, unsigned Depth = 0) {
  if (Depth > 8)
    return unknown();
  if (V->kind() == ValueKind::ConstInt)
    return exact(static_cast<const ConstantInt *>(V)->value());
  if (V->kind() != ValueKind::Instruction)
    return unknown();
  const auto *I = static_cast<const Instruction *>(V);
  auto Op = [&](unsigned N) { return intervalOf(I->operand(N), Depth + 1); };
  auto ConstOp = [&](unsigned N, int64_t &C) {
    if (I->operand(N)->kind() != ValueKind::ConstInt)
      return false;
    C = static_cast<const ConstantInt *>(I->operand(N))->value();
    return true;
  };
  switch (I->opcode()) {
  case Opcode::And: {
    // x & m with m >= 0 lands in [0, m] for any x.
    int64_t M;
    if ((ConstOp(1, M) || ConstOp(0, M)) && M >= 0)
      return Interval{0, M, true};
    return unknown();
  }
  case Opcode::SRem: {
    int64_t C;
    if (!ConstOp(1, C) || C <= 0)
      return unknown();
    Interval L = Op(0);
    if (L.Known && L.Lo >= 0)
      return Interval{0, std::min(C - 1, L.Hi), true};
    return Interval{-(C - 1), C - 1, true};
  }
  case Opcode::Add: {
    Interval A = Op(0), B = Op(1);
    int64_t Lo, Hi;
    if (!A.Known || !B.Known || addOverflows(A.Lo, B.Lo, Lo) ||
        addOverflows(A.Hi, B.Hi, Hi))
      return unknown();
    return Interval{Lo, Hi, true};
  }
  case Opcode::Sub: {
    Interval A = Op(0), B = Op(1);
    int64_t Lo, Hi;
    if (!A.Known || !B.Known || __builtin_sub_overflow(A.Lo, B.Hi, &Lo) ||
        __builtin_sub_overflow(A.Hi, B.Lo, &Hi))
      return unknown();
    return Interval{Lo, Hi, true};
  }
  case Opcode::Mul: {
    int64_t C;
    unsigned Other;
    if (ConstOp(1, C))
      Other = 0;
    else if (ConstOp(0, C))
      Other = 1;
    else
      return unknown();
    Interval A = Op(Other);
    int64_t Lo, Hi;
    if (C < 0 || !A.Known || A.Lo < 0 ||
        __builtin_mul_overflow(A.Lo, C, &Lo) ||
        __builtin_mul_overflow(A.Hi, C, &Hi))
      return unknown();
    return Interval{Lo, Hi, true};
  }
  case Opcode::Shr: {
    int64_t S;
    Interval A = Op(0);
    if (!ConstOp(1, S) || S < 0 || S > 63 || !A.Known || A.Lo < 0)
      return unknown();
    return Interval{A.Lo >> S, A.Hi >> S, true};
  }
  default:
    return unknown();
  }
}

/// Matches \p Off as Scale * Index (Mul/Shl by a constant, or the index
/// itself at scale one).
bool matchScaled(Value *Off, Value *&Index, uint64_t &Scale) {
  if (Off->kind() == ValueKind::Instruction) {
    auto *I = static_cast<Instruction *>(Off);
    if (I->opcode() == Opcode::Mul) {
      for (unsigned A = 0; A < 2; ++A)
        if (I->operand(A)->kind() == ValueKind::ConstInt) {
          int64_t C = static_cast<ConstantInt *>(I->operand(A))->value();
          if (C > 0) {
            Index = I->operand(1 - A);
            Scale = static_cast<uint64_t>(C);
            return true;
          }
        }
    }
    if (I->opcode() == Opcode::Shl &&
        I->operand(1)->kind() == ValueKind::ConstInt) {
      int64_t S = static_cast<ConstantInt *>(I->operand(1))->value();
      if (S >= 0 && S < 32) {
        Index = I->operand(0);
        Scale = 1ull << S;
        return true;
      }
    }
  }
  Index = Off;
  Scale = 1;
  return true;
}

/// Matches \p J as IV - x with x statically proven in
/// [1, depchan::kMaxDistance]; reports the proven [DMin, DMax].
bool matchBackIndex(Value *J, const Instruction *IvPhi, uint64_t &DMin,
                    uint64_t &DMax) {
  if (J->kind() != ValueKind::Instruction)
    return false;
  auto *I = static_cast<Instruction *>(J);
  Interval X = unknown();
  if (I->opcode() == Opcode::Sub && I->operand(0) == IvPhi)
    X = intervalOf(I->operand(1));
  else if (I->opcode() == Opcode::Add && I->operand(0) == IvPhi &&
           I->operand(1)->kind() == ValueKind::ConstInt)
    X = exact(-static_cast<ConstantInt *>(I->operand(1))->value());
  else if (I->opcode() == Opcode::Add && I->operand(1) == IvPhi &&
           I->operand(0)->kind() == ValueKind::ConstInt)
    X = exact(-static_cast<ConstantInt *>(I->operand(0))->value());
  if (!X.Known || X.Lo < 1 ||
      X.Hi > static_cast<int64_t>(depchan::kMaxDistance))
    return false;
  DMin = static_cast<uint64_t>(X.Lo);
  DMax = static_cast<uint64_t>(X.Hi);
  return true;
}

/// The gep underneath a memory access's pointer operand, or null.
Instruction *gepOf(Value *Ptr) {
  if (Ptr->kind() != ValueKind::Instruction)
    return nullptr;
  auto *I = static_cast<Instruction *>(Ptr);
  return I->opcode() == Opcode::Gep ? I : nullptr;
}

/// All memory instructions the loop can execute: body blocks plus
/// functions reachable through calls (mirrors the privatizer's
/// instrumentation scope).
std::vector<Instruction *> memoryScope(const Loop &L,
                                       const FunctionAnalyses &FA) {
  std::vector<Instruction *> Out;
  auto Collect = [&](const BasicBlock &B) {
    for (const auto &I : B.instructions())
      if (I->opcode() == Opcode::Load || I->opcode() == Opcode::Store)
        Out.push_back(I.get());
  };
  for (BasicBlock *B : L.blocks())
    Collect(*B);
  std::set<BasicBlock *> Body(L.blocks().begin(), L.blocks().end());
  for (Function *F : FA.callGraph().reachableFromBlocks(Body))
    for (const auto &B : F->blocks())
      Collect(*B);
  return Out;
}

bool intersects(const std::set<ObjectKey> &A, const std::set<ObjectKey> &B) {
  for (const ObjectKey &K : A)
    if (B.count(K))
      return true;
  return false;
}

} // namespace

DoacrossPlan analysis::planDoacross(const Loop &L, const FunctionAnalyses &FA,
                                    const Profile &P) {
  DoacrossPlan Plan;
  Plan.TheLoop = &L;
  const Function *F = L.header()->parent();
  const Cfg &C = FA.cfg(F);
  const DominatorTree &DT = FA.domTree(F);
  auto Reject = [&](const std::string &Why) {
    Plan.WhyNot.push_back(Why);
    return Plan;
  };

  auto Iv = L.canonicalIv(C);
  if (!Iv)
    return Reject("no canonical induction variable");
  Plan.Iv = *Iv;
  if (L.latches().size() != 1)
    return Reject("multiple latches");
  BasicBlock *Latch = L.latches().front();
  // Every exit must leave through the header's bound check: the rewrite
  // assumes each iteration that starts also reaches the latch (and so
  // posts its tokens).
  for (BasicBlock *B : L.blocks())
    for (BasicBlock *S : B->successors())
      if (!L.contains(S) && B != L.header())
        return Reject("side exit from block " + B->name());
  Instruction *HeaderTerm = L.header()->terminator();
  BasicBlock *BodyEntry = HeaderTerm->blockRef(0);
  if (!L.contains(BodyEntry))
    return Reject("header's true successor leaves the loop");

  uint32_t NextChannel = 0;
  uint64_t MinDist = UINT64_MAX;

  // --- Loop-carried scalar recurrences: non-IV header phis. ---------------
  for (const auto &I : L.header()->instructions()) {
    if (I->opcode() != Opcode::Phi)
      break;
    Instruction *Phi = I.get();
    if (Phi == Plan.Iv.Phi)
      continue;
    if (Phi->type() != Type::I64)
      return Reject("carried phi %" + Phi->name() + " is not i64");
    Value *Init = nullptr, *Next = nullptr;
    for (unsigned A = 0; A < Phi->numBlockRefs(); ++A) {
      if (L.contains(Phi->blockRef(A)))
        Next = Phi->operand(A);
      else
        Init = Phi->operand(A);
    }
    if (!Init || !Next)
      return Reject("carried phi %" + Phi->name() +
                    " lacks a preheader or latch incoming");
    // Every use must be reachable from the forwarded value's definition
    // at the top of the body-entry block.  Uses in other header phis are
    // latch-incoming by SSA and therefore fine.
    for (const auto &B : F->blocks())
      for (const auto &U : B->instructions()) {
        if (U.get() == Phi)
          continue;
        bool Uses = false;
        for (Value *Op : U->operands())
          Uses |= Op == Phi;
        if (!Uses)
          continue;
        if (!L.contains(U.get()))
          return Reject("carried phi %" + Phi->name() +
                        " is live out of the loop");
        bool HeaderPhi = U->opcode() == Opcode::Phi &&
                         U->parent() == L.header();
        if (!HeaderPhi && !DT.dominates(BodyEntry, U->parent()))
          return Reject("carried phi %" + Phi->name() +
                        " is used outside the iteration body");
      }
    ScalarCarry SC;
    SC.Phi = Phi;
    SC.Init = Init;
    SC.Next = Next;
    SC.Channel = NextChannel++;
    Plan.Scalars.push_back(SC);
    MinDist = std::min<uint64_t>(MinDist, 1);
  }

  // --- Array recurrences: profiled flow deps with provable distance. ------
  std::vector<Instruction *> Mem = memoryScope(L, FA);
  std::map<const Instruction *, uint32_t> StoreChannel;
  for (const FlowDep &D : P.crossIterationFlowDeps(&L)) {
    if (D.Src->opcode() != Opcode::Store || D.Dst->opcode() != Opcode::Load)
      continue;
    if (!L.contains(D.Src) || !L.contains(D.Dst))
      continue; // In a callee: the IV is out of reach there.
    if (D.Src->accessBytes() != 8 || D.Dst->accessBytes() != 8 ||
        D.Dst->type() != Type::I64)
      continue; // Tokens carry one raw 64-bit value.
    // The producing iteration must always post: its store has to run on
    // every path through an iteration.
    if (!DT.dominates(D.Src->parent(), Latch))
      continue;

    Instruction *SGep = gepOf(D.Src->operand(1));
    Instruction *LGep = gepOf(D.Dst->operand(0));
    if (!SGep || !LGep || SGep->operand(0) != LGep->operand(0))
      continue;
    Value *SIdx = nullptr, *LIdx = nullptr;
    uint64_t SScale = 0, LScale = 0;
    matchScaled(SGep->operand(1), SIdx, SScale);
    matchScaled(LGep->operand(1), LIdx, LScale);
    // The store must index by the IV itself (element j written exactly by
    // iteration j), the load by IV - x, with non-overlapping elements.
    if (SIdx != Plan.Iv.Phi || SScale != LScale || SScale < 8)
      continue;
    uint64_t DMin = 0, DMax = 0;
    if (!matchBackIndex(LIdx, Plan.Iv.Phi, DMin, DMax))
      continue;

    // Single writer: no other store in the loop's scope may touch the
    // objects this dependence flows through.
    const std::set<ObjectKey> &SrcObjs = P.objectsAccessedBy(D.Src);
    bool Clobbered = false;
    for (Instruction *M : Mem)
      if (M != D.Src && M->opcode() == Opcode::Store &&
          intersects(P.objectsAccessedBy(M), SrcObjs))
        Clobbered = true;
    if (Clobbered)
      continue;

    auto [It, Inserted] = StoreChannel.try_emplace(D.Src, NextChannel);
    if (Inserted)
      ++NextChannel;
    ArrayCarry AC;
    AC.Store = const_cast<Instruction *>(D.Src);
    AC.Load = const_cast<Instruction *>(D.Dst);
    AC.TargetIter = LIdx;
    AC.Channel = It->second;
    AC.MinDistance = DMin;
    AC.MaxDistance = DMax;
    Plan.Arrays.push_back(AC);
    Plan.Covered.insert(D);
    MinDist = std::min(MinDist, DMin);
  }

  Plan.NumChannels = NextChannel;
  Plan.MinDistance = MinDist == UINT64_MAX ? 0 : MinDist;
  if (Plan.NumChannels == 0)
    Plan.WhyNot.push_back("no rewritable carried dependences");
  return Plan;
}
