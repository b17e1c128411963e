//===- analysis/LoopInfo.cpp ----------------------------------------------===//

#include "analysis/LoopInfo.h"

#include <algorithm>

using namespace privateer;
using namespace privateer::analysis;
using namespace privateer::ir;

LoopInfo::LoopInfo(const Cfg &C, const DominatorTree &DT) {
  // Find back edges: T -> H where H dominates T.
  std::map<BasicBlock *, std::vector<BasicBlock *>> BackEdges;
  for (BasicBlock *B : C.reversePostOrder())
    for (BasicBlock *S : C.successors(B))
      if (DT.dominates(S, B))
        BackEdges[S].push_back(B);

  // One natural loop per header; merge bodies of multiple back edges.
  unsigned NextId = 0;
  for (auto &[Header, Latches] : BackEdges) {
    auto L = std::make_unique<Loop>(Header, NextId++);
    L->Latches = Latches;
    L->Body.insert(Header);
    std::vector<BasicBlock *> Work(Latches.begin(), Latches.end());
    while (!Work.empty()) {
      BasicBlock *B = Work.back();
      Work.pop_back();
      if (!L->Body.insert(B).second)
        continue;
      for (BasicBlock *P : C.predecessors(B))
        if (P != Header)
          Work.push_back(P);
    }
    Loops.push_back(std::move(L));
  }

  // Nesting: loop A is inside B iff B's body contains A's header and the
  // loops differ.  Parent = smallest containing loop.
  for (auto &A : Loops) {
    Loop *Best = nullptr;
    for (auto &B : Loops) {
      if (A.get() == B.get() || !B->Body.count(A->Hdr))
        continue;
      if (!Best || B->Body.size() < Best->Body.size())
        Best = B.get();
    }
    A->ParentLoop = Best;
    if (Best)
      Best->Children.push_back(A.get());
  }

  // Innermost map.
  for (auto &L : Loops)
    for (BasicBlock *B : L->Body) {
      auto It = Innermost.find(B);
      if (It == Innermost.end() ||
          It->second->Body.size() > L->Body.size())
        Innermost[B] = L.get();
    }
}

Loop *LoopInfo::loopFor(const BasicBlock *B) const {
  auto It = Innermost.find(B);
  return It == Innermost.end() ? nullptr : It->second;
}

std::vector<Loop *> LoopInfo::topLevel() const {
  std::vector<Loop *> Out;
  for (const auto &L : Loops)
    if (!L->parent())
      Out.push_back(L.get());
  return Out;
}

BasicBlock *Loop::preheader(const Cfg &C) const {
  BasicBlock *Pre = nullptr;
  for (BasicBlock *P : C.predecessors(Hdr)) {
    if (contains(P))
      continue;
    if (Pre)
      return nullptr; // Multiple out-of-loop predecessors.
    Pre = P;
  }
  return Pre;
}

std::vector<BasicBlock *> Loop::exitBlocks(const Cfg &C) const {
  std::vector<BasicBlock *> Out;
  for (BasicBlock *B : Body)
    for (BasicBlock *S : C.successors(B))
      if (!contains(S) && std::find(Out.begin(), Out.end(), S) == Out.end())
        Out.push_back(S);
  return Out;
}

std::optional<Loop::CanonicalIv> Loop::canonicalIv(const Cfg & /*C*/) const {
  // The function entry cannot be entered from outside the loop.
  if (Hdr == Hdr->parent()->entry())
    return std::nullopt;
  // Header terminator: condbr (icmp lt IV, Bound), body, exit.
  Instruction *Term = Hdr->terminator();
  if (!Term || Term->opcode() != Opcode::CondBr)
    return std::nullopt;
  if (contains(Term->blockRef(0)) == contains(Term->blockRef(1)))
    return std::nullopt;
  bool TrueStays = contains(Term->blockRef(0));
  Value *CondV = Term->operand(0);
  if (CondV->kind() != ValueKind::Instruction)
    return std::nullopt;
  auto *Cond = static_cast<Instruction *>(CondV);
  if (Cond->opcode() != Opcode::ICmp || Cond->cmpPred() != CmpPred::Lt ||
      !TrueStays)
    return std::nullopt;

  Value *IvV = Cond->operand(0);
  if (IvV->kind() != ValueKind::Instruction)
    return std::nullopt;
  auto *Iv = static_cast<Instruction *>(IvV);
  if (Iv->opcode() != Opcode::Phi || Iv->parent() != Hdr)
    return std::nullopt;

  CanonicalIv Out;
  Out.Phi = Iv;
  Out.Bound = Cond->operand(1);
  Out.ExitBlock = Term->blockRef(1);
  for (unsigned A = 0; A < Iv->numOperands(); ++A) {
    Value *In = Iv->operand(A);
    if (contains(Iv->blockRef(A))) {
      // Latch value must be IV + 1.
      if (In->kind() != ValueKind::Instruction)
        return std::nullopt;
      auto *Inc = static_cast<Instruction *>(In);
      if (Inc->opcode() != Opcode::Add)
        return std::nullopt;
      Value *A0 = Inc->operand(0), *A1 = Inc->operand(1);
      auto IsOne = [](Value *V) {
        return V->kind() == ValueKind::ConstInt &&
               static_cast<ConstantInt *>(V)->value() == 1;
      };
      if (!((A0 == Iv && IsOne(A1)) || (A1 == Iv && IsOne(A0))))
        return std::nullopt;
      Out.Increment = Inc;
    } else {
      Out.Begin = In;
    }
  }
  if (!Out.Begin || !Out.Increment)
    return std::nullopt;
  return Out;
}
