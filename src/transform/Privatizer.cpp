//===- transform/Privatizer.cpp -------------------------------------------===//

#include "transform/Privatizer.h"

#include <algorithm>
#include <map>

using namespace privateer;
using namespace privateer::transform;
using namespace privateer::classify;
using namespace privateer::analysis;
using namespace privateer::profiling;
using namespace privateer::ir;

namespace {

/// Instructions the loop executes: body blocks plus functions reachable
/// through calls (which also run outside the loop; the inserted checks
/// are no-ops there).
std::vector<Instruction *> instrumentationScope(const Loop &L,
                                                const FunctionAnalyses &FA) {
  std::vector<Instruction *> Out;
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

/// §4.5: "the compiler finds every static use of a pointer within the
/// parallel region and traces back to the static definition of that
/// pointer" — checks provable at compile time are elided.
bool provablyInHeap(const Value *Ptr, HeapKind K) {
  while (true) {
    switch (Ptr->kind()) {
    case ValueKind::Global: {
      const auto *G = static_cast<const GlobalVariable *>(Ptr);
      return G->hasAssignedHeap() && G->assignedHeap() == K;
    }
    case ValueKind::Instruction: {
      const auto *I = static_cast<const Instruction *>(Ptr);
      if (I->opcode() == Opcode::Gep) {
        Ptr = I->operand(0); // Within-object arithmetic keeps the tag.
        continue;
      }
      if (I->opcode() == Opcode::Malloc || I->opcode() == Opcode::Alloca)
        return I->hasAllocHeap() && I->allocHeap() == K;
      return false; // Loads, phis, calls: runtime check required.
    }
    default:
      return false;
    }
  }
}

/// Deferred insertion of new instructions before existing ones, applied
/// back-to-front so recorded positions stay valid.
class Inserter {
public:
  void before(Instruction *Anchor, std::unique_ptr<Instruction> NewInst) {
    Pending.push_back({Anchor, std::move(NewInst)});
  }

  void apply() {
    // Group by block, then insert in reverse position order.
    std::map<BasicBlock *, std::vector<std::pair<size_t, size_t>>> ByBlock;
    for (size_t N = 0; N < Pending.size(); ++N)
      ByBlock[Pending[N].Anchor->parent()].push_back(
          {Pending[N].Anchor->parent()->indexOf(Pending[N].Anchor), N});
    for (auto &[Block, Items] : ByBlock) {
      std::stable_sort(Items.begin(), Items.end());
      for (auto It = Items.rbegin(); It != Items.rend(); ++It)
        Block->insertAt(It->first, std::move(Pending[It->second].Inst));
    }
    Pending.clear();
  }

private:
  struct Item {
    Instruction *Anchor;
    std::unique_ptr<Instruction> Inst;
  };
  std::vector<Item> Pending;
};

std::unique_ptr<Instruction> makePrivacyCheck(bool IsRead, Value *Ptr,
                                              uint64_t Bytes) {
  auto I = std::make_unique<Instruction>(
      IsRead ? Opcode::PrivateRead : Opcode::PrivateWrite, Type::Void);
  I->addOperand(Ptr);
  I->setAccessBytes(Bytes);
  return I;
}

std::unique_ptr<Instruction> makeHeapCheck(Value *Ptr, HeapKind K) {
  auto I = std::make_unique<Instruction>(Opcode::CheckHeap, Type::Void);
  I->addOperand(Ptr);
  I->setExpectedHeap(K);
  return I;
}

} // namespace

TransformStats transform::applyPrivatization(Module &M,
                                             const HeapAssignment &HA,
                                             const FunctionAnalyses &FA,
                                             const Profile &P) {
  TransformStats Stats;
  const Loop &L = *HA.TheLoop;

  // --- §4.4 Replace Allocation. ------------------------------------------
  std::map<const Instruction *, std::set<HeapKind>> SiteKinds;
  for (const auto &[O, K] : HA.ObjectHeaps) {
    if (O.Global) {
      // The classification owns these objects; writing the assignment
      // back into the IR is the transformation's job.
      const_cast<GlobalVariable *>(O.Global)->assignHeap(K);
      ++Stats.GlobalsAssigned;
    } else if (O.AllocSite) {
      SiteKinds[O.AllocSite].insert(K);
    }
  }
  for (const auto &[Site, Kinds] : SiteKinds) {
    if (Kinds.size() != 1) {
      Stats.Errors.push_back(
          "allocation site %" + Site->name() +
          " produces objects classified into different heaps");
      continue;
    }
    const_cast<Instruction *>(Site)->setAllocHeap(*Kinds.begin());
    ++Stats.AllocSitesAssigned;
  }
  if (!Stats.ok())
    return Stats;

  // --- §4.5 / §4.6: separation and privacy checks. ------------------------
  Inserter Ins;
  for (Instruction *I : instrumentationScope(L, FA)) {
    bool IsLoad = I->opcode() == Opcode::Load;
    bool IsStore = I->opcode() == Opcode::Store;
    if (!IsLoad && !IsStore)
      continue;
    const std::set<ObjectKey> &Objs = P.objectsAccessedBy(I);
    if (Objs.empty())
      continue; // Never executed during training (cold path).

    std::set<HeapKind> Kinds;
    for (const ObjectKey &O : Objs) {
      auto It = HA.ObjectHeaps.find(O);
      if (It == HA.ObjectHeaps.end()) {
        Stats.Errors.push_back("access %" + I->name() +
                               " touches an unclassified object " + O.str());
        continue;
      }
      Kinds.insert(It->second);
    }
    if (Kinds.size() != 1) {
      Stats.Errors.push_back(
          "access touches objects from several heaps (speculative "
          "separation would always fail)");
      continue;
    }
    HeapKind K = *Kinds.begin();
    Value *Ptr = I->operand(IsLoad ? 0 : 1);

    // Classification puts an object in the reduction heap only when every
    // access to it is a recognized update, so each store there is one.
    if (K == HeapKind::Redux && IsStore)
      ++Stats.ComUpdatesInstalled;
    if (K == HeapKind::Private) {
      // DOACROSS fallback loads read private-heap bytes that the
      // forwarding select discards for in-loop targets; validating them
      // would misspeculate on garbage that is never used.
      if (HA.PrivacyElides.count(I)) {
        ++Stats.PrivacyChecksElided;
        continue;
      }
      // private_read / private_write validate the heap tag themselves, so
      // no separate separation check is needed (§5.1: the privacy check's
      // tag test doubles as the separation check).
      Ins.before(I, makePrivacyCheck(IsLoad, Ptr, I->accessBytes()));
      ++Stats.PrivacyChecks;
      continue;
    }
    if (provablyInHeap(Ptr, K)) {
      ++Stats.SeparationChecksElided;
      continue;
    }
    Ins.before(I, makeHeapCheck(Ptr, K));
    ++Stats.SeparationChecks;
  }
  if (!Stats.ok())
    return Stats;

  // --- Value prediction (§4.3 refinement; Figure 2b lines 78-80). --------
  if (!HA.Predictions.empty()) {
    BasicBlock *Header = L.header();
    Instruction *HeaderTerm = Header->terminator();
    BasicBlock *BodyEntry = HeaderTerm->blockRef(0);

    for (const ValuePrediction &VP : HA.Predictions) {
      auto *G = const_cast<GlobalVariable *>(VP.Global);

      // Prologue: define the predicted value, making later reads
      // intra-iteration flow.
      size_t Lead = 0;
      while (Lead < BodyEntry->instructions().size() &&
             BodyEntry->instructions()[Lead]->opcode() == Opcode::Phi)
        ++Lead;
      Value *Addr = G;
      if (VP.Offset != 0) {
        auto Gep = std::make_unique<Instruction>(Opcode::Gep, Type::Ptr,
                                                 "vp.addr");
        Gep->addOperand(G);
        Gep->addOperand(M.constInt(static_cast<int64_t>(VP.Offset)));
        Addr = BodyEntry->insertAt(Lead++, std::move(Gep));
      }
      BodyEntry->insertAt(Lead++,
                          makePrivacyCheck(/*IsRead=*/false, Addr, VP.Bytes));
      auto St = std::make_unique<Instruction>(Opcode::Store, Type::Void);
      St->addOperand(M.constInt(VP.Value));
      St->addOperand(Addr);
      St->setAccessBytes(VP.Bytes);
      BodyEntry->insertAt(Lead++, std::move(St));

      // Epilogue in every latch: validate the prediction holds for the
      // next iteration's live-in.
      for (BasicBlock *Latch : L.latches()) {
        size_t Term = Latch->indexOf(Latch->terminator());
        Value *LatchAddr = G;
        if (VP.Offset != 0) {
          auto Gep = std::make_unique<Instruction>(Opcode::Gep, Type::Ptr,
                                                   "vp.check.addr");
          Gep->addOperand(G);
          Gep->addOperand(M.constInt(static_cast<int64_t>(VP.Offset)));
          LatchAddr = Latch->insertAt(Term++, std::move(Gep));
        }
        Latch->insertAt(Term++, makePrivacyCheck(/*IsRead=*/true, LatchAddr,
                                                 VP.Bytes));
        auto Ld = std::make_unique<Instruction>(Opcode::Load, Type::I64,
                                                "vp.check");
        Ld->addOperand(LatchAddr);
        Ld->setAccessBytes(VP.Bytes);
        Instruction *LdI = Latch->insertAt(Term++, std::move(Ld));
        auto Spec =
            std::make_unique<Instruction>(Opcode::SpeculateEq, Type::Void);
        Spec->addOperand(LdI);
        Spec->addOperand(M.constInt(VP.Value));
        Latch->insertAt(Term++, std::move(Spec));
      }
      ++Stats.PredictionsInstalled;
    }
  }

  Ins.apply();
  return Stats;
}

bool transform::isDoallReady(const Loop &L, const FunctionAnalyses &FA,
                             std::vector<std::string> &WhyNot) {
  const Cfg &C = FA.cfg(L.header()->parent());
  auto Iv = L.canonicalIv(C);
  if (!Iv) {
    WhyNot.push_back("no canonical induction variable");
    return false;
  }
  // The IV must be the only loop-carried phi.
  for (const auto &I : L.header()->instructions()) {
    if (I->opcode() != Opcode::Phi)
      break;
    if (I.get() != Iv->Phi) {
      WhyNot.push_back("loop-carried phi %" + I->name() +
                       " besides the induction variable");
      return false;
    }
  }
  // No SSA value defined in the loop may be used outside it (live-outs
  // must flow through memory, which privatization handles).
  const Function *F = L.header()->parent();
  bool Ok = true;
  for (const auto &B : F->blocks()) {
    if (L.contains(B.get()))
      continue;
    for (const auto &I : B->instructions())
      for (Value *Op : I->operands()) {
        if (Op->kind() != ValueKind::Instruction)
          continue;
        auto *Def = static_cast<Instruction *>(Op);
        if (L.contains(Def) && Def != Iv->Phi) {
          WhyNot.push_back("value %" + Def->name() +
                           " defined in the loop is used outside it");
          Ok = false;
        }
      }
  }
  return Ok;
}
