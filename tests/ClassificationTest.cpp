//===- tests/ClassificationTest.cpp - Algorithms 1 & 2, selection ---------===//

#include "TrainingProfile.h"
#include "classify/Classification.h"
#include "ir/IRParser.h"
#include "profiling/ProfileCollector.h"
#include "workloads/IrPrograms.h"

#include <gtest/gtest.h>

using namespace privateer;
using namespace privateer::analysis;
using namespace privateer::classify;
using namespace privateer::ir;
using namespace privateer::profiling;

namespace {

struct Prepared {
  std::unique_ptr<Module> M;
  std::unique_ptr<FunctionAnalyses> FA;
  Profile P;
};

Prepared prepare(const std::string &Text) {
  Prepared Out;
  std::string Err;
  Out.M = parseModule(Text, Err);
  EXPECT_NE(Out.M, nullptr) << Err;
  Out.FA = std::make_unique<FunctionAnalyses>(*Out.M);
  Out.P = trainingProfile(*Out.M, *Out.FA);
  return Out;
}

const Loop *loopNamed(const FunctionAnalyses &FA, const Module &M,
                      const std::string &Fn, const std::string &Header) {
  for (const auto &L : FA.loops(M.functionByName(Fn)).loops())
    if (L->header()->name() == Header)
      return L.get();
  return nullptr;
}

HeapKind kindOfGlobal(const HeapAssignment &HA, const Module &M,
                      const std::string &Name) {
  ObjectKey K;
  K.Global = M.globalByName(Name);
  auto It = HA.ObjectHeaps.find(K);
  EXPECT_NE(It, HA.ObjectHeaps.end()) << Name << " unclassified";
  return It == HA.ObjectHeaps.end() ? HeapKind::Unrestricted : It->second;
}

TEST(Classification, DijkstraFootprintMatchesPaperExample) {
  auto R = prepare(dijkstraIrText(8));
  const Loop *Outer = loopNamed(*R.FA, *R.M, "hot_loop", "loop");
  Footprint Fp = getFootprint(*Outer, *R.FA, R.P);

  // Paper §4.2: "The read set contains the global queue structure Q, the
  // global arrays pathcost and adj, and all linked list nodes allocated
  // by Line 11.  The write set contains Q, pathcost, and all linked list
  // nodes.  The reduction set is empty."
  auto HasGlobal = [&](const std::set<ObjectKey> &S, const char *N) {
    for (const ObjectKey &K : S)
      if (K.Global && K.Global->name() == N)
        return true;
    return false;
  };
  auto CountSites = [&](const std::set<ObjectKey> &S) {
    unsigned C = 0;
    for (const ObjectKey &K : S)
      C += K.AllocSite != nullptr;
    return C;
  };
  EXPECT_TRUE(HasGlobal(Fp.Read, "Q"));
  EXPECT_TRUE(HasGlobal(Fp.Read, "pathcost"));
  EXPECT_TRUE(HasGlobal(Fp.Read, "adj"));
  EXPECT_GE(CountSites(Fp.Read), 1u);
  EXPECT_TRUE(HasGlobal(Fp.Write, "Q"));
  EXPECT_TRUE(HasGlobal(Fp.Write, "pathcost"));
  EXPECT_FALSE(HasGlobal(Fp.Write, "adj"));
  EXPECT_TRUE(Fp.Redux.empty());
}

TEST(Classification, DijkstraHeapAssignmentMatchesFigure4) {
  auto R = prepare(dijkstraIrText(8));
  const Loop *Outer = loopNamed(*R.FA, *R.M, "hot_loop", "loop");
  HeapAssignment HA = classifyLoop(*Outer, *R.FA, R.P);
  ASSERT_TRUE(HA.Parallelizable);
  EXPECT_EQ(kindOfGlobal(HA, *R.M, "Q"), HeapKind::Private);
  EXPECT_EQ(kindOfGlobal(HA, *R.M, "pathcost"), HeapKind::Private);
  EXPECT_EQ(kindOfGlobal(HA, *R.M, "adj"), HeapKind::ReadOnly);
  unsigned ShortLivedSites = 0;
  for (const auto &[O, K] : HA.ObjectHeaps)
    if (O.AllocSite && K == HeapKind::ShortLived)
      ++ShortLivedSites;
  EXPECT_EQ(ShortLivedSites, 2u) << "one per dynamic context";
  ASSERT_EQ(HA.Predictions.size(), 1u);
  EXPECT_EQ(HA.Predictions[0].Value, 0);
}

TEST(Classification, PureReductionGoesToReduxHeap) {
  auto R = prepare(reductionSumIrText(50));
  const Loop *L = loopNamed(*R.FA, *R.M, "kernel", "loop");
  ASSERT_NE(L, nullptr);
  Footprint Fp = getFootprint(*L, *R.FA, R.P);
  ObjectKey Acc;
  Acc.Global = R.M->globalByName("acc");
  EXPECT_TRUE(Fp.Redux.count(Acc));
  EXPECT_FALSE(Fp.Read.count(Acc)) << "redux accesses leave the read set";
  EXPECT_FALSE(Fp.Write.count(Acc));
  EXPECT_EQ(Fp.ReduxAccesses.size(), 2u) << "the load and the store";

  HeapAssignment HA = classifyLoop(*L, *R.FA, R.P);
  EXPECT_TRUE(HA.Parallelizable);
  EXPECT_EQ(kindOfGlobal(HA, *R.M, "acc"), HeapKind::Redux);
  ASSERT_EQ(HA.ReduxOps.size(), 1u);
  EXPECT_EQ(HA.ReduxOps.begin()->second.second, ReduxOp::Add);
  EXPECT_EQ(HA.ReduxOps.begin()->second.first, ReduxElem::I64);
}

TEST(Classification, RecurrenceIsUnrestricted) {
  auto R = prepare(recurrenceIrText(50));
  const Loop *L = loopNamed(*R.FA, *R.M, "kernel", "loop");
  HeapAssignment HA = classifyLoop(*L, *R.FA, R.P);
  EXPECT_FALSE(HA.Parallelizable);
  EXPECT_EQ(kindOfGlobal(HA, *R.M, "cell"), HeapKind::Unrestricted);
}

TEST(Classification, MixedReductionAndPlainAccessIsNotRedux) {
  // @acc is updated reductively AND read for output each iteration — the
  // reduction criterion's "no operation within L reads an intermediate
  // value" fails, so @acc must not land in the redux heap.
  const char *T = "global @acc 8\n"
                  "global @trace 800\n"
                  "define void @kernel(i64 %n) {\n"
                  "entry:\n"
                  "  br loop\n"
                  "loop:\n"
                  "  %i = phi [entry: 0], [latch: %inext]\n"
                  "  %c = icmp lt, %i, %n\n"
                  "  condbr %c, body, exit\n"
                  "body:\n"
                  "  %old = load i64, @acc, 8\n"
                  "  %new = add %old, %i\n"
                  "  store %new, @acc, 8\n"
                  "  %snap = load i64, @acc, 8\n" // Reads the intermediate!
                  "  %off = mul %i, 8\n"
                  "  %tp = gep @trace, %off\n"
                  "  store %snap, %tp, 8\n"
                  "  br latch\n"
                  "latch:\n"
                  "  %inext = add %i, 1\n"
                  "  br loop\n"
                  "exit:\n"
                  "  ret\n"
                  "}\n"
                  "define i64 @main() {\n"
                  "entry:\n"
                  "  call @kernel(50)\n"
                  "  ret 0\n"
                  "}\n";
  auto R = prepare(T);
  const Loop *L = loopNamed(*R.FA, *R.M, "kernel", "loop");
  HeapAssignment HA = classifyLoop(*L, *R.FA, R.P);
  EXPECT_NE(kindOfGlobal(HA, *R.M, "acc"), HeapKind::Redux);
  EXPECT_FALSE(HA.Parallelizable)
      << "the accumulator's true recurrence must block DOALL";
}

// --- Commutative-update recognizer (sixth heap) -------------------------

/// Wraps a table-update snippet in the canonical irregular kernel: a
/// hashed cell index (collides across iterations), the update, and a
/// driver @main.  The snippet sees %off (byte offset) and %v (value).
std::string comKernel(const std::string &Update) {
  return "global @tab 64\n"
         "define void @kernel(i64 %n) {\n"
         "entry:\n  br loop\n"
         "loop:\n  %i = phi [entry: 0], [latch: %inext]\n"
         "  %c = icmp lt, %i, %n\n  condbr %c, body, exit\n"
         "body:\n"
         "  %h = mul %i, 2654435761\n"
         "  %b = srem %h, 8\n"
         "  %off = mul %b, 8\n"
         "  %v = srem %h, 1000\n" +
         Update +
         "  br latch\n"
         "latch:\n  %inext = add %i, 1\n  br loop\n"
         "exit:\n  ret\n}\n"
         "define i64 @main() {\nentry:\n  call @kernel(64)\n  ret 0\n}\n";
}

TEST(Classification, CommutativePatternAOpsClassifyToComHeap) {
  struct {
    const char *Inst;
    ComOp Op;
  } Cases[] = {{"add", ComOp::Add},
               {"mul", ComOp::Mul},
               {"and", ComOp::And},
               {"or", ComOp::Or},
               {"xor", ComOp::Xor}};
  for (const auto &C : Cases) {
    SCOPED_TRACE(C.Inst);
    auto R = prepare(comKernel(std::string("  %p = gep @tab, %off\n"
                                           "  %old = load i64, %p, 8\n"
                                           "  %new = ") +
                               C.Inst +
                               " %old, %v\n"
                               "  %q = gep @tab, %off\n"
                               "  store %new, %q, 8\n"));
    const Loop *L = loopNamed(*R.FA, *R.M, "kernel", "loop");
    ASSERT_NE(L, nullptr);
    HeapAssignment HA = classifyLoop(*L, *R.FA, R.P);
    EXPECT_TRUE(HA.Parallelizable)
        << "benign commutative collisions must not block DOALL";
    EXPECT_EQ(kindOfGlobal(HA, *R.M, "tab"), HeapKind::Commutative);
    ObjectKey K;
    K.Global = R.M->globalByName("tab");
    auto It = HA.ComOps.find(K);
    ASSERT_NE(It, HA.ComOps.end());
    EXPECT_EQ(It->second.first, C.Op);
    EXPECT_EQ(It->second.second, 8);
    EXPECT_EQ(HA.ComClusters.size(), 1u);
  }
}

TEST(Classification, CommutativeMinMaxOrientationVariants) {
  // "a < b ? a : b" is min; flipping either the predicate direction or
  // the select arm order flips the recognized operator, and flipping both
  // flips it back.
  struct {
    const char *Cmp;
    const char *Sel;
    ComOp Op;
  } Cases[] = {
      {"lt", "  %new = select %cc, %old, %v\n", ComOp::Min},
      {"gt", "  %new = select %cc, %old, %v\n", ComOp::Max},
      {"lt", "  %new = select %cc, %v, %old\n", ComOp::Max},
      {"ge", "  %new = select %cc, %v, %old\n", ComOp::Min},
  };
  for (const auto &C : Cases) {
    SCOPED_TRACE(std::string(C.Cmp) + " / " + C.Sel);
    auto R = prepare(comKernel(std::string("  %p = gep @tab, %off\n"
                                           "  %old = load i64, %p, 8\n"
                                           "  %cc = icmp ") +
                               C.Cmp + ", %old, %v\n" + C.Sel +
                               "  %q = gep @tab, %off\n"
                               "  store %new, %q, 8\n"));
    const Loop *L = loopNamed(*R.FA, *R.M, "kernel", "loop");
    ASSERT_NE(L, nullptr);
    HeapAssignment HA = classifyLoop(*L, *R.FA, R.P);
    EXPECT_EQ(kindOfGlobal(HA, *R.M, "tab"), HeapKind::Commutative);
    ObjectKey K;
    K.Global = R.M->globalByName("tab");
    auto It = HA.ComOps.find(K);
    ASSERT_NE(It, HA.ComOps.end());
    EXPECT_EQ(It->second.first, C.Op);
  }
}

TEST(Classification, CommutativeMinMaxOnlyAtEightBytes) {
  // trunc(min(sext(cell), v)) stops commuting once v leaves a narrower
  // cell's range, so sub-word min/max clusters stay out of the commutative
  // heap; the wrapping operators of pattern A classify at any width.
  for (const char *Bytes : {"1", "2", "4"}) {
    SCOPED_TRACE(std::string(Bytes) + "-byte cells");
    auto MinMax = prepare(comKernel(std::string("  %p = gep @tab, %off\n"
                                                "  %old = load i64, %p, ") +
                                    Bytes +
                                    "\n"
                                    "  %cc = icmp lt, %old, %v\n"
                                    "  %new = select %cc, %old, %v\n"
                                    "  %q = gep @tab, %off\n"
                                    "  store %new, %q, " +
                                    Bytes + "\n"));
    const Loop *L = loopNamed(*MinMax.FA, *MinMax.M, "kernel", "loop");
    ASSERT_NE(L, nullptr);
    HeapAssignment HA = classifyLoop(*L, *MinMax.FA, MinMax.P);
    EXPECT_NE(kindOfGlobal(HA, *MinMax.M, "tab"), HeapKind::Commutative);
    EXPECT_TRUE(HA.ComOps.empty());

    auto Add = prepare(comKernel(std::string("  %p = gep @tab, %off\n"
                                             "  %old = load i64, %p, ") +
                                 Bytes +
                                 "\n"
                                 "  %new = add %old, %v\n"
                                 "  %q = gep @tab, %off\n"
                                 "  store %new, %q, " +
                                 Bytes + "\n"));
    L = loopNamed(*Add.FA, *Add.M, "kernel", "loop");
    ASSERT_NE(L, nullptr);
    HA = classifyLoop(*L, *Add.FA, Add.P);
    EXPECT_EQ(kindOfGlobal(HA, *Add.M, "tab"), HeapKind::Commutative);
  }
}

TEST(Classification, CommutativeRejectsMixedOperatorsOnOneObject) {
  // One cell updated with add, a second cell of the same object with xor:
  // no single combine operator exists, so the object must not classify
  // commutative (and the collisions then block DOALL).
  auto R = prepare(comKernel("  %p = gep @tab, %off\n"
                             "  %old = load i64, %p, 8\n"
                             "  %new = add %old, %v\n"
                             "  %q = gep @tab, %off\n"
                             "  store %new, %q, 8\n"
                             "  %b2 = srem %v, 8\n"
                             "  %off2 = mul %b2, 8\n"
                             "  %p2 = gep @tab, %off2\n"
                             "  %old2 = load i64, %p2, 8\n"
                             "  %new2 = xor %old2, %i\n"
                             "  %q2 = gep @tab, %off2\n"
                             "  store %new2, %q2, 8\n"));
  const Loop *L = loopNamed(*R.FA, *R.M, "kernel", "loop");
  ASSERT_NE(L, nullptr);
  HeapAssignment HA = classifyLoop(*L, *R.FA, R.P);
  EXPECT_NE(kindOfGlobal(HA, *R.M, "tab"), HeapKind::Commutative);
  EXPECT_TRUE(HA.ComOps.empty());
}

TEST(Classification, CommutativeRejectsObservedIntermediate) {
  // The cell is re-read outside the cluster after the update: deferring
  // the store would change what that load observes, so the object must
  // fall back to the ordinary footprints.
  const std::string T = "global @trace 512\n" +
                        comKernel("  %p = gep @tab, %off\n"
                                  "  %old = load i64, %p, 8\n"
                                  "  %new = add %old, %v\n"
                                  "  %q = gep @tab, %off\n"
                                  "  store %new, %q, 8\n"
                                  "  %p3 = gep @tab, %off\n"
                                  "  %snap = load i64, %p3, 8\n"
                                  "  %toff = mul %i, 8\n"
                                  "  %tp = gep @trace, %toff\n"
                                  "  store %snap, %tp, 8\n");
  auto R = prepare(T);
  const Loop *L = loopNamed(*R.FA, *R.M, "kernel", "loop");
  ASSERT_NE(L, nullptr);
  HeapAssignment HA = classifyLoop(*L, *R.FA, R.P);
  EXPECT_NE(kindOfGlobal(HA, *R.M, "tab"), HeapKind::Commutative);
}

TEST(Classification, CommutativeRejectsAccessWidthMismatch) {
  // An 8-byte load folded into a 4-byte store cannot be replayed as one
  // typed record; the cluster must be rejected.
  auto R = prepare(comKernel("  %p = gep @tab, %off\n"
                             "  %old = load i64, %p, 8\n"
                             "  %new = add %old, %v\n"
                             "  %q = gep @tab, %off\n"
                             "  store %new, %q, 4\n"));
  const Loop *L = loopNamed(*R.FA, *R.M, "kernel", "loop");
  ASSERT_NE(L, nullptr);
  HeapAssignment HA = classifyLoop(*L, *R.FA, R.P);
  EXPECT_NE(kindOfGlobal(HA, *R.M, "tab"), HeapKind::Commutative);
  EXPECT_TRUE(HA.ComOps.empty());
}

TEST(Classification, ReductionRecognizerTakesPrecedenceOverCommutative) {
  // Load and store through the SAME gep register: the reduction pair's
  // pointer-identity requirement holds, so the object is claimed by the
  // redux heap, not the commutative one.
  auto R = prepare(comKernel("  %p = gep @tab, %off\n"
                             "  %old = load i64, %p, 8\n"
                             "  %new = add %old, %v\n"
                             "  store %new, %p, 8\n"));
  const Loop *L = loopNamed(*R.FA, *R.M, "kernel", "loop");
  ASSERT_NE(L, nullptr);
  HeapAssignment HA = classifyLoop(*L, *R.FA, R.P);
  EXPECT_EQ(kindOfGlobal(HA, *R.M, "tab"), HeapKind::Redux);
  EXPECT_TRUE(HA.ComOps.empty());
  EXPECT_TRUE(HA.ComClusters.empty());
}

TEST(Classification, WriteOnlyObjectIsPrivateReadOnlyObjectIsReadOnly) {
  const char *T = "global @in 400\n"
                  "global @out 400\n"
                  "define void @kernel(i64 %n) {\n"
                  "entry:\n"
                  "  br loop\n"
                  "loop:\n"
                  "  %i = phi [entry: 0], [latch: %inext]\n"
                  "  %c = icmp lt, %i, %n\n"
                  "  condbr %c, body, exit\n"
                  "body:\n"
                  "  %off = mul %i, 8\n"
                  "  %ip = gep @in, %off\n"
                  "  %v = load i64, %ip, 8\n"
                  "  %w = mul %v, 3\n"
                  "  %op = gep @out, %off\n"
                  "  store %w, %op, 8\n"
                  "  br latch\n"
                  "latch:\n"
                  "  %inext = add %i, 1\n"
                  "  br loop\n"
                  "exit:\n"
                  "  ret\n"
                  "}\n"
                  "define i64 @main() {\n"
                  "entry:\n"
                  "  call @kernel(50)\n"
                  "  ret 0\n"
                  "}\n";
  auto R = prepare(T);
  const Loop *L = loopNamed(*R.FA, *R.M, "kernel", "loop");
  HeapAssignment HA = classifyLoop(*L, *R.FA, R.P);
  EXPECT_TRUE(HA.Parallelizable);
  EXPECT_EQ(kindOfGlobal(HA, *R.M, "in"), HeapKind::ReadOnly);
  EXPECT_EQ(kindOfGlobal(HA, *R.M, "out"), HeapKind::Private);
}

TEST(Classification, SelectionPrefersHeavierLoopAndDropsNested) {
  auto R = prepare(dijkstraIrText(8));
  std::vector<HeapAssignment> Candidates;
  for (Loop *L : R.FA->allLoops()) {
    if (R.P.loopStats(L).Iterations == 0)
      continue;
    Candidates.push_back(classifyLoop(*L, *R.FA, R.P));
  }
  std::vector<HeapAssignment> Selected =
      selectLoops(Candidates, *R.FA, R.P);
  ASSERT_FALSE(Selected.empty());
  // The heaviest selected loop is the outer source loop, and no other
  // selected loop can be simultaneously active with it.
  EXPECT_EQ(Selected.front().TheLoop->header()->name(), "loop");
  for (size_t I = 1; I < Selected.size(); ++I) {
    const Loop *A = Selected.front().TheLoop;
    const Loop *B = Selected[I].TheLoop;
    for (BasicBlock *Blk : B->blocks())
      EXPECT_FALSE(A->contains(Blk));
  }
}

} // namespace
