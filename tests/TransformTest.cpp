//===- tests/TransformTest.cpp - §4.4-4.6 transformation unit tests -------===//

#include "TrainingProfile.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "profiling/ProfileCollector.h"
#include "transform/Privatizer.h"
#include "workloads/IrPrograms.h"

#include <gtest/gtest.h>

using namespace privateer;
using namespace privateer::analysis;
using namespace privateer::classify;
using namespace privateer::ir;
using namespace privateer::transform;

namespace {

struct Prepared {
  std::unique_ptr<Module> M;
  std::unique_ptr<FunctionAnalyses> FA;
  profiling::Profile P;
  const Loop *Outer = nullptr;
};

Prepared prepareDijkstra(unsigned N = 8) {
  Prepared Out;
  std::string Err;
  Out.M = parseModule(dijkstraIrText(N), Err);
  EXPECT_NE(Out.M, nullptr) << Err;
  Out.FA = std::make_unique<FunctionAnalyses>(*Out.M);
  Out.P = trainingProfile(*Out.M, *Out.FA);
  for (const auto &L :
       Out.FA->loops(Out.M->functionByName("hot_loop")).loops())
    if (L->header()->name() == "loop")
      Out.Outer = L.get();
  return Out;
}

unsigned countOpcode(const Function &F, Opcode Op) {
  unsigned C = 0;
  for (const auto &B : F.blocks())
    for (const auto &I : B->instructions())
      C += I->opcode() == Op;
  return C;
}

TEST(Transform, InsertsChecksOnlyInTheParallelRegion) {
  Prepared R = prepareDijkstra();
  HeapAssignment HA = classifyLoop(*R.Outer, *R.FA, R.P);
  TransformStats TS = applyPrivatization(*R.M, HA, *R.FA, R.P);
  ASSERT_TRUE(TS.ok()) << TS.Errors.front();

  // init_adj runs only before the loop: zero checks inserted there.
  Function *Init = R.M->functionByName("init_adj");
  EXPECT_EQ(countOpcode(*Init, Opcode::PrivateRead), 0u);
  EXPECT_EQ(countOpcode(*Init, Opcode::PrivateWrite), 0u);
  EXPECT_EQ(countOpcode(*Init, Opcode::CheckHeap), 0u);

  // enqueue/dequeue (callees of the loop) carry privacy checks for their
  // queue accesses; dequeue carries the short-lived separation check of
  // Figure 2b line 29.
  Function *Enq = R.M->functionByName("enqueue");
  Function *Deq = R.M->functionByName("dequeue");
  EXPECT_GT(countOpcode(*Enq, Opcode::PrivateRead) +
                countOpcode(*Enq, Opcode::PrivateWrite),
            0u);
  EXPECT_GT(countOpcode(*Deq, Opcode::CheckHeap), 0u);

  // The transformed module still verifies.
  auto Diags = verifyModule(*R.M);
  EXPECT_TRUE(Diags.empty()) << Diags.front();
}

TEST(Transform, ElidesProvableSeparationChecks) {
  Prepared R = prepareDijkstra();
  HeapAssignment HA = classifyLoop(*R.Outer, *R.FA, R.P);
  TransformStats TS = applyPrivatization(*R.M, HA, *R.FA, R.P);
  ASSERT_TRUE(TS.ok());
  // The adjacency loads go through gep(@adj, ...) with @adj assigned
  // read-only: provable, hence elided.
  EXPECT_GT(TS.SeparationChecksElided, 0u);
  Function *Hot = R.M->functionByName("hot_loop");
  for (const auto &I : Hot->blockByName("rbody")->instructions())
    EXPECT_NE(I->opcode(), Opcode::CheckHeap)
        << "adj access needs no runtime separation check";
}

TEST(Transform, ValuePredictionPrologueAndEpilogue) {
  Prepared R = prepareDijkstra();
  HeapAssignment HA = classifyLoop(*R.Outer, *R.FA, R.P);
  ASSERT_EQ(HA.Predictions.size(), 1u);
  TransformStats TS = applyPrivatization(*R.M, HA, *R.FA, R.P);
  ASSERT_TRUE(TS.ok());
  EXPECT_EQ(TS.PredictionsInstalled, 1u);

  Function *Hot = R.M->functionByName("hot_loop");
  // Prologue: the loop body's entry block stores the predicted null.
  BasicBlock *Body = Hot->blockByName("body");
  bool SawStore = false;
  for (const auto &I : Body->instructions())
    if (I->opcode() == Opcode::Store)
      SawStore = true;
  EXPECT_TRUE(SawStore) << "prediction store missing from body entry";
  // Epilogue: the latch validates with speculate_eq.
  BasicBlock *Latch = Hot->blockByName("latch");
  EXPECT_EQ(countOpcode(*Hot, Opcode::SpeculateEq), 1u);
  bool LatchHasSpec = false;
  for (const auto &I : Latch->instructions())
    LatchHasSpec |= I->opcode() == Opcode::SpeculateEq;
  EXPECT_TRUE(LatchHasSpec);
}

TEST(Transform, AllocationSitesReceiveSingleHeap) {
  Prepared R = prepareDijkstra();
  HeapAssignment HA = classifyLoop(*R.Outer, *R.FA, R.P);
  TransformStats TS = applyPrivatization(*R.M, HA, *R.FA, R.P);
  ASSERT_TRUE(TS.ok());
  EXPECT_EQ(TS.GlobalsAssigned, 4u) << "Q, pathcost, out, adj";
  EXPECT_EQ(TS.AllocSitesAssigned, 1u)
      << "both contexts collapse onto the one malloc site";
}

TEST(Transform, DoallReadinessRejectsLiveOutSsaValues) {
  // A loop whose computed value escapes as an SSA use after the loop
  // cannot be DOALL-transformed (live-outs must go through memory).
  const char *T = "define i64 @f(i64 %n) {\n"
                  "entry:\n"
                  "  br loop\n"
                  "loop:\n"
                  "  %i = phi [entry: 0], [latch: %inext]\n"
                  "  %c = icmp lt, %i, %n\n"
                  "  condbr %c, latch, exit\n"
                  "latch:\n"
                  "  %sq = mul %i, %i\n"
                  "  %inext = add %i, 1\n"
                  "  br loop\n"
                  "exit:\n"
                  "  ret %sq\n" // Uses a loop-defined value.
                  "}\n";
  std::string Err;
  auto M = parseModule(T, Err);
  ASSERT_NE(M, nullptr) << Err;
  FunctionAnalyses FA(*M);
  const LoopInfo &LI = FA.loops(M->functionByName("f"));
  ASSERT_EQ(LI.loops().size(), 1u);
  std::vector<std::string> WhyNot;
  EXPECT_FALSE(isDoallReady(*LI.loops()[0], FA, WhyNot));
  ASSERT_FALSE(WhyNot.empty());
  EXPECT_NE(WhyNot.front().find("used outside"), std::string::npos);
}

TEST(Transform, DoallReadinessRejectsExtraLoopCarriedPhis) {
  const char *T = "define void @f(i64 %n) {\n"
                  "entry:\n"
                  "  br loop\n"
                  "loop:\n"
                  "  %i = phi [entry: 0], [latch: %inext]\n"
                  "  %acc = phi [entry: 0], [latch: %acc2]\n"
                  "  %c = icmp lt, %i, %n\n"
                  "  condbr %c, latch, exit\n"
                  "latch:\n"
                  "  %acc2 = add %acc, %i\n"
                  "  %inext = add %i, 1\n"
                  "  br loop\n"
                  "exit:\n"
                  "  ret\n"
                  "}\n";
  std::string Err;
  auto M = parseModule(T, Err);
  ASSERT_NE(M, nullptr) << Err;
  FunctionAnalyses FA(*M);
  const LoopInfo &LI = FA.loops(M->functionByName("f"));
  std::vector<std::string> WhyNot;
  EXPECT_FALSE(isDoallReady(*LI.loops()[0], FA, WhyNot));
  ASSERT_FALSE(WhyNot.empty());
  EXPECT_NE(WhyNot.front().find("phi"), std::string::npos);
}

} // namespace
