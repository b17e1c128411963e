//===- tests/ProfilerTest.cpp - §4.1 profiler tests -----------------------===//

#include "TrainingProfile.h"
#include "ir/IRParser.h"
#include "profiling/ProfileCollector.h"
#include "workloads/IrPrograms.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace privateer;
using namespace privateer::analysis;
using namespace privateer::ir;
using namespace privateer::profiling;

namespace {

struct Profiled {
  std::unique_ptr<Module> M;
  std::unique_ptr<FunctionAnalyses> FA;
  Profile P;
};

Profiled profileText(const std::string &Text,
                     const std::string &Entry = "main") {
  Profiled Out;
  std::string Err;
  Out.M = parseModule(Text, Err);
  EXPECT_NE(Out.M, nullptr) << Err;
  Out.FA = std::make_unique<FunctionAnalyses>(*Out.M);
  Out.P = trainingProfile(*Out.M, *Out.FA, Entry);
  return Out;
}

const Loop *loopNamed(const FunctionAnalyses &FA, const Module &M,
                      const std::string &Fn, const std::string &Header) {
  const LoopInfo &LI = FA.loops(M.functionByName(Fn));
  for (const auto &L : LI.loops())
    if (L->header()->name() == Header)
      return L.get();
  return nullptr;
}

TEST(Profiler, PointerToObjectMapNamesGlobalsAndSites) {
  auto R = profileText(dijkstraIrText(8));
  // The relax-loop load of adj must map to the @adj global.
  Function *Hot = R.M->functionByName("hot_loop");
  const Instruction *AdjLoad = nullptr;
  for (const auto &I : Hot->blockByName("rbody")->instructions())
    if (I->opcode() == Opcode::Load && I->name() == "w")
      AdjLoad = I.get();
  ASSERT_NE(AdjLoad, nullptr);
  const auto &Objs = R.P.objectsAccessedBy(AdjLoad);
  ASSERT_EQ(Objs.size(), 1u);
  EXPECT_EQ(Objs.begin()->Global->name(), "adj");

  // The dequeue load of the node's vertex maps to the malloc site in
  // @enqueue — a dynamic object, not a global.
  Function *Deq = R.M->functionByName("dequeue");
  const Instruction *VxLoad = nullptr;
  for (const auto &I : Deq->blockByName("entry")->instructions())
    if (I->opcode() == Opcode::Load && I->name() == "v")
      VxLoad = I.get();
  ASSERT_NE(VxLoad, nullptr);
  const auto &NodeObjs = R.P.objectsAccessedBy(VxLoad);
  ASSERT_GE(NodeObjs.size(), 1u);
  for (const ObjectKey &K : NodeObjs) {
    EXPECT_EQ(K.Global, nullptr);
    ASSERT_NE(K.AllocSite, nullptr);
    EXPECT_EQ(K.AllocSite->parent()->parent()->name(), "enqueue");
  }
}

TEST(Profiler, DynamicContextsDistinguishCallSites) {
  // enqueue is called from two sites (seed and improve); its malloc
  // produces two distinct object names — "enqueueQ called at Line 60 or
  // enqueueQ called at Line 74" in the paper's example.
  auto R = profileText(dijkstraIrText(8));
  std::set<std::string> Contexts;
  for (const ObjectKey &K : R.P.allObjects())
    if (K.AllocSite)
      Contexts.insert(K.Context);
  EXPECT_EQ(Contexts.size(), 2u);
}

TEST(Profiler, ShortLivedNodesDetectedPerLoop) {
  auto R = profileText(dijkstraIrText(8));
  const Loop *Outer = loopNamed(*R.FA, *R.M, "hot_loop", "loop");
  ASSERT_NE(Outer, nullptr);
  unsigned ShortLived = 0;
  for (const ObjectKey &K : R.P.allObjects())
    if (K.AllocSite && R.P.isShortLived(K, Outer))
      ++ShortLived;
  EXPECT_EQ(ShortLived, 2u) << "both contexts' nodes die in-iteration";
  // Globals are never short-lived.
  ObjectKey QKey;
  QKey.Global = R.M->globalByName("Q");
  EXPECT_FALSE(R.P.isShortLived(QKey, Outer));
}

TEST(Profiler, CrossIterationFlowDepOnlyThroughQueueTail) {
  auto R = profileText(dijkstraIrText(8));
  const Loop *Outer = loopNamed(*R.FA, *R.M, "hot_loop", "loop");
  const auto &Deps = R.P.crossIterationFlowDeps(Outer);
  ASSERT_FALSE(Deps.empty())
      << "the tail pointer carries a real cross-iteration flow";
  // Every cross-iteration flow dep of the outer loop involves @Q only —
  // pathcost is always rewritten before it is read.
  for (const FlowDep &D : Deps) {
    const auto &Objs = R.P.objectsAccessedBy(D.Dst);
    for (const ObjectKey &K : Objs)
      EXPECT_TRUE(K.Global && K.Global->name() == "Q")
          << "unexpected dep through " << K.str();
  }
}

TEST(Profiler, TailLoadIsPredictablyNull) {
  auto R = profileText(dijkstraIrText(8));
  const Loop *Outer = loopNamed(*R.FA, *R.M, "hot_loop", "loop");
  Function *Enq = R.M->functionByName("enqueue");
  const Instruction *TailLoad = nullptr;
  for (const auto &I : Enq->blockByName("entry")->instructions())
    if (I->opcode() == Opcode::Load && I->name() == "tail")
      TailLoad = I.get();
  ASSERT_NE(TailLoad, nullptr);
  const PredictableLoad *PL = R.P.predictableFirstRead(TailLoad, Outer);
  ASSERT_NE(PL, nullptr) << "first tail read per iteration must predict";
  EXPECT_EQ(PL->Value, 0) << "queue predicted empty";
  uint64_t QBase = R.P.globalBase(R.M->globalByName("Q"));
  EXPECT_EQ(PL->Address, QBase + 8);
}

TEST(Profiler, LoopStatsCountInvocationsIterationsWeight) {
  auto R = profileText(dijkstraIrText(8));
  const Loop *Outer = loopNamed(*R.FA, *R.M, "hot_loop", "loop");
  LoopStats S = R.P.loopStats(Outer);
  EXPECT_EQ(S.Invocations, 1u);
  EXPECT_EQ(S.Iterations, 9u) << "8 body iterations + the exit test entry";
  EXPECT_GT(S.Weight, 100u);
  // The outer loop outweighs each inner loop.
  const Loop *Init = loopNamed(*R.FA, *R.M, "hot_loop", "initloop");
  EXPECT_GT(S.Weight, R.P.loopStats(Init).Weight);
  // init_adj's loops were invoked once, before the hot loop.
  const Loop *UL = loopNamed(*R.FA, *R.M, "init_adj", "uloop");
  EXPECT_EQ(R.P.loopStats(UL).Invocations, 1u);
}

TEST(Profiler, BranchBiasRecorded) {
  auto R = profileText(dijkstraIrText(8));
  // The outer-loop header branch is taken (stays in the loop) 8 of 9
  // times.
  Function *Hot = R.M->functionByName("hot_loop");
  const Instruction *HeaderBr =
      Hot->blockByName("loop")->terminator();
  double Ratio = R.P.branchTakenRatio(HeaderBr);
  EXPECT_NEAR(Ratio, 8.0 / 9.0, 1e-9);
  // An unexecuted branch reports -1.
  auto M2Text = std::string("define void @g(i64 %x) {\n"
                            "entry:\n"
                            "  %c = icmp lt, %x, 0\n"
                            "  condbr %c, a, b\n"
                            "a:\n"
                            "  ret\n"
                            "b:\n"
                            "  ret\n"
                            "}\n");
  std::string Err;
  auto M2 = parseModule(M2Text, Err);
  FunctionAnalyses FA2(*M2);
  ProfileCollector C2(FA2);
  Profile P2 = C2.finish();
  EXPECT_EQ(P2.branchTakenRatio(
                M2->functionByName("g")->blockByName("entry")->terminator()),
            -1.0);
}

TEST(Profiler, LeakedObjectIsNotShortLived) {
  const char *T = "define void @kernel(i64 %n) {\n"
                  "entry:\n"
                  "  br loop\n"
                  "loop:\n"
                  "  %i = phi [entry: 0], [latch: %inext]\n"
                  "  %c = icmp lt, %i, %n\n"
                  "  condbr %c, latch, exit\n"
                  "latch:\n"
                  "  %p = malloc 8\n"
                  "  store %i, %p, 8\n"
                  "  %inext = add %i, 1\n"
                  "  br loop\n"
                  "exit:\n"
                  "  ret\n"
                  "}\n"
                  "define i64 @main() {\n"
                  "entry:\n"
                  "  call @kernel(5)\n"
                  "  ret 0\n"
                  "}\n";
  auto R = profileText(T);
  const Loop *L = loopNamed(*R.FA, *R.M, "kernel", "loop");
  ASSERT_NE(L, nullptr);
  for (const ObjectKey &K : R.P.allObjects())
    if (K.AllocSite)
      EXPECT_FALSE(R.P.isShortLived(K, L)) << "leaked object misclassified";
}

// --- Hand-driven collector: exact addresses, exact event order ---------

/// @kernel's body allocates, loads, stores and frees, and its latch
/// stores to @g; @rec's loop body recurses.  The tests below feed a
/// ProfileCollector these instructions' events by hand, at addresses of
/// their own buffers.  IR sizes per block, which loop weights count:
/// entry 1, loop 3, kernel's body 5 and latch 3, rec's body 2 and latch 2,
/// exit 1.
const char *kHandDriven = "global @g 64\n"
                          "define void @kernel(i64 %n) {\n"
                          "entry:\n"
                          "  br loop\n"
                          "loop:\n"
                          "  %i = phi [entry: 0], [latch: %inext]\n"
                          "  %c = icmp lt, %i, %n\n"
                          "  condbr %c, body, exit\n"
                          "body:\n"
                          "  %p = malloc 8\n"
                          "  %v = load i64, %p, 8\n"
                          "  store %i, %p, 8\n"
                          "  free %p\n"
                          "  br latch\n"
                          "latch:\n"
                          "  %inext = add %i, 1\n"
                          "  store %inext, @g, 8\n"
                          "  br loop\n"
                          "exit:\n"
                          "  ret\n"
                          "}\n"
                          "define void @rec(i64 %n) {\n"
                          "entry:\n"
                          "  br loop\n"
                          "loop:\n"
                          "  %i = phi [entry: 0], [latch: %inext]\n"
                          "  %c = icmp lt, %i, %n\n"
                          "  condbr %c, body, exit\n"
                          "body:\n"
                          "  call @rec(%n)\n"
                          "  br latch\n"
                          "latch:\n"
                          "  %inext = add %i, 1\n"
                          "  br loop\n"
                          "exit:\n"
                          "  ret\n"
                          "}\n";

struct HandDriven {
  std::unique_ptr<Module> M;
  std::unique_ptr<FunctionAnalyses> FA;
  std::unique_ptr<ProfileCollector> C;
  const Instruction *Malloc, *Load, *Store, *Free, *LatchStore, *Call;

  HandDriven() {
    std::string Err;
    M = parseModule(kHandDriven, Err);
    EXPECT_NE(M, nullptr) << Err;
    FA = std::make_unique<FunctionAnalyses>(*M);
    C = std::make_unique<ProfileCollector>(*FA);
    const auto &Body = block("kernel", "body")->instructions();
    Malloc = Body[0].get();
    Load = Body[1].get();
    Store = Body[2].get();
    Free = Body[3].get();
    LatchStore = block("kernel", "latch")->instructions()[1].get();
    Call = block("rec", "body")->instructions()[0].get();
  }
  const BasicBlock *block(const char *Fn, const char *Name) const {
    return M->functionByName(Fn)->blockByName(Name);
  }
  /// Control from \p From's block to \p To's block of @\p Fn.
  void go(const char *Fn, const char *From, const char *To) {
    C->onBlockEnter(block(Fn, To), From ? block(Fn, From) : nullptr);
  }
  /// Ends the current iteration of @\p Fn's loop and starts the next.
  void nextIteration(const char *Fn) {
    go(Fn, "body", "latch");
    go(Fn, "latch", "loop");
    go(Fn, "loop", "body");
  }
  const Loop *loop(const char *Fn) const {
    return loopNamed(*FA, *M, Fn, "loop");
  }
};

TEST(Profiler, StoreStraddlingShadowBlocksIsOneWriter) {
  HandDriven H;
  // 128 B of program memory per shadow block: bytes 125..132 of a
  // 128-aligned buffer sit in two blocks.
  alignas(128) static uint8_t Buf[384];
  H.go("kernel", nullptr, "entry");
  H.go("kernel", "entry", "loop");
  H.go("kernel", "loop", "body");
  H.C->onStore(H.Store, reinterpret_cast<uint64_t>(Buf + 125), 8);
  H.nextIteration("kernel");
  H.C->onLoad(H.Load, reinterpret_cast<uint64_t>(Buf + 125), 8);
  H.C->onLoad(H.Load, reinterpret_cast<uint64_t>(Buf + 128), 4);
  Profile P = H.C->finish();
  const DepDistance *DS = P.flowDepDistance(H.loop("kernel"),
                                            FlowDep{H.Store, H.Load});
  ASSERT_NE(DS, nullptr);
  EXPECT_EQ(DS->Samples, 12u) << "every byte on both sides of the seam";
  EXPECT_EQ(DS->Min, 1u);
  EXPECT_EQ(DS->Max, 1u);
}

TEST(Profiler, FreedThenReallocatedAddressKeepsStaleWriter) {
  HandDriven H;
  alignas(8) static uint8_t Buf[8];
  uint64_t A = reinterpret_cast<uint64_t>(Buf);
  H.go("kernel", nullptr, "entry");
  H.go("kernel", "entry", "loop");
  H.go("kernel", "loop", "body");
  H.C->onAlloc(H.Malloc, A, 8);
  H.C->onStore(H.Store, A, 8);
  H.C->onFree(H.Free, A);
  H.nextIteration("kernel");
  // The allocator hands the same address back; the shadow was never
  // cleared, so the previous object's store is still the last writer.
  H.C->onAlloc(H.Malloc, A, 8);
  H.C->onLoad(H.Load, A, 8);
  Profile P = H.C->finish();
  const Loop *L = H.loop("kernel");
  EXPECT_EQ(P.crossIterationFlowDeps(L).count(FlowDep{H.Store, H.Load}), 1u);
  const DepDistance *DS = P.flowDepDistance(L, FlowDep{H.Store, H.Load});
  ASSERT_NE(DS, nullptr);
  EXPECT_EQ(DS->Samples, 8u);
}

TEST(Profiler, RecursionComparesOnlyTheInnermostActivation) {
  HandDriven H;
  alignas(8) static uint8_t Buf[8];
  uint64_t A = reinterpret_cast<uint64_t>(Buf);
  const Function *Rec = H.M->functionByName("rec");
  // Outer activation: store in iteration 0, then move to iteration 1.
  H.go("rec", nullptr, "entry");
  H.go("rec", "entry", "loop");
  H.go("rec", "loop", "body");
  H.C->onStore(H.Store, A, 8);
  H.nextIteration("rec");
  // The recursive call activates the same loop again.  Its iteration 0 is
  // what a load compares against, so the outer iteration-0 store is not a
  // carried dependence here.
  H.C->onCall(H.Call, Rec);
  H.go("rec", nullptr, "entry");
  H.go("rec", "entry", "loop");
  H.go("rec", "loop", "body");
  H.C->onLoad(H.Load, A, 8);
  H.go("rec", "body", "latch");
  H.go("rec", "latch", "loop");
  H.go("rec", "loop", "exit");
  H.C->onReturn(Rec);
  // Back in the outer activation's iteration 1: now it carries.
  H.C->onLoad(H.Load, A, 8);
  Profile P = H.C->finish();
  const DepDistance *DS =
      P.flowDepDistance(H.loop("rec"), FlowDep{H.Store, H.Load});
  ASSERT_NE(DS, nullptr);
  EXPECT_EQ(DS->Samples, 8u) << "only the load after the return carries";
  EXPECT_EQ(DS->Min, 1u);
  EXPECT_EQ(DS->Max, 1u);
  EXPECT_EQ(P.loopStats(H.loop("rec")).Invocations, 2u);
}

TEST(Profiler, ReallocatedAddressRenamesTheSitesObject) {
  // A load site that read one object at an address must name whatever
  // object occupies that address now, however it got there.
  alignas(8) static uint8_t Buf[8];
  uint64_t A = reinterpret_cast<uint64_t>(Buf);
  {
    // Freed, then reallocated over the same range from another context.
    HandDriven H;
    const Function *Rec = H.M->functionByName("rec");
    H.go("kernel", nullptr, "entry");
    H.go("kernel", "entry", "loop");
    H.go("kernel", "loop", "body");
    H.C->onAlloc(H.Malloc, A, 8);
    H.C->onLoad(H.Load, A, 8);
    H.C->onFree(H.Free, A);
    H.C->onCall(H.Call, Rec);
    H.C->onAlloc(H.Malloc, A, 8);
    H.C->onReturn(Rec);
    H.C->onLoad(H.Load, A, 8);
    Profile P = H.C->finish();
    std::set<std::string> Contexts;
    for (const ObjectKey &K : P.objectsAccessedBy(H.Load)) {
      EXPECT_EQ(K.AllocSite, H.Malloc);
      Contexts.insert(K.Context);
    }
    EXPECT_EQ(Contexts, (std::set<std::string>{"", "rec/body"}));
  }
  {
    // An allocation inside a global's range splits the interval the site
    // cached; reads of the middle name the new object, and reads of the
    // ends the global again.
    HandDriven H;
    alignas(8) static uint8_t G[64];
    uint64_t GAddr = reinterpret_cast<uint64_t>(G);
    const GlobalVariable *GV = H.M->globalByName("g");
    H.C->onGlobalAlloc(GV, GAddr, 64);
    H.go("kernel", nullptr, "entry");
    H.go("kernel", "entry", "loop");
    H.go("kernel", "loop", "body");
    H.C->onLoad(H.Load, GAddr + 16, 8);
    H.C->onAlloc(H.Malloc, GAddr + 16, 16);
    H.C->onLoad(H.Load, GAddr + 16, 8);
    H.C->onLoad(H.Load, GAddr + 40, 8);
    H.C->onLoad(H.Load, GAddr, 8);
    Profile P = H.C->finish();
    const auto &Objs = P.objectsAccessedBy(H.Load);
    ObjectKey Global, Split;
    Global.Global = GV;
    Split.AllocSite = H.Malloc;
    EXPECT_EQ(Objs, (std::set<ObjectKey>{Global, Split}));
  }
}

TEST(Profiler, LoopLeftByReturnStopsAccruingWeight) {
  HandDriven H;
  const Function *Kernel = H.M->functionByName("kernel");
  const Function *Rec = H.M->functionByName("rec");
  H.go("rec", nullptr, "entry");
  H.go("rec", "entry", "loop");
  H.go("rec", "loop", "body");
  // A call into @kernel's loop that returns from inside its body (the
  // collector reads only the call site's block, not its callee).
  H.C->onCall(H.Call, Kernel);
  H.go("kernel", nullptr, "entry");
  H.go("kernel", "entry", "loop");
  H.go("kernel", "loop", "body");
  H.C->onReturn(Kernel);
  H.go("rec", "body", "latch");
  H.go("rec", "latch", "loop");
  H.go("rec", "loop", "exit");
  H.C->onReturn(Rec);
  Profile P = H.C->finish();
  LoopStats K = P.loopStats(H.loop("kernel"));
  EXPECT_EQ(K.Invocations, 1u);
  EXPECT_EQ(K.Iterations, 1u);
  EXPECT_EQ(K.Weight, 3u + 5u) << "header and body, nothing after ret";
  LoopStats R = P.loopStats(H.loop("rec"));
  EXPECT_EQ(R.Invocations, 1u);
  EXPECT_EQ(R.Iterations, 2u);
  EXPECT_EQ(R.Weight, 3u + 2u + (1u + 3u + 5u) + 2u + 3u)
      << "the callee's blocks count toward the caller's loop";
}

TEST(Profiler, LoopsActiveAtFinishKeepTheirWeight) {
  // @main's frame never returns here: finish() must still count the
  // blocks entered by loops active at that point, in every frame.
  HandDriven H;
  const Function *Rec = H.M->functionByName("rec");
  H.go("kernel", nullptr, "entry");
  H.go("kernel", "entry", "loop");
  H.go("kernel", "loop", "body");
  H.nextIteration("kernel");
  H.C->onCall(H.Call, Rec);
  H.go("rec", nullptr, "entry");
  H.go("rec", "entry", "loop");
  H.go("rec", "loop", "body");
  Profile P = H.C->finish();
  LoopStats K = P.loopStats(H.loop("kernel"));
  EXPECT_EQ(K.Invocations, 1u);
  EXPECT_EQ(K.Iterations, 2u);
  EXPECT_EQ(K.Weight, 3u + 5u + 3u + 3u + 5u + (1u + 3u + 2u));
  LoopStats R = P.loopStats(H.loop("rec"));
  EXPECT_EQ(R.Invocations, 1u);
  EXPECT_EQ(R.Iterations, 1u);
  EXPECT_EQ(R.Weight, 3u + 2u);
}

TEST(Profiler, RecursiveActivationsEachAccrueWeight) {
  HandDriven H;
  const Function *Rec = H.M->functionByName("rec");
  H.go("rec", nullptr, "entry");
  H.go("rec", "entry", "loop");
  H.go("rec", "loop", "body");
  H.C->onCall(H.Call, Rec);
  H.go("rec", nullptr, "entry");
  H.go("rec", "entry", "loop");
  H.go("rec", "loop", "body");
  H.go("rec", "body", "latch");
  H.go("rec", "latch", "loop");
  H.go("rec", "loop", "exit");
  H.C->onReturn(Rec);
  H.go("rec", "body", "latch");
  H.go("rec", "latch", "loop");
  H.go("rec", "loop", "exit");
  Profile P = H.C->finish();
  LoopStats S = P.loopStats(H.loop("rec"));
  EXPECT_EQ(S.Invocations, 2u);
  EXPECT_EQ(S.Iterations, 4u);
  // The inner activation: loop, body, latch, loop.  The outer one: its
  // own blocks plus everything of the recursive call, exit block too.
  const uint64_t Inner = 3 + 2 + 2 + 3;
  const uint64_t Outer = 3 + 2 + (1 + Inner + 1) + 2 + 3;
  EXPECT_EQ(S.Weight, Inner + Outer);
}

TEST(Profiler, AlternatingStoresKeepSeparateDistances) {
  // One load site reads, in turn, what each of two stores wrote.
  HandDriven H;
  alignas(8) static uint8_t Buf[8];
  uint64_t A = reinterpret_cast<uint64_t>(Buf);
  auto Skip = [&](unsigned N) {
    for (unsigned K = 0; K < N; ++K)
      H.nextIteration("kernel");
  };
  H.go("kernel", nullptr, "entry");
  H.go("kernel", "entry", "loop");
  H.go("kernel", "loop", "body");
  H.C->onStore(H.Store, A, 8); // iteration 0
  Skip(1);
  H.C->onLoad(H.Load, A, 8); // Store, distance 1
  H.C->onStore(H.LatchStore, A, 8);
  Skip(2);
  H.C->onLoad(H.Load, A, 8); // LatchStore, distance 2
  H.C->onStore(H.Store, A, 8);
  Skip(1);
  H.C->onLoad(H.Load, A, 8); // Store, distance 1
  H.C->onStore(H.LatchStore, A, 8);
  Skip(3);
  H.C->onLoad(H.Load, A, 4); // LatchStore, distance 3, 4 bytes
  Profile P = H.C->finish();
  const Loop *L = H.loop("kernel");
  EXPECT_EQ(P.crossIterationFlowDeps(L).size(), 2u);
  const DepDistance *First = P.flowDepDistance(L, FlowDep{H.Store, H.Load});
  ASSERT_NE(First, nullptr);
  EXPECT_EQ(First->Min, 1u);
  EXPECT_EQ(First->Max, 1u);
  EXPECT_EQ(First->Samples, 16u);
  const DepDistance *Second =
      P.flowDepDistance(L, FlowDep{H.LatchStore, H.Load});
  ASSERT_NE(Second, nullptr);
  EXPECT_EQ(Second->Min, 2u);
  EXPECT_EQ(Second->Max, 3u);
  EXPECT_EQ(Second->Samples, 12u);
}

TEST(Profiler, LoopContextsAreBoundedByLiveState) {
  HandDriven H;
  alignas(8) static uint8_t Obj[8], Acc[8], Inner[8];
  uint64_t O = reinterpret_cast<uint64_t>(Obj);
  uint64_t A = reinterpret_cast<uint64_t>(Acc);
  uint64_t In = reinterpret_cast<uint64_t>(Inner);
  const Function *Rec = H.M->functionByName("rec");
  H.go("kernel", nullptr, "entry");
  H.go("kernel", "entry", "loop");
  H.go("kernel", "loop", "body");
  // Each iteration allocates and frees, updates one accumulator, and
  // calls into a loop that stores once: every context an iteration makes
  // is dead by the next one's.
  constexpr unsigned kIterations = 100'000;
  for (unsigned K = 0; K < kIterations; ++K) {
    H.C->onAlloc(H.Malloc, O, 8);
    H.C->onStore(H.Store, O, 8);
    H.C->onFree(H.Free, O);
    H.C->onLoad(H.Load, A, 8);
    H.C->onStore(H.Store, A, 8);
    H.C->onCall(H.Call, Rec);
    H.go("rec", nullptr, "entry");
    H.go("rec", "entry", "loop");
    H.go("rec", "loop", "body");
    H.C->onStore(H.Store, In, 8);
    H.go("rec", "body", "latch");
    H.go("rec", "latch", "loop");
    H.go("rec", "loop", "exit");
    H.C->onReturn(Rec);
    H.nextIteration("kernel");
  }
  EXPECT_LE(H.C->contextNodes(), 8u) << "contexts grew with iterations";
  Profile P = H.C->finish();
  const DepDistance *DS =
      P.flowDepDistance(H.loop("kernel"), FlowDep{H.Store, H.Load});
  ASSERT_NE(DS, nullptr);
  EXPECT_EQ(DS->Samples, 8u * (kIterations - 1));
  EXPECT_EQ(DS->Min, 1u);
  EXPECT_EQ(DS->Max, 1u);
}

TEST(Profiler, WordLoadOverWordStoreCountsEightSamples) {
  auto R = profileText("global @g 8\n"
                       "define void @kernel() {\n"
                       "entry:\n"
                       "  br loop\n"
                       "loop:\n"
                       "  %i = phi [entry: 0], [latch: %inext]\n"
                       "  %c = icmp lt, %i, 2\n"
                       "  condbr %c, body, exit\n"
                       "body:\n"
                       "  %old = load i64, @g, 8\n"
                       "  %new = add %old, 1\n"
                       "  store %new, @g, 8\n"
                       "  br latch\n"
                       "latch:\n"
                       "  %inext = add %i, 1\n"
                       "  br loop\n"
                       "exit:\n"
                       "  ret\n"
                       "}\n"
                       "define i64 @main() {\n"
                       "entry:\n"
                       "  call @kernel()\n"
                       "  ret 0\n"
                       "}\n");
  const Loop *L = loopNamed(*R.FA, *R.M, "kernel", "loop");
  const auto &Body = R.M->functionByName("kernel")
                         ->blockByName("body")
                         ->instructions();
  const DepDistance *DS =
      R.P.flowDepDistance(L, FlowDep{Body[2].get(), Body[0].get()});
  ASSERT_NE(DS, nullptr);
  EXPECT_EQ(DS->Samples, 8u) << "one sample per byte of the one carried read";
  EXPECT_EQ(DS->Min, 1u);
}

TEST(Profiler, TrainingRunTrapsComeBackTyped) {
  // Both engines trap with the same reasons.  Register and folded-constant
  // divisors lower to different VM opcodes; @spin3's budget runs out
  // mid-block in the interpreter and at a block entry in the VM.
  std::string Err;
  auto M = parseModule("define i64 @main() {\n"
                       "entry:\n"
                       "  %z = add 0, 0\n"
                       "  %q = srem 7, %z\n"
                       "  ret %q\n"
                       "}\n"
                       "define i64 @srem_imm() {\n"
                       "entry:\n"
                       "  %q = srem 7, 0\n"
                       "  ret %q\n"
                       "}\n"
                       "define i64 @sdiv_reg() {\n"
                       "entry:\n"
                       "  %z = add 0, 0\n"
                       "  %q = sdiv 7, %z\n"
                       "  ret %q\n"
                       "}\n"
                       "define i64 @sdiv_imm() {\n"
                       "entry:\n"
                       "  %q = sdiv 7, 0\n"
                       "  ret %q\n"
                       "}\n"
                       "define void @spin() {\n"
                       "entry:\n"
                       "  br entry\n"
                       "}\n"
                       "define void @spin3() {\n"
                       "entry:\n"
                       "  br loop\n"
                       "loop:\n"
                       "  %a = add 1, 2\n"
                       "  %b = add %a, 3\n"
                       "  br loop\n"
                       "}\n",
                       Err);
  ASSERT_NE(M, nullptr) << Err;
  FunctionAnalyses FA(*M);
  const char *Budget = "instruction budget exceeded (runaway loop?)";
  const std::pair<const char *, const char *> Cases[] = {
      {"main", "remainder by zero"}, {"srem_imm", "remainder by zero"},
      {"sdiv_reg", "division by zero"}, {"sdiv_imm", "division by zero"},
      {"spin", Budget}, {"spin3", Budget}};
  for (ExecEngine E : {ExecEngine::Bytecode, ExecEngine::Interp}) {
    SCOPED_TRACE(execEngineName(E));
    for (const auto &[Entry, Reason] : Cases) {
      TrainingRun R = runTrainingProfile(*M, FA, Entry, {}, 1000, E);
      EXPECT_EQ(R.Trap, Reason) << "@" << Entry;
    }
    TrainingRun S = runTrainingProfile(*M, FA, "spin", {}, 1000, E);
    EXPECT_EQ(S.Instructions, 1001u);
  }
}

TEST(Profiler, CompletedRunsCountTheSameOnBothEngines) {
  // Calls, allocations, frees and phis all count: dijkstra has them all.
  std::string Err;
  auto M = parseModule(dijkstraIrText(8), Err);
  ASSERT_NE(M, nullptr) << Err;
  FunctionAnalyses FA(*M);
  TrainingRun Vm = runTrainingProfile(
      *M, FA, "main", {}, interp::Interpreter::kDefaultInstructionBudget);
  TrainingRun Ref = runTrainingProfile(
      *M, FA, "main", {}, interp::Interpreter::kDefaultInstructionBudget,
      ExecEngine::Interp);
  ASSERT_EQ(Vm.Trap, "");
  ASSERT_EQ(Ref.Trap, "");
  EXPECT_GT(Ref.Instructions, 0u);
  EXPECT_EQ(Vm.Instructions, Ref.Instructions);
  EXPECT_EQ(Vm.Loads, Ref.Loads);
  EXPECT_EQ(Vm.Stores, Ref.Stores);
  EXPECT_GT(Ref.Allocs, 0u);
  EXPECT_EQ(Vm.Allocs, Ref.Allocs);

  // A budget of exactly the run's count is enough on both engines.
  TrainingRun Tight =
      runTrainingProfile(*M, FA, "main", {}, Ref.Instructions);
  EXPECT_EQ(Tight.Trap, "");
  TrainingRun Short =
      runTrainingProfile(*M, FA, "main", {}, Ref.Instructions - 1);
  EXPECT_EQ(Short.Trap, "instruction budget exceeded (runaway loop?)");
}

TEST(Profiler, TrainingOutputNeverReachesStdout) {
  // With no descriptor free, the training run's prints must still be
  // discarded rather than fall through to the process's stdout.  The
  // child's stdout is a pipe opened before the descriptor limit is
  // clamped to the lowest free descriptor.
  std::string Err;
  auto M = parseModule("define i64 @main() {\n"
                       "entry:\n"
                       "  print \"training output %d\\n\", 7\n"
                       "  ret 0\n"
                       "}\n",
                       Err);
  ASSERT_NE(M, nullptr) << Err;
  FunctionAnalyses FA(*M);
  // UBSan vets an object's type on first sight through a pipe; runs made
  // before the clamp leave those checks cached for the child.
  for (ExecEngine E : {ExecEngine::Bytecode, ExecEngine::Interp})
    ASSERT_EQ(runTrainingProfile(*M, FA, "main", {}, 1000, E).Trap, "");
  int Pipe[2];
  ASSERT_EQ(pipe(Pipe), 0);
  std::fflush(stdout);
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    dup2(Pipe[1], STDOUT_FILENO);
    close(Pipe[0]);
    close(Pipe[1]);
    int Lowest = 0;
    while (fcntl(Lowest, F_GETFD) != -1)
      ++Lowest;
    rlimit L{};
    getrlimit(RLIMIT_NOFILE, &L);
    L.rlim_cur = static_cast<rlim_t>(Lowest);
    bool Clamped = setrlimit(RLIMIT_NOFILE, &L) == 0 &&
                   open("/dev/null", O_RDONLY) < 0;
    for (ExecEngine E : {ExecEngine::Bytecode, ExecEngine::Interp}) {
      TrainingRun R = runTrainingProfile(*M, FA, "main", {}, 1000, E);
      if (!R.Trap.empty())
        _exit(2);
    }
    std::fflush(stdout);
    _exit(Clamped ? 0 : 3);
  }
  close(Pipe[1]);
  std::string Got;
  char Buf[256];
  ssize_t N;
  while ((N = read(Pipe[0], Buf, sizeof(Buf))) > 0)
    Got.append(Buf, static_cast<size_t>(N));
  close(Pipe[0]);
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  EXPECT_EQ(Got, "");
}

} // namespace
