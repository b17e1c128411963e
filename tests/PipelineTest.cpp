//===- tests/PipelineTest.cpp - Fully automatic pipeline ------------------===//
//
// End-to-end tests of the paper's Figure 3 pipeline on IR programs:
// profile -> classify (Algorithms 1 & 2) -> select -> transform
// (§4.4-4.6) -> speculative parallel execution (§5), checked for exact
// output equivalence against plain sequential interpretation.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "transform/Pipeline.h"
#include "workloads/IrPrograms.h"

#include <gtest/gtest.h>

using namespace privateer;
using namespace privateer::ir;
using namespace privateer::transform;

namespace {

std::string readAll(std::FILE *F) {
  std::string Out;
  std::rewind(F);
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  return Out;
}

std::unique_ptr<Module> parseOrDie(const std::string &Text) {
  std::string Err;
  auto M = parseModule(Text, Err);
  EXPECT_NE(M, nullptr) << Err;
  if (M) {
    auto Diags = verifyModule(*M);
    EXPECT_TRUE(Diags.empty()) << Diags.front();
  }
  return M;
}

/// Finds the heap a named global was assigned.
HeapKind heapOfGlobal(const Module &M, const std::string &Name) {
  GlobalVariable *G = M.globalByName(Name);
  EXPECT_NE(G, nullptr);
  EXPECT_TRUE(G->hasAssignedHeap()) << Name << " has no heap assignment";
  return G->hasAssignedHeap() ? G->assignedHeap() : HeapKind::Unrestricted;
}

TEST(Pipeline, DijkstraClassificationMatchesPaperFigure4) {
  auto M = parseOrDie(dijkstraIrText(16));
  analysis::FunctionAnalyses FA(*M);
  PipelineOptions Opt;
  std::FILE *Sink = std::tmpfile(); // Swallow the training run's output.
  Runtime::get().setSequentialOutput(Sink);
  PipelineResult R = runPrivateerPipeline(*M, FA, Opt);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(Sink);

  ASSERT_TRUE(R.Transformed)
      << (R.Log.empty() ? "" : R.Log.back());
  ASSERT_NE(R.SelectedLoop, nullptr);
  // The hottest loop must be hot_loop's outer source loop.
  EXPECT_EQ(R.SelectedLoop->header()->parent()->name(), "hot_loop");
  EXPECT_EQ(R.SelectedLoop->header()->name(), "loop");

  // Figure 4's heap assignment: Q and pathcost private, adj read-only,
  // queue nodes short-lived.
  EXPECT_EQ(heapOfGlobal(*M, "Q"), HeapKind::Private);
  EXPECT_EQ(heapOfGlobal(*M, "pathcost"), HeapKind::Private);
  EXPECT_EQ(heapOfGlobal(*M, "out"), HeapKind::Private);
  EXPECT_EQ(heapOfGlobal(*M, "adj"), HeapKind::ReadOnly);

  // The malloc in @enqueue is the short-lived allocation site.
  Function *Enq = M->functionByName("enqueue");
  ASSERT_NE(Enq, nullptr);
  bool FoundShortLivedSite = false;
  for (const auto &B : Enq->blocks())
    for (const auto &I : B->instructions())
      if (I->opcode() == Opcode::Malloc) {
        ASSERT_TRUE(I->hasAllocHeap());
        EXPECT_EQ(I->allocHeap(), HeapKind::ShortLived);
        FoundShortLivedSite = true;
      }
  EXPECT_TRUE(FoundShortLivedSite);

  // Value prediction on the queue's emptiness (Figure 2b lines 78-80):
  // the tail pointer at offset 8 in @Q, predicted null.
  ASSERT_EQ(R.Assignment.Predictions.size(), 1u);
  EXPECT_EQ(R.Assignment.Predictions[0].Global->name(), "Q");
  EXPECT_EQ(R.Assignment.Predictions[0].Offset, 8u);
  EXPECT_EQ(R.Assignment.Predictions[0].Value, 0);
  EXPECT_EQ(R.Stats.PredictionsInstalled, 1u);
  EXPECT_GT(R.Stats.PrivacyChecks, 0u);
  EXPECT_GT(R.Stats.SeparationChecks, 0u);

  // The transformed module still verifies and round-trips through text.
  auto Diags = verifyModule(*M);
  EXPECT_TRUE(Diags.empty()) << Diags.front();
  std::string Text = printModule(*M);
  std::string Err;
  auto Reparsed = parseModule(Text, Err);
  EXPECT_NE(Reparsed, nullptr) << Err;
}

TEST(Pipeline, DijkstraParallelOutputIsExact) {
  constexpr unsigned N = 20;

  // Reference: plain sequential interpretation of the original program.
  std::string Expected;
  {
    auto M = parseOrDie(dijkstraIrText(N));
    std::FILE *Out = std::tmpfile();
    PipelineOptions Opt;
    executeSequential(*M, Opt, Out);
    Expected = readAll(Out);
    std::fclose(Out);
  }
  ASSERT_NE(Expected.find("src 0 cost"), std::string::npos);

  // Pipeline + speculative parallel execution on a fresh module.
  auto M = parseOrDie(dijkstraIrText(N));
  analysis::FunctionAnalyses FA(*M);
  PipelineOptions Opt;
  std::FILE *TrainSink = std::tmpfile();
  Runtime::get().setSequentialOutput(TrainSink);
  PipelineResult R = runPrivateerPipeline(*M, FA, Opt);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(TrainSink);
  ASSERT_TRUE(R.Transformed);

  for (unsigned Workers : {1u, 3u, 4u}) {
    std::FILE *Out = std::tmpfile();
    ParallelOptions Par;
    Par.NumWorkers = Workers;
    Par.CheckpointPeriod = 4;
    RuntimeConfig Config;
    ExecutionResult E =
        executePrivatized(*M, FA, R.Assignment, Opt, Par, Config, Out);
    std::string Got = readAll(Out);
    std::fclose(Out);
    EXPECT_EQ(Got, Expected) << Workers << " workers";
    EXPECT_EQ(E.Stats.Misspecs, 0u)
        << Workers << " workers: " << E.Stats.FirstMisspecReason;
    EXPECT_GT(E.Stats.PrivateReadBytes, 0u);
    EXPECT_GT(E.Stats.SeparationChecks, 0u);
  }
}

TEST(Pipeline, DijkstraRecoversFromInjectedMisspeculation) {
  constexpr unsigned N = 20;
  std::string Expected;
  {
    auto M = parseOrDie(dijkstraIrText(N));
    std::FILE *Out = std::tmpfile();
    PipelineOptions Opt;
    executeSequential(*M, Opt, Out);
    Expected = readAll(Out);
    std::fclose(Out);
  }

  auto M = parseOrDie(dijkstraIrText(N));
  analysis::FunctionAnalyses FA(*M);
  PipelineOptions Opt;
  std::FILE *TrainSink = std::tmpfile();
  Runtime::get().setSequentialOutput(TrainSink);
  PipelineResult R = runPrivateerPipeline(*M, FA, Opt);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(TrainSink);
  ASSERT_TRUE(R.Transformed);

  std::FILE *Out = std::tmpfile();
  ParallelOptions Par;
  Par.NumWorkers = 4;
  Par.CheckpointPeriod = 4;
  Par.InjectMisspecRate = 0.08;
  RuntimeConfig Config;
  ExecutionResult E =
      executePrivatized(*M, FA, R.Assignment, Opt, Par, Config, Out);
  std::string Got = readAll(Out);
  std::fclose(Out);
  EXPECT_EQ(Got, Expected);
  EXPECT_GE(E.Stats.Misspecs, 1u);
}

TEST(Pipeline, ReductionKernelClassifiedAndCombined) {
  constexpr uint64_t N = 400;
  int64_t ExpectedSum = 0;
  for (uint64_t I = 0; I < N; ++I)
    ExpectedSum += static_cast<int64_t>((I * I) % 1000);

  auto M = parseOrDie(reductionSumIrText(N));
  analysis::FunctionAnalyses FA(*M);
  PipelineOptions Opt;
  std::FILE *TrainSink = std::tmpfile();
  Runtime::get().setSequentialOutput(TrainSink);
  PipelineResult R = runPrivateerPipeline(*M, FA, Opt);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(TrainSink);

  ASSERT_TRUE(R.Transformed) << (R.Log.empty() ? "" : R.Log.back());
  EXPECT_EQ(heapOfGlobal(*M, "acc"), HeapKind::Redux);
  ASSERT_EQ(R.Assignment.ReduxOps.size(), 1u);
  // The log names the engine the training run used.
  ASSERT_FALSE(R.Log.empty());
  EXPECT_EQ(R.Log.front().rfind("profiled @main on bytecode: ", 0), 0u)
      << R.Log.front();
  for (const char *Count : {" instructions in ", " loads, ", " stores, ",
                            " allocs"})
    EXPECT_NE(R.Log.front().find(Count), std::string::npos) << R.Log.front();

  std::FILE *Out = std::tmpfile();
  ParallelOptions Par;
  Par.NumWorkers = 4;
  Par.CheckpointPeriod = 32;
  RuntimeConfig Config;
  ExecutionResult E =
      executePrivatized(*M, FA, R.Assignment, Opt, Par, Config, Out);
  std::fclose(Out);
  EXPECT_EQ(E.ReturnValue.asInt(), ExpectedSum);
  EXPECT_EQ(E.Stats.Misspecs, 0u) << E.Stats.FirstMisspecReason;
}

// Privatized code runs only on the VM: the interpreter, the sequential
// oracle, refuses the transformed opcodes instead of running them.
TEST(Pipeline, InterpreterRefusesTransformedModules) {
  auto M = parseOrDie(dijkstraIrText(8));
  analysis::FunctionAnalyses FA(*M);
  std::FILE *TrainSink = std::tmpfile();
  Runtime::get().setSequentialOutput(TrainSink);
  PipelineResult R = runPrivateerPipeline(*M, FA, PipelineOptions());
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(TrainSink);
  ASSERT_TRUE(R.Transformed) << (R.Log.empty() ? "" : R.Log.back());

  PipelineOptions Interp;
  Interp.Engine = ExecEngine::Interp;
  EXPECT_DEATH(executeSequential(*M, Interp, std::tmpfile()),
               "interpreter runs untransformed IR only");
  // The VM runs the same module sequentially (checks are no-ops there).
  std::FILE *Out = std::tmpfile();
  EXPECT_EQ(executeSequential(*M, PipelineOptions(), Out).asInt(),
            executePrivatized(*M, FA, R.Assignment, PipelineOptions(),
                              ParallelOptions(), RuntimeConfig(), Out)
                .ReturnValue.asInt());
  std::fclose(Out);
}

TEST(Pipeline, GenuineRecurrenceIsNotParallelizable) {
  auto M = parseOrDie(recurrenceIrText(300));
  analysis::FunctionAnalyses FA(*M);
  PipelineOptions Opt;
  PipelineResult R = runPrivateerPipeline(*M, FA, Opt);
  // classify must flag @cell unrestricted; selection rejects the loop.
  EXPECT_FALSE(R.Transformed);
  bool SawUnrestricted = false;
  for (const std::string &L : R.Log)
    if (L.find("NOT parallelizable") != std::string::npos)
      SawUnrestricted = true;
  EXPECT_TRUE(SawUnrestricted) << "log did not flag the recurrence";
}

} // namespace

namespace {

TEST(Pipeline, FloatingPointKernelParallelizesExactly) {
  constexpr uint64_t N = 300;
  std::string Expected;
  {
    auto M = parseOrDie(fpPricingIrText(N));
    std::FILE *Out = std::tmpfile();
    executeSequential(*M, PipelineOptions(), Out);
    Expected = readAll(Out);
    std::fclose(Out);
  }
  ASSERT_NE(Expected.find("total "), std::string::npos);

  auto M = parseOrDie(fpPricingIrText(N));
  analysis::FunctionAnalyses FA(*M);
  PipelineOptions Opt;
  std::FILE *Sink = std::tmpfile();
  Runtime::get().setSequentialOutput(Sink);
  PipelineResult R = runPrivateerPipeline(*M, FA, Opt);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(Sink);
  ASSERT_TRUE(R.Transformed) << (R.Log.empty() ? "" : R.Log.back());
  // The pricing loop privatizes @price; @spot and @vol are read-only.
  EXPECT_EQ(heapOfGlobal(*M, "price"), HeapKind::Private);
  EXPECT_EQ(heapOfGlobal(*M, "spot"), HeapKind::ReadOnly);
  EXPECT_EQ(heapOfGlobal(*M, "vol"), HeapKind::ReadOnly);

  std::FILE *Out = std::tmpfile();
  ParallelOptions Par;
  Par.NumWorkers = 4;
  Par.CheckpointPeriod = 32;
  ExecutionResult E = executePrivatized(*M, FA, R.Assignment, Opt, Par,
                                        RuntimeConfig(), Out);
  std::string Got = readAll(Out);
  std::fclose(Out);
  // Bit-exact: per-iteration FP is order-independent across iterations
  // (no cross-iteration FP accumulation inside the parallel loop).
  EXPECT_EQ(Got, Expected);
  EXPECT_EQ(E.Stats.Misspecs, 0u) << E.Stats.FirstMisspecReason;
}

} // namespace
