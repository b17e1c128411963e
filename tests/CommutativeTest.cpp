//===- tests/CommutativeTest.cpp - Commutative updates end to end ---------===//
//
// Reductions beyond Algorithm 2's shape: recognition of data-dependent
// counter bumps, min/max maps and bitmap ORs as reduction updates,
// per-worker copies combined through the checkpoint slots, byte-exact
// equivalence against sequential execution on both engines,
// heap-allocated objects, sub-word min/max, updates whose old value
// escapes or whose operators mix, recovery under injected misspeculation,
// and the A/B fallback arm where the same programs classify Private and
// pay deterministic privacy misspeculation.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Image.h"
#include "ir/IRParser.h"
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

HeapKind heapOfGlobal(const Module &M, const std::string &Name) {
  GlobalVariable *G = M.globalByName(Name);
  EXPECT_NE(G, nullptr);
  EXPECT_TRUE(G->hasAssignedHeap()) << Name << " has no heap assignment";
  return G->hasAssignedHeap() ? G->assignedHeap() : HeapKind::Unrestricted;
}

std::string sequentialReference(const std::string &Text) {
  auto M = parseOrDie(Text);
  std::FILE *Out = std::tmpfile();
  executeSequential(*M, PipelineOptions(), Out);
  std::string Expected = readAll(Out);
  std::fclose(Out);
  return Expected;
}

PipelineResult runPipeline(Module &M, analysis::FunctionAnalyses &FA,
                           const PipelineOptions &Opt) {
  std::FILE *Sink = std::tmpfile();
  Runtime::get().setSequentialOutput(Sink);
  PipelineResult R = runPrivateerPipeline(M, FA, Opt);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(Sink);
  return R;
}

TEST(Commutative, HistogramClassifiesBothObjectsCommutative) {
  auto M = parseOrDie(histogramIrText(600, 16, 4));
  analysis::FunctionAnalyses FA(*M);
  PipelineOptions Opt;
  PipelineResult R = runPipeline(*M, FA, Opt);
  ASSERT_TRUE(R.Transformed) << (R.Log.empty() ? "" : R.Log.back());

  // Data-dependent bucket addresses through recomputed geps: the
  // reduction recognizer claims the add updates on @hist and the min-map
  // updates on @hmin.
  EXPECT_EQ(heapOfGlobal(*M, "hist"), HeapKind::Redux);
  EXPECT_EQ(heapOfGlobal(*M, "hmin"), HeapKind::Redux);
  ASSERT_EQ(R.Assignment.ReduxOps.size(), 2u);
  for (const auto &[O, ElemOp] : R.Assignment.ReduxOps) {
    ASSERT_NE(O.Global, nullptr);
    if (O.Global->name() == "hist")
      EXPECT_EQ(ElemOp.second, ReduxOp::Add);
    else if (O.Global->name() == "hmin")
      EXPECT_EQ(ElemOp.second, ReduxOp::Min);
    else
      ADD_FAILURE() << "unexpected reduction object " << O.Global->name();
    EXPECT_EQ(ElemOp.first, ReduxElem::I64);
  }
  EXPECT_EQ(R.Stats.ComUpdatesInstalled, 2u);

  // The transformed module still verifies.
  auto Diags = verifyModule(*M);
  EXPECT_TRUE(Diags.empty()) << Diags.front();
}

TEST(Commutative, HistogramParallelOutputIsExactOnBothEngines) {
  const std::string Text = histogramIrText(600, 16, 4);
  std::string Expected = sequentialReference(Text);
  ASSERT_NE(Expected.find("hist "), std::string::npos);

  // Both training engines; the privatized module always runs on the VM.
  for (ExecEngine Engine : {ExecEngine::Bytecode, ExecEngine::Interp}) {
    auto M = parseOrDie(Text);
    analysis::FunctionAnalyses FA(*M);
    PipelineOptions Opt;
    Opt.Engine = Engine;
    PipelineResult R = runPipeline(*M, FA, Opt);
    ASSERT_TRUE(R.Transformed) << (R.Log.empty() ? "" : R.Log.back());

    for (unsigned Workers : {1u, 2u, 4u}) {
      std::FILE *Out = std::tmpfile();
      ParallelOptions Par;
      Par.NumWorkers = Workers;
      Par.CheckpointPeriod = 16;
      ExecutionResult E = executePrivatized(*M, FA, R.Assignment, Opt, Par,
                                            RuntimeConfig(), Out);
      std::string Got = readAll(Out);
      std::fclose(Out);
      EXPECT_EQ(Got, Expected)
          << execEngineName(Engine) << " " << Workers << " workers";
      EXPECT_EQ(E.Stats.Misspecs, 0u)
          << execEngineName(Engine) << " " << Workers
          << " workers: " << E.Stats.FirstMisspecReason;
      if (Workers > 1) {
        EXPECT_GT(E.Stats.ComRecordsCommitted, 0u)
            << "commits must combine the workers' copies";
        EXPECT_EQ(E.Stats.ComOverflows, 0u);
      }
    }
  }
}

TEST(Commutative, DegreeCountAndDedupParallelizeExactly) {
  struct Case {
    const char *ComGlobal;
    ReduxOp Op;
    std::string Text;
  } Cases[] = {
      {"deg", ReduxOp::Add, degreeCountIrText(24, 500, 4)},
      {"seen", ReduxOp::Or, dedupIrText(500, 8, 4)},
  };
  for (const Case &C : Cases) {
    std::string Expected = sequentialReference(C.Text);
    auto M = parseOrDie(C.Text);
    analysis::FunctionAnalyses FA(*M);
    PipelineOptions Opt;
    PipelineResult R = runPipeline(*M, FA, Opt);
    ASSERT_TRUE(R.Transformed)
        << C.ComGlobal << ": " << (R.Log.empty() ? "" : R.Log.back());
    EXPECT_EQ(heapOfGlobal(*M, C.ComGlobal), HeapKind::Redux);
    ASSERT_EQ(R.Assignment.ReduxOps.size(), 1u);
    EXPECT_EQ(R.Assignment.ReduxOps.begin()->second.second, C.Op);

    std::FILE *Out = std::tmpfile();
    ParallelOptions Par;
    Par.NumWorkers = 4;
    Par.CheckpointPeriod = 16;
    ExecutionResult E = executePrivatized(*M, FA, R.Assignment, Opt, Par,
                                          RuntimeConfig(), Out);
    std::string Got = readAll(Out);
    std::fclose(Out);
    EXPECT_EQ(Got, Expected) << C.ComGlobal;
    EXPECT_EQ(E.Stats.Misspecs, 0u)
        << C.ComGlobal << ": " << E.Stats.FirstMisspecReason;
    EXPECT_GT(E.Stats.ComRecordsCommitted, 0u) << C.ComGlobal;
  }
}

TEST(Commutative, FallbackClassificationPaysPrivacyMisspeculation) {
  const std::string Text = histogramIrText(600, 128, 4);
  std::string Expected = sequentialReference(Text);

  auto M = parseOrDie(Text);
  analysis::FunctionAnalyses FA(*M);
  PipelineOptions Opt;
  Opt.EnableReductions = false;
  // Profile the warmup-only training entry, as the paper profiles train
  // and evaluates ref: the training run touches each bucket once, so with
  // no reduction recognized classification sees no cross-iteration flow
  // and optimistically privatizes the arrays.
  Opt.TrainingEntryFunction = "train";
  PipelineResult R = runPipeline(*M, FA, Opt);
  ASSERT_TRUE(R.Transformed) << (R.Log.empty() ? "" : R.Log.back());

  // Without reductions the histogram arrays classify private, with every
  // production iteration past the warmup reading live-in bytes an earlier
  // iteration wrote.
  EXPECT_EQ(heapOfGlobal(*M, "hist"), HeapKind::Private);
  EXPECT_EQ(R.Assignment.ReduxOps.size(), 0u);

  std::FILE *Out = std::tmpfile();
  ParallelOptions Par;
  Par.NumWorkers = 4;
  Par.CheckpointPeriod = 16;
  ExecutionResult E = executePrivatized(*M, FA, R.Assignment, Opt, Par,
                                        RuntimeConfig(), Out);
  std::string Got = readAll(Out);
  std::fclose(Out);
  // Recovery keeps the output exact, but the colliding buckets cost
  // genuine misspeculation the reduction heap avoids entirely.
  EXPECT_EQ(Got, Expected);
  EXPECT_GT(E.Stats.Misspecs, 0u)
      << "fallback arm should misspeculate on cross-iteration buckets";
  EXPECT_EQ(E.Stats.ComRecordsCommitted, 0u);
}

TEST(Commutative, RecoversFromInjectedMisspeculation) {
  const std::string Text = histogramIrText(600, 16, 4);
  std::string Expected = sequentialReference(Text);

  auto M = parseOrDie(Text);
  analysis::FunctionAnalyses FA(*M);
  PipelineOptions Opt;
  PipelineResult R = runPipeline(*M, FA, Opt);
  ASSERT_TRUE(R.Transformed);

  std::FILE *Out = std::tmpfile();
  ParallelOptions Par;
  Par.NumWorkers = 4;
  Par.CheckpointPeriod = 8;
  Par.InjectMisspecRate = 0.08;
  ExecutionResult E = executePrivatized(*M, FA, R.Assignment, Opt, Par,
                                        RuntimeConfig(), Out);
  std::string Got = readAll(Out);
  std::fclose(Out);
  // Squashed workers' copies die with the process; sequential recovery
  // re-applies the period's updates directly.
  EXPECT_EQ(Got, Expected);
  EXPECT_GE(E.Stats.Misspecs, 1u);
}

TEST(Commutative, ImageRoundTripRunsCommutativeUpdatesWarm) {
  const std::string Text = histogramIrText(600, 16, 4);
  std::string Expected = sequentialReference(Text);

  auto M = parseOrDie(Text);
  analysis::FunctionAnalyses FA(*M);
  PipelineOptions Opt;
  PipelineResult R = runPipeline(*M, FA, Opt);
  ASSERT_TRUE(R.Transformed);

  std::string WhyNot;
  auto Prog = lowerForPrivatized(*M, FA, R.Assignment, WhyNot);
  ASSERT_NE(Prog, nullptr) << WhyNot;

  // Serialize and reload: the image alone, in a process with no
  // classification state, must run the reduction updates exactly (the
  // image carries the tables' registrations).
  std::string Image = bytecode::serializeProgram(*Prog);
  std::string Err;
  auto Loaded = bytecode::deserializeProgram(Image.data(), Image.size(), Err);
  ASSERT_NE(Loaded, nullptr) << Err;

  std::FILE *Out = std::tmpfile();
  ParallelOptions Par;
  Par.NumWorkers = 4;
  Par.CheckpointPeriod = 16;
  ExecutionResult E =
      executeLoadedParallel(*Loaded, Opt, Par, RuntimeConfig(), Out);
  std::string Got = readAll(Out);
  std::fclose(Out);
  EXPECT_EQ(Got, Expected);
  EXPECT_EQ(E.Stats.Misspecs, 0u) << E.Stats.FirstMisspecReason;
  EXPECT_GT(E.Stats.ComRecordsCommitted, 0u);
}

/// Compiles \p Text through the pipeline and runs the selected loop at
/// \p Workers workers with the derived checkpoint period.
std::string runPrivatized(const std::string &Text, unsigned Workers,
                          InvocationStats *Stats = nullptr) {
  auto M = parseOrDie(Text);
  analysis::FunctionAnalyses FA(*M);
  PipelineOptions Opt;
  PipelineResult R = runPipeline(*M, FA, Opt);
  EXPECT_TRUE(R.Transformed) << (R.Log.empty() ? "" : R.Log.back());
  if (!R.Transformed)
    return "";
  std::FILE *Out = std::tmpfile();
  ParallelOptions Par;
  Par.NumWorkers = Workers;
  ExecutionResult E = executePrivatized(*M, FA, R.Assignment, Opt, Par,
                                        RuntimeConfig(), Out);
  std::string Got = readAll(Out);
  std::fclose(Out);
  if (Stats)
    *Stats = E.Stats;
  return Got;
}

TEST(Commutative, HeapAllocatedObjectsKeepEveryUpdate) {
  // A reduction cell and a table updated through a recomputed cell
  // address, both malloced by main: their allocation sites, not globals,
  // carry the registrations, and a registration lost would drop every
  // worker's updates without a single misspeculation.
  const std::string Text = "global @accp 8\n"
                           "global @tabp 8\n"
                           "define void @kernel(i64 %n) {\n"
                           "entry:\n"
                           "  %acc = load ptr, @accp, 8\n"
                           "  %tab = load ptr, @tabp, 8\n"
                           "  br loop\n"
                           "loop:\n"
                           "  %i = phi [entry: 0], [latch: %inext]\n"
                           "  %c = icmp lt, %i, %n\n"
                           "  condbr %c, body, exit\n"
                           "body:\n"
                           "  %sq = mul %i, %i\n"
                           "  %f = srem %sq, 1000\n"
                           "  %old = load i64, %acc, 8\n"
                           "  %new = add %old, %f\n"
                           "  store %new, %acc, 8\n"
                           "  %b = srem %sq, 16\n"
                           "  %off = mul %b, 8\n"
                           "  %p = gep %tab, %off\n"
                           "  %told = load i64, %p, 8\n"
                           "  %tnew = add %told, %f\n"
                           "  %q = gep %tab, %off\n"
                           "  store %tnew, %q, 8\n"
                           "  br latch\n"
                           "latch:\n"
                           "  %inext = add %i, 1\n"
                           "  br loop\n"
                           "exit:\n"
                           "  ret\n"
                           "}\n"
                           "define i64 @main() {\n"
                           "entry:\n"
                           "  %a = malloc 8\n"
                           "  store 7, %a, 8\n"
                           "  store %a, @accp, 8\n"
                           "  %t = malloc 128\n"
                           "  store %t, @tabp, 8\n"
                           "  call @kernel(40000)\n"
                           "  %r = load i64, %a, 8\n"
                           "  %t9 = gep %t, 72\n"
                           "  %x = load i64, %t9, 8\n"
                           "  print \"acc %d tab9 %d\\n\", %r, %x\n"
                           "  ret %r\n"
                           "}\n";
  std::string Expected = sequentialReference(Text);
  ASSERT_EQ(Expected.rfind("acc 18460007 ", 0), 0u) << Expected;
  for (unsigned Workers : {1u, 2u}) {
    InvocationStats S;
    EXPECT_EQ(runPrivatized(Text, Workers, &S), Expected)
        << Workers << " workers";
    EXPECT_EQ(S.Misspecs, 0u) << S.FirstMisspecReason;
    EXPECT_GT(S.ComRecordsCommitted, 0u) << "the copies must combine";
  }
}

/// The accumulator kernel of the two tests below: @main runs \p Setup,
/// then @kernel runs \p Body (which sees %i) \p N times, then @main runs
/// \p Print.
std::string accumulatorKernel(const std::string &Globals,
                              const std::string &Setup,
                              const std::string &Body, uint64_t N,
                              const std::string &Print) {
  return Globals +
         "define void @kernel(i64 %n) {\n"
         "entry:\n  br loop\n"
         "loop:\n  %i = phi [entry: 0], [latch: %inext]\n"
         "  %c = icmp lt, %i, %n\n  condbr %c, body, exit\n"
         "body:\n" +
         Body +
         "  br latch\n"
         "latch:\n  %inext = add %i, 1\n  br loop\n"
         "exit:\n  ret\n}\n"
         "define i64 @main() {\nentry:\n" +
         Setup + "  call @kernel(" + std::to_string(N) + ")\n" + Print +
         "  ret 0\n}\n";
}

/// \p Text must compute \p Expected sequentially, must not register
/// @acc as a reduction, and if the pipeline parallelizes anything, two
/// workers must print \p Expected too.
void expectAccumulatorStaysExact(const std::string &Text,
                                 const std::string &Expected) {
  ASSERT_EQ(sequentialReference(Text), Expected);
  auto M = parseOrDie(Text);
  analysis::FunctionAnalyses FA(*M);
  PipelineOptions Opt;
  PipelineResult R = runPipeline(*M, FA, Opt);
  EXPECT_TRUE(R.Assignment.ReduxOps.empty())
      << "@acc is not a pure fold: a worker's copy would lose updates";
  if (!R.Transformed)
    return; // Left sequential: nothing can reorder.
  std::FILE *Out = std::tmpfile();
  ParallelOptions Par;
  Par.NumWorkers = 2;
  executePrivatized(*M, FA, R.Assignment, Opt, Par, RuntimeConfig(), Out);
  EXPECT_EQ(readAll(Out), Expected);
  std::fclose(Out);
}

TEST(Commutative, EscapingLoadIsNotAReduction) {
  // The old value of @acc is logged as well as incremented: it escapes
  // the update, so each iteration must see every earlier increment.  A
  // worker's identity-initialized copy would log its own partial count.
  expectAccumulatorStaysExact(
      accumulatorKernel("global @acc 8\nglobal @log 80000\n", "",
                        "  %old = load i64, @acc, 8\n"
                        "  %new = add %old, 1\n"
                        "  store %new, @acc, 8\n"
                        "  %off = mul %i, 8\n"
                        "  %p = gep @log, %off\n"
                        "  store %old, %p, 8\n",
                        10000,
                        "  br sum\n"
                        "sum:\n"
                        "  %j = phi [entry: 0], [sum: %jnext]\n"
                        "  %s = phi [entry: 0], [sum: %snext]\n"
                        "  %joff = mul %j, 8\n"
                        "  %q = gep @log, %joff\n"
                        "  %x = load i64, %q, 8\n"
                        "  %snext = add %s, %x\n"
                        "  %jnext = add %j, 1\n"
                        "  %more = icmp lt, %jnext, 10000\n"
                        "  condbr %more, sum, done\n"
                        "done:\n"
                        "  print \"sum %d\\n\", %snext\n"),
      "sum 49995000\n");
}

TEST(Commutative, MixedOperatorsOnOneAccumulatorStaySequential) {
  // acc = (acc + 3) * 5 through two updates: add and mul do not commute
  // with each other, so no one operator combines the workers' copies.
  expectAccumulatorStaysExact(
      accumulatorKernel("global @acc 8\n", "  store 1, @acc, 8\n",
                        "  %a = load i64, @acc, 8\n"
                        "  %b = add %a, 3\n"
                        "  store %b, @acc, 8\n"
                        "  %x = load i64, @acc, 8\n"
                        "  %y = mul %x, 5\n"
                        "  store %y, @acc, 8\n",
                        1000,
                        "  %r = load i64, @acc, 8\n"
                        "  print \"acc %d\\n\", %r\n"),
      "acc 6558522681250756169\n");
}

TEST(Commutative, SubWordMinMaxMatchesSequential) {
  // A 1-byte min cell: min(sext(cell), v) truncated back depends on the
  // order once v leaves the byte's range (-300 wraps to -44), so the cell
  // must not become a reduction object, and parallel output must equal
  // the sequential -100 on every run.
  const std::string Text = "global @cell 1\n"
                           "define void @kernel(i64 %n) {\n"
                           "entry:\n"
                           "  br loop\n"
                           "loop:\n"
                           "  %i = phi [entry: 0], [latch: %inext]\n"
                           "  %c = icmp lt, %i, %n\n"
                           "  condbr %c, body, exit\n"
                           "body:\n"
                           "  %odd = and %i, 1\n"
                           "  %up = mul %odd, 200\n"
                           "  %v = sub %up, 300\n"
                           "  %old = load i64, @cell, 1\n"
                           "  %cc = icmp lt, %old, %v\n"
                           "  %new = select %cc, %old, %v\n"
                           "  store %new, @cell, 1\n"
                           "  br latch\n"
                           "latch:\n"
                           "  %inext = add %i, 1\n"
                           "  br loop\n"
                           "exit:\n"
                           "  ret\n"
                           "}\n"
                           "define i64 @main() {\n"
                           "entry:\n"
                           "  store 5, @cell, 1\n"
                           "  call @kernel(4000)\n"
                           "  %r = load i64, @cell, 1\n"
                           "  print \"cell %d\\n\", %r\n"
                           "  ret %r\n"
                           "}\n";
  std::string Expected = sequentialReference(Text);
  ASSERT_EQ(Expected, "cell -100\n");

  auto M = parseOrDie(Text);
  analysis::FunctionAnalyses FA(*M);
  PipelineResult R = runPipeline(*M, FA, PipelineOptions());
  EXPECT_TRUE(R.Assignment.ReduxOps.empty());
  if (!R.Transformed)
    return; // Left sequential: nothing can reorder.
  EXPECT_NE(heapOfGlobal(*M, "cell"), HeapKind::Redux);
  for (int Run = 0; Run < 4; ++Run)
    for (unsigned Workers : {2u, 4u})
      EXPECT_EQ(runPrivatized(Text, Workers), Expected)
          << Workers << " workers, run " << Run;
}

} // namespace
