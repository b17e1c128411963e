//===- tests/DoacrossTest.cpp - Speculative DOACROSS scheduling -----------===//
//
// End-to-end tests of the DOACROSS pre-pass: dependence-distance planning
// (analysis/DepDistance.h), the token-forwarding rewrite
// (transform/Doacross.h), and parallel execution over shared-memory token
// rings, checked for exact equivalence against sequential interpretation
// of the original program.
//
//===----------------------------------------------------------------------===//

#include "analysis/DepDistance.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "transform/Pipeline.h"
#include "workloads/IrPrograms.h"

#include "support/Timing.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include <unistd.h>

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

/// Sequential interpretation of the original program: the oracle.
std::string sequentialOutput(const std::string &IrText, int64_t *Ret) {
  auto M = parseOrDie(IrText);
  std::FILE *Out = std::tmpfile();
  PipelineOptions Opt;
  interp::Cell R = executeSequential(*M, Opt, Out);
  if (Ret)
    *Ret = R.asInt();
  std::string Text = readAll(Out);
  std::fclose(Out);
  return Text;
}

/// Runs the full pipeline with \p Strat over the caller's analyses (the
/// returned assignment's loop pointer lives in \p FA).
PipelineResult runPipeline(Module &M, analysis::FunctionAnalyses &FA,
                           Strategy Strat,
                           ExecEngine Engine = ExecEngine::Bytecode) {
  PipelineOptions Opt;
  Opt.Strat = Strat;
  Opt.Engine = Engine;
  std::FILE *Sink = std::tmpfile();
  Runtime::get().setSequentialOutput(Sink);
  PipelineResult R = runPrivateerPipeline(M, FA, Opt);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(Sink);
  return R;
}

TEST(Doacross, PlannerProvesFixedDistances) {
  for (uint64_t Dist : {1ull, 3ull}) {
    auto M = parseOrDie(arrayRecurrenceIrText(120, Dist));
    analysis::FunctionAnalyses FA(*M);
    PipelineOptions Opt;
    std::FILE *Sink = std::tmpfile();
    Runtime::get().setSequentialOutput(Sink);
    PipelineResult R = runPrivateerPipeline(*M, FA, Opt); // Profile only.
    Runtime::get().setSequentialOutput(nullptr);
    std::fclose(Sink);
    EXPECT_FALSE(R.Transformed) << "DOALL must reject the recurrence";

    // The hottest profiled loop is the kernel loop; plan it directly.
    const analysis::Loop *Kernel = nullptr;
    for (analysis::Loop *L : FA.allLoops())
      if (L->header()->parent()->name() == "kernel")
        Kernel = L;
    ASSERT_NE(Kernel, nullptr);
    analysis::DoacrossPlan DP =
        analysis::planDoacross(*Kernel, FA, R.TrainingProfile);
    ASSERT_TRUE(DP.viable())
        << (DP.WhyNot.empty() ? "?" : DP.WhyNot.front());
    EXPECT_EQ(DP.Arrays.size(), 1u);
    EXPECT_EQ(DP.NumChannels, 1u);
    EXPECT_EQ(DP.MinDistance, Dist);
    EXPECT_EQ(DP.Covered.size(), 1u);
  }
}

TEST(Doacross, PlannerRejectsUnprovableDistance) {
  // The @cell recurrence reads and writes one scalar address: no gep
  // indexed by the IV, so no distance proof.
  auto M = parseOrDie(recurrenceIrText(200));
  analysis::FunctionAnalyses FA(*M);
  PipelineOptions Opt;
  Opt.Strat = Strategy::Doacross;
  std::FILE *Sink = std::tmpfile();
  Runtime::get().setSequentialOutput(Sink);
  PipelineResult R = runPrivateerPipeline(*M, FA, Opt);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(Sink);
  EXPECT_FALSE(R.Transformed);
  // The loop must be left untouched: no postdep/waitdep anywhere.
  for (const auto &F : M->functions())
    for (const auto &B : F->blocks())
      for (const auto &I : B->instructions())
        EXPECT_TRUE(I->opcode() != Opcode::PostDep &&
                    I->opcode() != Opcode::WaitDep);
}

TEST(Doacross, StrategyKnobGatesTheRewrite) {
  // Same program, Strategy::Doall: stays untransformed.
  auto M = parseOrDie(arrayRecurrenceIrText(200, 1));
  analysis::FunctionAnalyses FA(*M);
  PipelineResult R = runPipeline(*M, FA, Strategy::Doall);
  EXPECT_FALSE(R.Transformed);

  // Strategy::Doacross: rewritten, classified, transformed.
  auto M2 = parseOrDie(arrayRecurrenceIrText(200, 1));
  analysis::FunctionAnalyses FA2(*M2);
  PipelineResult R2 = runPipeline(*M2, FA2, Strategy::Doacross);
  ASSERT_TRUE(R2.Transformed) << (R2.Log.empty() ? "" : R2.Log.back());
  EXPECT_EQ(R2.Assignment.DoacrossChannels, 1u);
  bool LoggedDistance = false;
  for (const std::string &Line : R2.Log)
    LoggedDistance |= Line.find("min distance 1") != std::string::npos;
  EXPECT_TRUE(LoggedDistance);
  EXPECT_EQ(R2.Assignment.PrivacyElides.size(), 1u);

  // The rewritten module still verifies and round-trips through text.
  auto Diags = verifyModule(*M2);
  EXPECT_TRUE(Diags.empty()) << Diags.front();
  std::string Text = printModule(*M2);
  ASSERT_NE(Text.find("postdep"), std::string::npos);
  ASSERT_NE(Text.find("waitdep"), std::string::npos);
  std::string Err;
  auto Reparsed = parseModule(Text, Err);
  EXPECT_NE(Reparsed, nullptr) << Err;
}

TEST(Doacross, ArrayRecurrenceParallelOutputIsExact) {
  constexpr uint64_t N = 400;
  for (uint64_t Dist : {1ull, 3ull}) {
    int64_t ExpectedRet = 0;
    std::string Expected =
        sequentialOutput(arrayRecurrenceIrText(N, Dist), &ExpectedRet);
    ASSERT_NE(Expected.find("last "), std::string::npos);

    // Both training engines; the privatized module always runs on the VM.
    for (ExecEngine Engine : {ExecEngine::Bytecode, ExecEngine::Interp}) {
      auto M = parseOrDie(arrayRecurrenceIrText(N, Dist));
      analysis::FunctionAnalyses FA(*M);
      PipelineResult R = runPipeline(*M, FA, Strategy::Doacross, Engine);
      ASSERT_TRUE(R.Transformed) << (R.Log.empty() ? "" : R.Log.back());

      for (unsigned Workers : {2u, 4u}) {
        std::FILE *Out = std::tmpfile();
        ParallelOptions Par;
        Par.NumWorkers = Workers;
        Par.CheckpointPeriod = 8;
        PipelineOptions Opt;
        ExecutionResult E = executePrivatized(*M, FA, R.Assignment, Opt,
                                              Par, RuntimeConfig(), Out);
        std::string Got = readAll(Out);
        std::fclose(Out);
        EXPECT_EQ(Got, Expected)
            << "trained on " << execEngineName(Engine) << ", " << Workers
            << " workers, dist " << Dist;
        EXPECT_EQ(E.ReturnValue.asInt(), ExpectedRet);
        EXPECT_EQ(E.Stats.Misspecs, 0u) << E.Stats.FirstMisspecReason;
        EXPECT_GT(E.Stats.DepPosts, 0u);
        EXPECT_GT(E.Stats.DepWaits, 0u);
      }
    }
  }
}

TEST(Doacross, ScalarCarryParallelOutputIsExact) {
  constexpr uint64_t N = 400;
  int64_t ExpectedRet = 0;
  std::string Expected = sequentialOutput(scalarCarryIrText(N), &ExpectedRet);

  // Both training engines; the privatized module always runs on the VM.
  for (ExecEngine Engine : {ExecEngine::Bytecode, ExecEngine::Interp}) {
    auto M = parseOrDie(scalarCarryIrText(N));
    analysis::FunctionAnalyses FA(*M);
    PipelineResult R = runPipeline(*M, FA, Strategy::Doacross, Engine);
    ASSERT_TRUE(R.Transformed) << (R.Log.empty() ? "" : R.Log.back());
    EXPECT_EQ(R.Assignment.DoacrossChannels, 1u);

    std::FILE *Out = std::tmpfile();
    ParallelOptions Par;
    Par.NumWorkers = 4;
    Par.CheckpointPeriod = 8;
    PipelineOptions Opt;
    ExecutionResult E = executePrivatized(*M, FA, R.Assignment, Opt, Par,
                                          RuntimeConfig(), Out);
    std::string Got = readAll(Out);
    std::fclose(Out);
    EXPECT_EQ(Got, Expected) << "trained on " << execEngineName(Engine);
    EXPECT_EQ(E.ReturnValue.asInt(), ExpectedRet);
    EXPECT_EQ(E.Stats.Misspecs, 0u) << E.Stats.FirstMisspecReason;
    EXPECT_GT(E.Stats.DepPosts, 0u);
  }
}

TEST(Doacross, RecoversFromInjectedMisspeculation) {
  constexpr uint64_t N = 300;
  int64_t ExpectedRet = 0;
  std::string Expected =
      sequentialOutput(arrayRecurrenceIrText(N, 1), &ExpectedRet);

  auto M = parseOrDie(arrayRecurrenceIrText(N, 1));
  analysis::FunctionAnalyses FA(*M);
  PipelineResult R = runPipeline(*M, FA, Strategy::Doacross);
  ASSERT_TRUE(R.Transformed) << (R.Log.empty() ? "" : R.Log.back());

  std::FILE *Out = std::tmpfile();
  ParallelOptions Par;
  Par.NumWorkers = 4;
  Par.CheckpointPeriod = 8;
  Par.InjectMisspecRate = 0.05;
  PipelineOptions Opt;
  ExecutionResult E = executePrivatized(*M, FA, R.Assignment, Opt, Par,
                                        RuntimeConfig(), Out);
  std::string Got = readAll(Out);
  std::fclose(Out);
  EXPECT_EQ(Got, Expected);
  EXPECT_EQ(E.ReturnValue.asInt(), ExpectedRet);
  EXPECT_GE(E.Stats.Misspecs, 1u);
}

TEST(Doacross, LargeEpochsNeverRecycleALiveToken) {
  // At W=3 and a distance that is a multiple of 3, every worker forwards
  // only to itself, so nothing but the epoch bounds how far one worker
  // runs ahead of another.  Worker 2 naps mid-loop with its early tokens
  // posted but not yet consumed.  An epoch longer than the ring minus
  // the distance would let workers 0 and 1 lap the ring and recycle those
  // slots, and worker 2 would wait for them until the dep-wait timeout.
  constexpr unsigned W = 3;
  constexpr uint64_t Dist = 4095;
  static_assert(Dist % W == 0 && Dist < depchan::kMaxDistance, "");
  constexpr uint64_t N = 24576;
  Runtime &Rt = Runtime::get();
  Rt.initialize();
  auto *A = static_cast<uint64_t *>(Rt.heapAlloc(N * 8, HeapKind::Private));
  auto Body = [&Rt, A](uint64_t I) {
    if (I == 3002 && Rt.mode() == ExecMode::SpeculativeWorker)
      usleep(300000);
    uint64_t Prev = I >= Dist ? Rt.waitDep(I - Dist, 0) : 10 + I;
    uint64_t V = (33 * Prev + I) % 1000003;
    Rt.privateWrite(&A[I], 8);
    A[I] = V;
    Rt.postDep(I, 0, V);
  };
  Rt.runSequential(0, N, Body);
  std::vector<uint64_t> Expected(A, A + N);
  std::memset(A, 0, N * 8);

  ParallelOptions Par;
  Par.NumWorkers = W;
  Par.CheckpointPeriod = 64;
  Par.MaxSlotsPerEpoch = 1024; // 65,536 iterations, four rings' worth.
  Par.NumDepChannels = 1;
  Par.StallTimeoutSec = 5 * timeoutScale();
  InvocationStats S = Rt.runParallel(N, Par, Body);
  EXPECT_EQ(S.DepWaitTimeouts, 0u);
  EXPECT_EQ(S.Misspecs, 0u) << S.FirstMisspecReason;
  EXPECT_GE(S.Epochs, 2u);
  EXPECT_EQ(std::memcmp(A, Expected.data(), N * 8), 0);
  Rt.shutdown();
}

} // namespace
