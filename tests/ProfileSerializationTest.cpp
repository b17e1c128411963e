//===- tests/ProfileSerializationTest.cpp ---------------------------------===//
//
// The paper's train-once, compile-later workflow: a profile taken on the
// training input drives a transformation that stays exact on the
// reference input.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "transform/Pipeline.h"
#include "workloads/IrPrograms.h"

#include <gtest/gtest.h>

using namespace privateer;
using namespace privateer::analysis;
using namespace privateer::ir;

namespace {

TEST(PipelineStability, TrainInputGeneralizesToRefInput) {
  // Paper §6: "Each benchmark is profiled with a training input (train).
  // Performance evaluations are measured with a different testing input
  // (ref)... the compiler generates identical code".  Here: profile on
  // the small training entry (@main_train covers half the sources),
  // transform, then execute the full @main — output must be exact.
  constexpr unsigned N = 16;
  std::string Err;

  std::string Expected;
  {
    auto M = parseModule(dijkstraIrText(N), Err);
    ASSERT_NE(M, nullptr) << Err;
    std::FILE *Out = std::tmpfile();
    transform::executeSequential(*M, transform::PipelineOptions(), Out);
    std::rewind(Out);
    char Buf[4096];
    size_t R;
    while ((R = std::fread(Buf, 1, sizeof(Buf), Out)) > 0)
      Expected.append(Buf, R);
    std::fclose(Out);
  }

  auto M = parseModule(dijkstraIrText(N), Err);
  ASSERT_NE(M, nullptr) << Err;
  FunctionAnalyses FA(*M);
  transform::PipelineOptions Opt;
  Opt.EntryFunction = "main_train"; // Profile the training run only.
  std::FILE *Sink = std::tmpfile();
  Runtime::get().setSequentialOutput(Sink);
  transform::PipelineResult R = runPrivateerPipeline(*M, FA, Opt);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(Sink);
  ASSERT_TRUE(R.Transformed) << (R.Log.empty() ? "" : R.Log.back());

  transform::PipelineOptions ExecOpt; // Ref input: the full @main.
  std::FILE *Out = std::tmpfile();
  ParallelOptions Par;
  Par.NumWorkers = 4;
  Par.CheckpointPeriod = 4;
  transform::ExecutionResult E = transform::executePrivatized(
      *M, FA, R.Assignment, ExecOpt, Par, RuntimeConfig(), Out);
  std::string Got;
  std::rewind(Out);
  char Buf[4096];
  size_t Rd;
  while ((Rd = std::fread(Buf, 1, sizeof(Buf), Out)) > 0)
    Got.append(Buf, Rd);
  std::fclose(Out);
  EXPECT_EQ(Got, Expected);
  EXPECT_EQ(E.Stats.Misspecs, 0u) << E.Stats.FirstMisspecReason;
}

} // namespace
