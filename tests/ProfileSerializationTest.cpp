//===- tests/ProfileSerializationTest.cpp ---------------------------------===//
//
// A profile saved to text and re-attached to a freshly parsed copy of the
// module must drive classification to the identical heap assignment —
// the paper's train-once, compile-later workflow.
//
//===----------------------------------------------------------------------===//

#include "TrainingProfile.h"
#include "classify/Classification.h"
#include "ir/IRParser.h"
#include "profiling/ProfileCollector.h"
#include "profiling/ProfileSerialization.h"
#include "transform/Pipeline.h"
#include "workloads/IrPrograms.h"

#include <gtest/gtest.h>

using namespace privateer;
using namespace privateer::analysis;
using namespace privateer::classify;
using namespace privateer::ir;
using namespace privateer::profiling;

namespace {

Profile profileModule(Module &M, const FunctionAnalyses &FA) {
  return trainingProfile(M, FA);
}

const Loop *outerLoop(const Module &M, const FunctionAnalyses &FA) {
  for (const auto &L : FA.loops(M.functionByName("hot_loop")).loops())
    if (L->header()->name() == "loop")
      return L.get();
  return nullptr;
}

TEST(ProfileSerialization, RoundTripDrivesIdenticalClassification) {
  std::string Err;
  auto M1 = parseModule(dijkstraIrText(10), Err);
  ASSERT_NE(M1, nullptr) << Err;
  FunctionAnalyses FA1(*M1);
  Profile P1 = profileModule(*M1, FA1);
  std::string Text = serializeProfile(P1, *M1);
  EXPECT_NE(Text.find("privateer-profile"), std::string::npos);
  EXPECT_NE(Text.find("flowdep"), std::string::npos);
  EXPECT_NE(Text.find("pred"), std::string::npos);

  // Attach to a *fresh* parse of the same program text.
  auto M2 = parseModule(dijkstraIrText(10), Err);
  ASSERT_NE(M2, nullptr) << Err;
  FunctionAnalyses FA2(*M2);
  auto P2 = deserializeProfile(Text, *M2, FA2, Err);
  ASSERT_TRUE(P2.has_value()) << Err;

  const Loop *L1 = outerLoop(*M1, FA1);
  const Loop *L2 = outerLoop(*M2, FA2);
  HeapAssignment H1 = classifyLoop(*L1, FA1, P1);
  HeapAssignment H2 = classifyLoop(*L2, FA2, *P2);

  ASSERT_EQ(H1.Parallelizable, H2.Parallelizable);
  ASSERT_EQ(H1.ObjectHeaps.size(), H2.ObjectHeaps.size());
  // Compare by stable object names.
  std::map<std::string, HeapKind> N1, N2;
  for (const auto &[O, K] : H1.ObjectHeaps)
    N1[O.str()] = K;
  for (const auto &[O, K] : H2.ObjectHeaps)
    N2[O.str()] = K;
  EXPECT_EQ(N1, N2);
  ASSERT_EQ(H1.Predictions.size(), H2.Predictions.size());
  for (size_t I = 0; I < H1.Predictions.size(); ++I) {
    EXPECT_EQ(H1.Predictions[I].Offset, H2.Predictions[I].Offset);
    EXPECT_EQ(H1.Predictions[I].Value, H2.Predictions[I].Value);
    EXPECT_EQ(H1.Predictions[I].Global->name(),
              H2.Predictions[I].Global->name());
  }

  // Serialized form of the re-attached profile is identical text.
  EXPECT_EQ(serializeProfile(*P2, *M2), Text);
}

TEST(ProfileSerialization, RejectsProfilesForADifferentModule) {
  std::string Err;
  auto M1 = parseModule(dijkstraIrText(10), Err);
  FunctionAnalyses FA1(*M1);
  Profile P1 = profileModule(*M1, FA1);
  std::string Text = serializeProfile(P1, *M1);

  // A structurally different program cannot resolve the references.
  auto M2 = parseModule(reductionSumIrText(10), Err);
  FunctionAnalyses FA2(*M2);
  auto P2 = deserializeProfile(Text, *M2, FA2, Err);
  EXPECT_FALSE(P2.has_value());
  EXPECT_FALSE(Err.empty());
}

TEST(ProfileSerialization, RejectsGarbage) {
  std::string Err;
  auto M = parseModule(reductionSumIrText(10), Err);
  FunctionAnalyses FA(*M);
  EXPECT_FALSE(deserializeProfile("not a profile", *M, FA, Err));
  EXPECT_FALSE(
      deserializeProfile("privateer-profile v1\nbogus record\n", *M, FA,
                         Err));
}

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
