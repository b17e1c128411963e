//===- tests/BytecodeTest.cpp - Bytecode engine vs. interpreter -----------===//
//
// The direct-threaded bytecode VM must be observationally identical to
// the tree-walking interpreter — same output bytes, same return values,
// same runtime check counters, same fatal-error messages — because the
// interpreter is its differential oracle.  These tests pin that contract
// on the defined-semantics edge cases (INT64_MIN division, fptosi
// saturation, malformed print formats) and on the Figure 6 kernels
// through the full privatization pipeline.  Lowering is total: every
// verified module lowers plain, for profiling and privatized.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"
#include "bytecode/Image.h"
#include "bytecode/Lower.h"
#include "bytecode/VM.h"
#include "GoldenProfile.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "transform/Pipeline.h"
#include "workloads/IrPrograms.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace privateer;
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

std::unique_ptr<ir::Module> parseOrDie(const std::string &Text) {
  std::string Err;
  auto M = ir::parseModule(Text, Err);
  EXPECT_NE(M, nullptr) << Err << "\n" << Text;
  if (M) {
    auto Diags = ir::verifyModule(*M);
    EXPECT_TRUE(Diags.empty()) << Diags.front() << "\n" << Text;
  }
  return M;
}

/// Runs @main sequentially on the requested engine; returns the exit
/// value and captures printed bytes.
int64_t runSeq(const std::string &Text, ExecEngine Engine,
               std::string *OutText = nullptr) {
  auto M = parseOrDie(Text);
  PipelineOptions Opt;
  Opt.Engine = Engine;
  std::FILE *Out = std::tmpfile();
  interp::Cell R = executeSequential(*M, Opt, Out);
  if (OutText)
    *OutText = readAll(Out);
  std::fclose(Out);
  return R.asInt();
}

/// Byte-compares both engines on @main and returns the (shared) result.
int64_t runBothEngines(const std::string &Text) {
  std::string InterpOut, BcOut;
  int64_t InterpRet = runSeq(Text, ExecEngine::Interp, &InterpOut);
  int64_t BcRet = runSeq(Text, ExecEngine::Bytecode, &BcOut);
  EXPECT_EQ(BcRet, InterpRet) << Text;
  EXPECT_EQ(BcOut, InterpOut) << Text;
  return InterpRet;
}

// --- Defined arithmetic semantics (both engines, exact values) ----------

TEST(BytecodeSemantics, SdivIntMinByMinusOneWraps) {
  // INT64_MIN / -1 is the one's-complement wraparound case that traps
  // (SIGFPE) in native x86 idiv; both engines must instead wrap to
  // INT64_MIN, and INT64_MIN % -1 must be 0.
  const std::string Text =
      "define i64 @main() {\n"
      "entry:\n"
      "  %min = add 0, -9223372036854775808\n"
      "  %neg = add 0, -1\n"
      "  %q = sdiv %min, %neg\n"
      "  %r = srem %min, %neg\n"
      "  %q2 = sdiv %min, %min\n"
      "  %r2 = srem 7, %min\n"
      "  print \"q %d r %d q2 %d r2 %d\\n\", %q, %r, %q2, %r2\n"
      "  %s = add %q, %r\n"
      "  ret %s\n}\n";
  std::string Out;
  int64_t Ret = runSeq(Text, ExecEngine::Bytecode, &Out);
  EXPECT_EQ(Ret, INT64_MIN);
  EXPECT_EQ(Out, "q -9223372036854775808 r 0 q2 1 r2 7\n");
  EXPECT_EQ(runBothEngines(Text), INT64_MIN);
}

TEST(BytecodeSemantics, SdivByZeroStillFatalOnBothEngines) {
  const std::string Text = "define i64 @main() {\n"
                           "entry:\n"
                           "  %z = add 0, 0\n"
                           "  %q = sdiv 1, %z\n"
                           "  ret %q\n}\n";
  EXPECT_DEATH(runSeq(Text, ExecEngine::Interp), "division by zero");
  EXPECT_DEATH(runSeq(Text, ExecEngine::Bytecode), "division by zero");
}

TEST(BytecodeSemantics, FpToSiSaturatesAndNanIsZero) {
  const std::string Text =
      "define i64 @main() {\n"
      "entry:\n"
      "  %inf = fdiv 1.0, 0.0\n"
      "  %ninf = fdiv -1.0, 0.0\n"
      "  %nan = fsub %inf, %inf\n"
      "  %a = fptosi %inf\n"
      "  %b = fptosi %ninf\n"
      "  %c = fptosi %nan\n"
      "  %d = fptosi 1e300\n"
      "  %e = fptosi -1e300\n"
      "  %f = fptosi 41.9\n"
      "  print \"a %d b %d c %d d %d e %d f %d\\n\", %a, %b, %c, %d, %e, %f\n"
      "  ret %c\n}\n";
  std::string Out;
  int64_t Ret = runSeq(Text, ExecEngine::Bytecode, &Out);
  EXPECT_EQ(Ret, 0) << "NaN must convert to 0";
  EXPECT_EQ(Out, "a 9223372036854775807 b -9223372036854775808 c 0 "
                 "d 9223372036854775807 e -9223372036854775808 f 41\n");
  EXPECT_EQ(runBothEngines(Text), 0);
}

TEST(BytecodeSemantics, SignedOverflowWrapsIdentically) {
  const std::string Text =
      "define i64 @main() {\n"
      "entry:\n"
      "  %max = add 0, 9223372036854775807\n"
      "  %a = add %max, 1\n"
      "  %min = add 0, -9223372036854775808\n"
      "  %b = sub %min, 1\n"
      "  %c = mul %max, %max\n"
      "  %d = shl 1, 63\n"
      "  %e = shl 1, 64\n"
      "  %f = shr %min, 1\n"
      "  print \"%d %d %d %d %d %d\\n\", %a, %b, %c, %d, %e, %f\n"
      "  ret %a\n}\n";
  std::string Out;
  int64_t Ret = runSeq(Text, ExecEngine::Bytecode, &Out);
  EXPECT_EQ(Ret, INT64_MIN);
  // shl masks the shift amount (&63), shr is logical.
  EXPECT_EQ(Out, "-9223372036854775808 9223372036854775807 1 "
                 "-9223372036854775808 1 4611686018427387904\n");
  EXPECT_EQ(runBothEngines(Text), INT64_MIN);
}

TEST(BytecodeSemantics, UnterminatedPrintSpecIsFatalNotTruncated) {
  // A format string ending inside a conversion spec used to be silently
  // truncated; it is now a fatal error on both engines.
  const std::string Bare = "define i64 @main() {\n"
                           "entry:\n"
                           "  print \"value: %\"\n"
                           "  ret 0\n}\n";
  EXPECT_DEATH(runSeq(Bare, ExecEngine::Interp),
               "ends inside a conversion spec");
  EXPECT_DEATH(runSeq(Bare, ExecEngine::Bytecode),
               "ends inside a conversion spec");
  const std::string Modifier = "define i64 @main() {\n"
                               "entry:\n"
                               "  print \"count: %ll\", 7\n"
                               "  ret 0\n}\n";
  EXPECT_DEATH(runSeq(Modifier, ExecEngine::Interp),
               "ends inside a conversion spec");
  EXPECT_DEATH(runSeq(Modifier, ExecEngine::Bytecode),
               "ends inside a conversion spec");
}

TEST(BytecodeSemantics, InstructionBudgetPinsRunawayLoops) {
  const std::string Text = "define i64 @main() {\n"
                           "entry:\n  br loop\n"
                           "loop:\n  br loop\n}\n";
  auto M = parseOrDie(Text);
  auto BP = bytecode::lowerModule(*M, bytecode::LowerOptions());
  interp::PlainMemoryManager MM;
  bytecode::VM Vm(*BP, MM);
  Vm.setInstructionBudget(10'000);
  Vm.initializeGlobals();
  EXPECT_DEATH(Vm.run("main", {}), "instruction budget exceeded");
}

// --- Figure 6 kernels: privatized VM runs vs. the interpreter's ---------
// --- sequential run --------------------------------------------------

class BytecodePipeline : public ::testing::TestWithParam<const char *> {};

TEST_P(BytecodePipeline, PrivatizedBytecodeByteMatchesInterp) {
  const std::string Name = GetParam();
  std::string Text;
  if (Name == "dijkstra")
    Text = dijkstraIrText(16);
  else if (Name == "redsum")
    Text = reductionSumIrText(400);
  else if (Name == "fppricing")
    Text = fpPricingIrText(96);
  else
    FAIL() << "unknown kernel " << Name;

  // Reference: interpreter, sequential, pristine module.
  std::string Expected;
  int64_t ExpectedRet = runSeq(Text, ExecEngine::Interp, &Expected);

  // Pipeline once; then run the privatized module on the VM.
  auto M = parseOrDie(Text);
  analysis::FunctionAnalyses FA(*M);
  PipelineOptions Opt;
  std::FILE *Sink = std::tmpfile();
  Runtime::get().setSequentialOutput(Sink);
  PipelineResult R = runPrivateerPipeline(*M, FA, Opt);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(Sink);
  ASSERT_TRUE(R.Transformed) << (R.Log.empty() ? "" : R.Log.back());

  ParallelOptions Par;
  Par.NumWorkers = 2;
  Par.CheckpointPeriod = 16;
  std::FILE *Out = std::tmpfile();
  ExecutionResult E = executePrivatized(*M, FA, R.Assignment, Opt, Par,
                                        RuntimeConfig(), Out);
  std::string Got = readAll(Out);
  std::fclose(Out);
  EXPECT_EQ(Got, Expected) << Name;
  EXPECT_EQ(E.ReturnValue.asInt(), ExpectedRet) << Name;
  EXPECT_EQ(E.Stats.Misspecs, 0u) << E.Stats.FirstMisspecReason;
  EXPECT_GT(E.Stats.Iterations, 0u) << Name;
}

INSTANTIATE_TEST_SUITE_P(Fig6, BytecodePipeline,
                         ::testing::Values("dijkstra", "redsum", "fppricing"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

// --- Lowered programs ----------------------------------------------------

TEST(BytecodeFallback, LoweredProgramsAreReusable) {
  // The service caches one lowered program per module and reuses it for
  // every subsequent job (across fork, in the daemon): two back-to-back
  // runs over one BytecodeProgram must be independent and identical.
  const std::string Text = "global @counter 8\n"
                           "define i64 @main() {\n"
                           "entry:\n"
                           "  %old = load i64, @counter, 8\n"
                           "  %new = add %old, 7\n"
                           "  store %new, @counter, 8\n"
                           "  print \"counter %d\\n\", %new\n"
                           "  ret %new\n}\n";
  auto M = parseOrDie(Text);
  auto BP = bytecode::lowerModule(*M, {});
  for (int Run = 0; Run < 2; ++Run) {
    std::FILE *Out = std::tmpfile();
    interp::Cell R =
        transform::executeLoadedSequential(*BP, PipelineOptions(), Out);
    std::string Got = readAll(Out);
    std::fclose(Out);
    EXPECT_EQ(R.asInt(), 7) << "run " << Run;
    EXPECT_EQ(Got, "counter 7\n") << "run " << Run;
  }
}

// --- Position-independent images (bytecode/Image.h) ----------------------
//
// The executive pool ships lowered programs between processes as flat
// byte images; the round trip must be lossless and deserialization must
// survive arbitrary truncation (the bytes cross a trust boundary).

TEST(BytecodeImage, RoundTripIsLossless) {
  for (const std::string &Text :
       {reductionSumIrText(700), dijkstraIrText(12)}) {
    auto M = parseOrDie(Text);
    auto BP = bytecode::lowerModule(*M, {});

    std::string Image = bytecode::serializeProgram(*BP);
    ASSERT_FALSE(Image.empty());
    std::string Err;
    auto Loaded =
        bytecode::deserializeProgram(Image.data(), Image.size(), Err);
    ASSERT_NE(Loaded, nullptr) << Err;

    // Lossless: the rebuilt program re-serializes to identical bytes...
    EXPECT_EQ(bytecode::serializeProgram(*Loaded), Image);

    // ...and executes identically to the original.
    std::FILE *OutA = std::tmpfile(), *OutB = std::tmpfile();
    interp::Cell A =
        transform::executeLoadedSequential(*BP, PipelineOptions(), OutA);
    interp::Cell B =
        transform::executeLoadedSequential(*Loaded, PipelineOptions(), OutB);
    EXPECT_EQ(A.asInt(), B.asInt());
    EXPECT_EQ(readAll(OutA), readAll(OutB));
    std::fclose(OutA);
    std::fclose(OutB);
  }
}

TEST(BytecodeImage, EveryTruncationFailsCleanly) {
  auto M = parseOrDie(reductionSumIrText(701));
  auto BP = bytecode::lowerModule(*M, {});
  std::string Image = bytecode::serializeProgram(*BP);
  ASSERT_GT(Image.size(), 64u);

  // Every strict prefix must fail with an error, never crash or succeed
  // (an image is length-delimited; a shorter one is missing something).
  size_t Step = Image.size() > 8192 ? 7 : 1;
  for (size_t Len = 0; Len < Image.size(); Len += Step) {
    std::string Err;
    auto P = bytecode::deserializeProgram(Image.data(), Len, Err);
    EXPECT_EQ(P, nullptr) << "prefix of " << Len << " bytes decoded";
    EXPECT_FALSE(Err.empty());
  }

  // Flipped bytes must never crash the decoder; success is allowed only
  // if the flip landed somewhere semantically inert.
  for (size_t I = 0; I < Image.size(); I += 13) {
    std::string Corrupt = Image;
    Corrupt[I] = static_cast<char>(Corrupt[I] ^ 0x5a);
    std::string Err;
    auto P =
        bytecode::deserializeProgram(Corrupt.data(), Corrupt.size(), Err);
    (void)P; // bounds-checked decode: no crash is the assertion
  }
}

TEST(BytecodeImage, OlderVersionIsRejected) {
  // The version word follows the 8-byte magic, little-endian.  Version 6
  // dropped the commutative heap and its opcodes, so a version-5 image
  // may carry heap kinds and opcodes this build no longer has.
  auto M = parseOrDie(reductionSumIrText(64));
  std::string Image =
      bytecode::serializeProgram(*bytecode::lowerModule(*M, {}));
  std::string Err;
  ASSERT_NE(bytecode::deserializeProgram(Image.data(), Image.size(), Err),
            nullptr)
      << Err;
  ASSERT_GT(Image.size(), 12u);
  EXPECT_EQ(static_cast<uint8_t>(Image[8]), 6u);
  Image[8] = 5;
  EXPECT_EQ(bytecode::deserializeProgram(Image.data(), Image.size(), Err),
            nullptr);
  EXPECT_NE(Err.find("version"), std::string::npos) << Err;
}

TEST(BytecodeImage, EventOpcodesAreRejected) {
  // A profiling lowering's events index pointer tables of the lowering
  // process, so no image may carry one: the loader refuses each of them.
  auto M = parseOrDie(reductionSumIrText(64));
  bytecode::ProfileSites Sites;
  bytecode::LowerOptions LO;
  LO.Profile = &Sites;
  auto Profiling = bytecode::lowerModule(*M, LO);
  std::string Image = bytecode::serializeProgram(*Profiling);
  std::string Err;
  EXPECT_EQ(bytecode::deserializeProgram(Image.data(), Image.size(), Err),
            nullptr);
  EXPECT_NE(Err.find("event opcode"), std::string::npos) << Err;

  auto Plain = bytecode::lowerModule(*M, {});
  for (unsigned Op = bytecode::kFirstEventOp; Op < bytecode::kNumBcOps;
       ++Op) {
    bytecode::BytecodeProgram Copy = *Plain;
    bytecode::BcInst Ev;
    Ev.Op = static_cast<uint16_t>(Op);
    Copy.Functions.front().Code.insert(Copy.Functions.front().Code.begin(),
                                       Ev);
    std::string Bad = bytecode::serializeProgram(Copy);
    Err.clear();
    EXPECT_EQ(bytecode::deserializeProgram(Bad.data(), Bad.size(), Err),
              nullptr)
        << bytecode::bcOpName(static_cast<bytecode::BcOp>(Op));
    EXPECT_FALSE(Err.empty());
  }
}

// --- Totality: every verified module lowers -----------------------------
//
// The verifier rejects what the bytecode encoding cannot hold, and the
// pipeline transforms only into a module that verifies, so the VM is the
// one engine for privatized code.  Lowering asserts its invariants
// (assert-enabled builds trip on a decline); here every program is also
// checked for a verified transformed module and a compiled-in parallel
// loop site.

TEST(BytecodeLowering, EveryVerifiedModuleLowers) {
  std::vector<golden::GoldenProgram> Programs = golden::goldenPrograms();
  using Generator = std::string (*)(uint64_t, uint64_t &);
  const std::pair<const char *, Generator> Generators[] = {
      {"random-privatization", randomIrProgram},
      {"random-dependence", randomDepLoopProgram},
      {"random-commutative", randomComLoopProgram}};
  for (const auto &[Name, Gen] : Generators)
    for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
      uint64_t Iterations = 0;
      Programs.push_back({std::string(Name) + ".seed" + std::to_string(Seed),
                          Gen(Seed, Iterations), "main"});
    }

  unsigned Privatized = 0;
  for (const golden::GoldenProgram &P : Programs) {
    SCOPED_TRACE(P.Name);
    auto M = parseOrDie(P.Text);
    ASSERT_NE(M, nullptr);
    EXPECT_FALSE(bytecode::lowerModule(*M, {})->Functions.empty());
    bytecode::ProfileSites Sites;
    bytecode::LowerOptions LO;
    LO.Profile = &Sites;
    EXPECT_FALSE(bytecode::lowerModule(*M, LO)->Functions.empty());

    // Doacross also rewrites the carried dependences DOALL leaves alone.
    analysis::FunctionAnalyses FA(*M);
    PipelineOptions Opt;
    Opt.Strat = Strategy::Doacross;
    Opt.TrainingEntryFunction = P.Entry;
    std::FILE *Sink = std::tmpfile();
    Runtime::get().setSequentialOutput(Sink);
    PipelineResult R = runPrivateerPipeline(*M, FA, Opt);
    Runtime::get().setSequentialOutput(nullptr);
    std::fclose(Sink);
    if (!R.Transformed)
      continue;
    ++Privatized;
    std::vector<std::string> Diags = ir::verifyModule(*M);
    EXPECT_TRUE(Diags.empty()) << Diags.front();
    std::string WhyNot;
    auto BP = transform::lowerForPrivatized(*M, FA, R.Assignment, WhyNot);
    ASSERT_NE(BP, nullptr) << WhyNot;
    unsigned LoopSites = 0;
    for (const bytecode::BcFunction &F : BP->Functions)
      for (const bytecode::BcParLoopSite &S : F.ParSites) {
        ++LoopSites;
        EXPECT_NE(S.BodyEntryPc, 0u);
        EXPECT_NE(S.ExitEntryPc, 0u);
      }
    EXPECT_EQ(LoopSites, 1u);
  }
  // Every program but the recurrence has a loop to privatize.
  EXPECT_EQ(Privatized, Programs.size() - 1);
}

} // namespace
