//===- tests/VerifierTest.cpp - The verifier's bytecode limits ------------===//
//
// The verifier rejects every module the bytecode lowering cannot encode,
// which is what makes lowering total over verified modules.  Each limit is
// pinned at its edge: one past it is rejected with a message naming the
// limit, and the same shape one under it verifies and lowers.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Lower.h"
#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

using namespace privateer;
using namespace privateer::ir;

namespace {

bool mentions(const std::vector<std::string> &Diags, const std::string &S) {
  for (const std::string &D : Diags)
    if (D.find(S) != std::string::npos)
      return true;
  return false;
}

/// @main with \p N chained adds: %0 = add 0, 1 and %K = add %(K-1), 1.
/// Its register bound is N values + 2 distinct constants + 1.
std::unique_ptr<Module> addChain(unsigned N) {
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder IRB(*M);
  IRB.setInsertPoint(F->createBlock("entry"));
  Value *V = M->constInt(0);
  for (unsigned K = 0; K < N; ++K)
    V = IRB.binop(Opcode::Add, V, M->constInt(1), std::to_string(K));
  IRB.ret(V);
  return M;
}

/// @main with one alloca and \p N stores to it: a long block of void
/// instructions that needs few registers.
std::unique_ptr<Module> storeRun(unsigned N) {
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", Type::I64);
  IRBuilder IRB(*M);
  IRB.setInsertPoint(F->createBlock("entry"));
  Instruction *P = IRB.alloca_(8, "p");
  for (unsigned K = 0; K < N; ++K)
    IRB.store(M->constInt(K & 7), P, 8);
  IRB.ret(IRB.load(Type::I64, P, 8, "v"));
  return M;
}

/// Lowers \p M plain and for profiling, and runs it on the VM.
int64_t lowerAndRun(const Module &M) {
  bytecode::ProfileSites Sites;
  bytecode::LowerOptions LO;
  LO.Profile = &Sites;
  EXPECT_FALSE(bytecode::lowerModule(M, LO)->Functions.empty());
  auto BP = bytecode::lowerModule(M, {});
  std::FILE *Out = std::tmpfile();
  int64_t Ret = transform::executeLoadedSequential(
                    *BP, transform::PipelineOptions(), Out)
                    .asInt();
  std::fclose(Out);
  return Ret;
}

TEST(Verifier, RejectsNarrowF64Load) {
  const std::string Text = "global @g 8\n"
                           "define f64 @main() {\n"
                           "entry:\n"
                           "  %v = load f64, @g, 4\n"
                           "  ret %v\n"
                           "}\n";
  std::string Err;
  auto M = parseModule(Text, Err);
  ASSERT_NE(M, nullptr) << Err;
  EXPECT_TRUE(mentions(verifyModule(*M), "f64 load must access 8 bytes"));

  // The same load at 8 bytes verifies.
  std::string Wide = Text;
  Wide.replace(Wide.find("@g, 4"), 5, "@g, 8");
  auto MW = parseModule(Wide, Err);
  ASSERT_NE(MW, nullptr) << Err;
  EXPECT_TRUE(verifyModule(*MW).empty());
}

TEST(Verifier, FunctionOverRegisterBoundRejected) {
  auto M = addChain(65533); // 65533 + 2 + 1 = 65536 registers
  std::vector<std::string> Diags = verifyModule(*M);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags.front().find("needs up to 65536 registers"),
            std::string::npos)
      << Diags.front();
  EXPECT_NE(Diags.front().find("limit of 65535"), std::string::npos);
}

TEST(Verifier, FunctionUnderRegisterBoundLowers) {
  auto M = addChain(65532); // 65532 + 2 + 1 = 65535 registers
  std::vector<std::string> Diags = verifyModule(*M);
  ASSERT_TRUE(Diags.empty()) << Diags.front();
  EXPECT_EQ(lowerAndRun(*M), 65532);
}

// The lowerer re-checks the register bound in every build, so a plan that
// outgrew the verifier's bound dies loudly instead of wrapping 16-bit
// register numbers.  An unverified module past the bound stands in here.
TEST(Verifier, LoweringPastRegisterBoundIsFatal) {
  auto M = addChain(65540);
  ASSERT_FALSE(verifyModule(*M).empty());
  EXPECT_DEATH(bytecode::lowerModule(*M, {}), "register plan exceeds 65535");
}

TEST(Verifier, BlockOverInstructionBoundRejected) {
  auto M = storeRun(65533); // alloca + stores + load + ret = 65536
  std::vector<std::string> Diags = verifyModule(*M);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags.front().find("block has 65536 instructions"),
            std::string::npos)
      << Diags.front();

  auto Under = storeRun(65532);
  Diags = verifyModule(*Under);
  ASSERT_TRUE(Diags.empty()) << Diags.front();
  EXPECT_EQ(lowerAndRun(*Under), (65531 & 7));
}

TEST(Verifier, NamesMustResolveInTheirFunctionAndModule) {
  auto M = std::make_unique<Module>();
  IRBuilder IRB(*M);
  Function *G = M->createFunction("g", Type::I64);
  IRB.setInsertPoint(G->createBlock("entry"));
  Instruction *X = IRB.binop(Opcode::Add, M->constInt(1), M->constInt(2), "x");
  IRB.ret(X);
  Function *F = M->createFunction("main", Type::I64);
  IRB.setInsertPoint(F->createBlock("entry"));
  IRB.ret(X); // %x lives in @g
  EXPECT_TRUE(mentions(verifyModule(*M), "is from another function"));

  // The lowering resolves globals by name, so a name must be defined once.
  std::string Err;
  auto Dup = parseModule("global @t 8\nglobal @t 16\n"
                         "define i64 @main() {\nentry:\n  ret 0\n}\n",
                         Err);
  ASSERT_NE(Dup, nullptr) << Err;
  EXPECT_TRUE(mentions(verifyModule(*Dup), "global @t is defined twice"));
}

} // namespace
