//===- tests/ProfileGoldenTest.cpp - Committed training profiles ----------===//
//
// The training profile of every IR program generator must match the text
// committed under tests/golden/ byte for byte, after address
// normalization (profiling::normalizedProfile), whichever engine feeds the
// collector.  The texts were written by an earlier collector on the
// interpreter; this test only ever reads them, so any change to what the
// collector records, or to the events the bytecode VM reports, shows up
// here.
//
//===----------------------------------------------------------------------===//

#include "GoldenProfile.h"
#include "TrainingProfile.h"
#include "ir/IRParser.h"
#include "profiling/ProfileCollector.h"
#include "profiling/ProfileSerialization.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace privateer;

namespace privateer::golden {
// Failure messages name the program instead of dumping its bytes.
void PrintTo(const GoldenProgram &G, std::ostream *OS) { *OS << G.Name; }
} // namespace privateer::golden

namespace {

class ProfileGolden : public ::testing::TestWithParam<golden::GoldenProgram> {
};

void checkAgainstGolden(const golden::GoldenProgram &G, ExecEngine Engine) {
  std::ifstream In(std::string(PRIVATEER_GOLDEN_DIR) + "/" + G.Name +
                   ".profile");
  ASSERT_TRUE(In) << "missing golden profile for " << G.Name;
  std::stringstream Expected;
  Expected << In.rdbuf();

  std::string Err;
  auto M = ir::parseModule(G.Text, Err);
  ASSERT_NE(M, nullptr) << Err;
  analysis::FunctionAnalyses FA(*M);
  profiling::Profile P = trainingProfile(*M, FA, G.Entry, Engine);
  EXPECT_EQ(profiling::normalizedProfile(P, *M), Expected.str());
}

// The interpreter, the differential oracle.
TEST_P(ProfileGolden, MatchesCommittedText) {
  checkAgainstGolden(GetParam(), ExecEngine::Interp);
}

// The bytecode VM, the default training engine.
TEST_P(ProfileGolden, MatchesCommittedTextOnBytecode) {
  checkAgainstGolden(GetParam(), ExecEngine::Bytecode);
}

std::string
goldenName(const ::testing::TestParamInfo<golden::GoldenProgram> &I) {
  std::string N = I.param.Name;
  for (char &C : N)
    if (C == '-' || C == '.')
      C = '_';
  return N;
}

INSTANTIATE_TEST_SUITE_P(IrPrograms, ProfileGolden,
                         ::testing::ValuesIn(golden::goldenPrograms()),
                         goldenName);

} // namespace
