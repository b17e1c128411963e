//===- tests/TrainingProfile.h - Training runs for tests --------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The training run tests use to get a profile: runTrainingProfile under
/// the interpreter's default instruction budget, on the bytecode VM unless
/// the interpreter is asked for.  A trapped run has an empty profile,
/// which would let absence checks pass vacuously, so a trap fails the
/// calling test, and so does a run on another engine than the one asked
/// for (a silent fallback would test the wrong event source).
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_TESTS_TRAININGPROFILE_H
#define PRIVATEER_TESTS_TRAININGPROFILE_H

#include "profiling/ProfileCollector.h"

#include <gtest/gtest.h>

namespace privateer {

inline profiling::Profile
trainingProfile(ir::Module &M, const analysis::FunctionAnalyses &FA,
                const std::string &Entry = "main",
                ExecEngine Engine = ExecEngine::Bytecode) {
  profiling::TrainingRun Run = profiling::runTrainingProfile(
      M, FA, Entry, {}, interp::Interpreter::kDefaultInstructionBudget,
      Engine);
  EXPECT_EQ(Run.Trap, "") << "training run of @" << Entry << " trapped";
  return std::move(Run.Prof);
}

} // namespace privateer

#endif // PRIVATEER_TESTS_TRAININGPROFILE_H
