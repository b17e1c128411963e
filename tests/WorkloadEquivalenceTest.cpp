//===- tests/WorkloadEquivalenceTest.cpp ----------------------------------===//
//
// The central correctness claim of the reproduction: for every evaluation
// program, speculative parallel execution produces *exactly* the output of
// sequential execution, which in turn matches an independent plain-C++
// reference — with and without injected misspeculation, across worker
// counts (parameterized suite).
//
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace privateer;

namespace {

struct Case {
  const char *Name;
  unsigned Workers;
  double InjectRate;
};

std::string caseName(const ::testing::TestParamInfo<Case> &Info) {
  std::string N = Info.param.Name;
  for (char &C : N)
    if (C == '-' || C == '.')
      C = '_';
  return N + "_w" + std::to_string(Info.param.Workers) +
         (Info.param.InjectRate > 0 ? "_inject" : "");
}

class WorkloadEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(WorkloadEquivalence, ParallelMatchesSequentialMatchesReference) {
  const Case &C = GetParam();
  auto W = makeWorkload(C.Name, Workload::Scale::Small);
  ASSERT_NE(W, nullptr);

  Runtime &Rt = Runtime::get();

  // Sequential execution on the logical heaps.
  Rt.initialize(W->runtimeConfig());
  W->setUp();
  std::string Reference = W->referenceDigest();
  std::string Sequential = runWorkloadSequential(*W);
  W->tearDown();
  Rt.shutdown();
  EXPECT_EQ(Sequential, Reference)
      << C.Name << ": privatized body diverges from the plain reference";

  // Speculative parallel execution, fresh heaps.
  Rt.initialize(W->runtimeConfig());
  W->setUp();
  ParallelOptions Opt;
  Opt.NumWorkers = C.Workers;
  Opt.CheckpointPeriod = 16;
  Opt.InjectMisspecRate = C.InjectRate;
  InvocationStats Total;
  std::string Parallel = runWorkloadParallel(*W, Opt, &Total);
  W->tearDown();
  Rt.shutdown();

  EXPECT_EQ(Parallel, Reference)
      << C.Name << " with " << C.Workers << " workers (inject rate "
      << C.InjectRate << "), misspecs=" << Total.Misspecs << " reason='"
      << Total.FirstMisspecReason << "'";
  if (C.InjectRate == 0.0) {
    EXPECT_EQ(Total.Misspecs, 0u)
        << C.Name << " misspeculated without injection: "
        << Total.FirstMisspecReason;
    EXPECT_GT(Total.Checkpoints, 0u);
  } else {
    // With injection, small runs may misspeculate in every period and
    // commit nothing — recovery then does all the work, which is fine.
    EXPECT_GE(Total.Misspecs, 1u)
        << C.Name << ": injection produced no misspeculation";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, WorkloadEquivalence,
    ::testing::Values(Case{"dijkstra", 2, 0.0}, Case{"dijkstra", 4, 0.0},
                      Case{"dijkstra", 7, 0.0}, Case{"dijkstra", 4, 0.02},
                      Case{"blackscholes", 2, 0.0},
                      Case{"blackscholes", 4, 0.0},
                      Case{"blackscholes", 4, 0.02},
                      Case{"swaptions", 2, 0.0}, Case{"swaptions", 4, 0.0},
                      Case{"swaptions", 4, 0.02}, Case{"alvinn", 2, 0.0},
                      Case{"alvinn", 4, 0.0}, Case{"alvinn", 4, 0.02},
                      Case{"enc-md5", 2, 0.0}, Case{"enc-md5", 4, 0.0},
                      Case{"enc-md5", 4, 0.02}, Case{"histogram", 1, 0.0},
                      Case{"histogram", 2, 0.0}, Case{"histogram", 4, 0.0},
                      Case{"histogram", 1, 0.02}, Case{"histogram", 2, 0.02},
                      Case{"histogram", 4, 0.02},
                      Case{"degree-count", 1, 0.0},
                      Case{"degree-count", 2, 0.0},
                      Case{"degree-count", 4, 0.0},
                      Case{"degree-count", 4, 0.02}, Case{"dedup", 1, 0.0},
                      Case{"dedup", 2, 0.0}, Case{"dedup", 4, 0.0},
                      Case{"dedup", 4, 0.02}),
    caseName);

} // namespace
