//===- tests/PerfModelTest.cpp - Multicore model invariants ---------------===//
//
// The simulator behind Figures 6-9 must obey the physics of the paper's
// cost taxonomy: no superlinear speedup, capacity accounting that adds
// up, misspeculation that only hurts, and a DOALL-only baseline bounded
// by its Amdahl term.  Uses a synthetic workload model so expectations
// are analytic, not measured.
//
//===----------------------------------------------------------------------===//

#include "perfmodel/PerfModel.h"

#include <gtest/gtest.h>

using namespace privateer;

namespace {

MachineModel testMachine() {
  MachineModel M;
  M.SpawnBaseSec = 1e-3;
  M.SpawnPerWorkerSec = 2e-4;
  M.JoinBaseSec = 3e-4;
  M.PrivCallSec = 5e-9;
  M.PrivReadByteSec = 1e-9;
  M.PrivWriteByteSec = 1e-9;
  return M;
}

WorkloadModel testWorkload(double IterUs = 50.0) {
  WorkloadModel W;
  W.Name = "synthetic";
  W.Invocations = 1;
  W.ItersPerInvocation = 200000;
  W.MeasuredIters = 200000;
  W.SeqIterSec = IterUs * 1e-6;
  W.PrivReadCallsPerIter = 10;
  W.PrivReadBytesPerIter = 400;
  W.PrivWriteCallsPerIter = 5;
  W.PrivWriteBytesPerIter = 100;
  W.MergeSecPerPeriod = 5e-6;
  W.CommitSecPerPeriod = 5e-6;
  W.IterCov = 0.1;
  W.Coverage = 0.99;
  W.Doall = DoallOnlyShape{true, 0.5, 100};
  return W;
}

TEST(PerfModel, SpeedupBoundedByWorkerCountAndCoverage) {
  MachineModel M = testMachine();
  WorkloadModel W = testWorkload();
  for (unsigned Workers : {1u, 4u, 8u, 16u, 24u}) {
    SimOptions Opt;
    Opt.Workers = Workers;
    double S = privateerSpeedup(M, W, Opt);
    EXPECT_GT(S, 0.0);
    EXPECT_LE(S, Workers + 0.01) << "superlinear speedup is impossible";
    double AmdahlCap = 1.0 / (1.0 - W.Coverage);
    EXPECT_LE(S, AmdahlCap + 0.01);
  }
}

TEST(PerfModel, SpeedupGrowsWithWorkersForParallelFriendlyLoad) {
  MachineModel M = testMachine();
  WorkloadModel W = testWorkload();
  SimOptions A, B;
  A.Workers = 4;
  B.Workers = 16;
  EXPECT_GT(privateerSpeedup(M, W, B), privateerSpeedup(M, W, A) * 1.5);
}

TEST(PerfModel, CapacityAccountingAddsUp) {
  MachineModel M = testMachine();
  WorkloadModel W = testWorkload();
  SimOptions Opt;
  Opt.Workers = 8;
  SimBreakdown B = simulatePrivateer(M, W, Opt);
  double Sum = B.UsefulSec + B.PrivReadSec + B.PrivWriteSec +
               B.CheckpointSec + B.SpawnJoinSec;
  double Cap = B.capacitySec(Opt.Workers);
  // Categories partition capacity up to commit-wall rounding.
  EXPECT_NEAR(Sum / Cap, 1.0, 0.05);
  EXPECT_GT(B.UsefulSec, 0.0);
  EXPECT_GT(B.PrivReadSec, 0.0);
  EXPECT_GT(B.CheckpointSec, 0.0);
}

TEST(PerfModel, ValidationCostScalesWithCheckVolume) {
  MachineModel M = testMachine();
  WorkloadModel Light = testWorkload();
  WorkloadModel Heavy = testWorkload();
  Heavy.PrivReadBytesPerIter = 40000;
  Heavy.PrivReadCallsPerIter = 1000;
  SimOptions Opt;
  Opt.Workers = 8;
  EXPECT_GT(privateerSpeedup(M, Light, Opt),
            privateerSpeedup(M, Heavy, Opt));
}

TEST(PerfModel, MisspeculationMonotonicallyDegrades) {
  MachineModel M = testMachine();
  WorkloadModel W = testWorkload();
  SimOptions Opt;
  Opt.Workers = 24;
  double Prev = 1e18;
  for (double Rate : {0.0, 0.0001, 0.001, 0.01}) {
    Opt.MisspecRate = Rate;
    double S = privateerSpeedup(M, W, Opt);
    EXPECT_LE(S, Prev * 1.001) << "rate " << Rate;
    Prev = S;
  }
  Opt.MisspecRate = 0.001;
  SimBreakdown B = simulatePrivateer(M, W, Opt);
  EXPECT_GT(B.Misspecs, 0u);
  EXPECT_GT(B.RecoverySec, 0.0);
}

TEST(PerfModel, EagerCommitNeverSlower) {
  // Run after the join, every commit would add to the wall time.  The pump
  // can only hide commits behind execution, never add to them: its tail is
  // at most the whole serial commit stream.
  MachineModel M = testMachine();
  WorkloadModel W = testWorkload();
  WorkloadModel Free = W;
  Free.CommitSecPerPeriod = 0;
  for (unsigned Workers : {2u, 4u, 8u, 24u}) {
    SimOptions Opt;
    Opt.Workers = Workers;
    SimBreakdown A = simulatePrivateer(M, W, Opt);
    SimBreakdown B = simulatePrivateer(M, Free, Opt);
    double Stream = static_cast<double>(W.ItersPerInvocation) /
                    static_cast<double>(Opt.CheckpointPeriod) *
                    W.CommitSecPerPeriod;
    EXPECT_LE(A.WallSec, (B.WallSec + Stream) * 1.0001)
        << Workers << " workers";
    // Commit CPU is spent either way; only its placement changes.
    EXPECT_NEAR(A.CheckpointSec - B.CheckpointSec, Stream,
                1e-9 + 1e-6 * Stream);
  }
}

TEST(PerfModel, EagerCommitHidesTheCommitTail) {
  MachineModel M = testMachine();
  // Commit-heavy workload: run after the join, its commits would add their
  // whole serial stream to the wall time.  The pump starts each slot's
  // commit when its last merge lands (merges stagger slot completion), so
  // much of that stream hides behind execution.
  WorkloadModel Light = testWorkload();
  WorkloadModel Heavy = Light;
  Heavy.CommitSecPerPeriod = 2e-3;
  SimOptions Opt;
  Opt.Workers = 8;
  double Extra = simulatePrivateer(M, Heavy, Opt).WallSec -
                 simulatePrivateer(M, Light, Opt).WallSec;
  double Periods = static_cast<double>(Light.ItersPerInvocation) /
                   static_cast<double>(Opt.CheckpointPeriod);
  double SerialStream =
      Periods * (Heavy.CommitSecPerPeriod - Light.CommitSecPerPeriod);
  EXPECT_GT(Extra, 0.0);
  EXPECT_LT(Extra, 0.5 * SerialStream)
      << "the pump must hide at least half of a commit-bound stream";
}

TEST(PerfModel, DoallOnlyBoundedByAmdahlAndSpawn) {
  MachineModel M = testMachine();
  WorkloadModel W = testWorkload();
  double S = doallOnlySpeedup(M, W, 24);
  // ParallelFraction 0.5 bounds the speedup below 2x.
  EXPECT_LE(S, 2.0);
  EXPECT_GT(S, 1.0);
  // Unparallelizable programs stay at exactly 1x.
  W.Doall.Parallelizable = false;
  EXPECT_EQ(doallOnlySpeedup(M, W, 24), 1.0);
  // Spawn-bound inner loops can lose: tiny program, many invocations.
  WorkloadModel Tiny = testWorkload(0.5);
  Tiny.ItersPerInvocation = 2000;
  Tiny.Doall = DoallOnlyShape{true, 0.3, 50000};
  EXPECT_LT(doallOnlySpeedup(M, Tiny, 24), 1.0)
      << "dispatch overhead must outweigh the gains (alvinn's story)";
}

TEST(PerfModel, DeterministicForFixedSeed) {
  MachineModel M = testMachine();
  WorkloadModel W = testWorkload();
  SimOptions Opt;
  Opt.Workers = 12;
  Opt.MisspecRate = 0.001;
  Opt.Seed = 99;
  SimBreakdown A = simulatePrivateer(M, W, Opt);
  SimBreakdown B = simulatePrivateer(M, W, Opt);
  EXPECT_EQ(A.WallSec, B.WallSec);
  EXPECT_EQ(A.Misspecs, B.Misspecs);
}

TEST(PerfModel, MeasuredModelsHaveSaneShapes) {
  // Measure the real (small-scale) dijkstra workload and check invariants
  // of the extracted model.
  auto W = makeWorkload("dijkstra", Workload::Scale::Small);
  ASSERT_NE(W, nullptr);
  WorkloadModel WM = WorkloadModel::measure(*W);
  EXPECT_GT(WM.SeqIterSec, 0.0);
  EXPECT_GT(WM.PrivReadBytesPerIter, 0.0);
  EXPECT_GT(WM.PrivWriteBytesPerIter, 0.0);
  EXPECT_GE(WM.ItersPerInvocation, WM.MeasuredIters)
      << "reference scaling only adds iterations";
  EXPECT_GT(WM.totalSequentialSec(), 0.0);

  MachineModel M = MachineModel::calibrate();
  EXPECT_GT(M.SpawnBaseSec, 0.0);
  EXPECT_GT(M.PrivReadByteSec, 0.0);
  EXPECT_LT(M.PrivReadByteSec, 1e-6) << "per-byte cost must be tiny";
  SimOptions Opt;
  Opt.Workers = 24;
  double S = privateerSpeedup(M, WM, Opt);
  EXPECT_GT(S, 1.0) << "reference-scale dijkstra must profit from 24 cores";
  EXPECT_LE(S, 24.0);
}

} // namespace
