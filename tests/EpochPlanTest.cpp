//===- tests/EpochPlanTest.cpp - The epoch schedule, stated once ----------===//
//
// EpochPlan is the only code that places an iteration in a period, a slot
// or a worker's share.  These tests check its partition properties over a
// grid of (Begin, N, k, W): the periods partition [Begin, End), the worker
// shares partition each period, each share's count equals what its
// first-iteration walk visits, and periodOf inverts periodBegin.
//
//===----------------------------------------------------------------------===//

#include "runtime/Checkpoint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace privateer;

namespace {

/// Every plan of the (Begin, N, k, W) grid.
std::vector<EpochPlan> gridPlans() {
  std::vector<EpochPlan> Plans;
  for (uint64_t Begin : {0u, 1u, 7u, 1000u})
    for (uint64_t N : {1u, 2u, 7u, 63u, 64u, 65u, 200u})
      for (uint64_t K : {1u, 2u, 3u, 8u, 64u, 252u})
        for (unsigned W : {1u, 2u, 3u, 4u, 7u, 64u})
          Plans.push_back({Begin, Begin + N, K, W});
  return Plans;
}

std::string label(const EpochPlan &P) {
  return "begin " + std::to_string(P.Begin) + " end " +
         std::to_string(P.End) + " k " + std::to_string(P.Period) + " w " +
         std::to_string(P.NumWorkers);
}

TEST(EpochPlan, PeriodsPartitionTheEpoch) {
  for (const EpochPlan &P : gridPlans()) {
    SCOPED_TRACE(label(P));
    uint64_t Slots = P.numSlots();
    ASSERT_GE(Slots, 1u);
    uint64_t Next = P.Begin;
    for (uint64_t S = 0; S < Slots; ++S) {
      ASSERT_EQ(P.periodBegin(S), Next) << "slot " << S;
      ASSERT_GT(P.periodEnd(S), P.periodBegin(S)) << "slot " << S;
      ASSERT_LE(P.periodEnd(S) - P.periodBegin(S), P.Period) << "slot " << S;
      // Only the last period may be short.
      if (S + 1 < Slots) {
        ASSERT_EQ(P.periodEnd(S) - P.periodBegin(S), P.Period);
      }
      Next = P.periodEnd(S);
    }
    EXPECT_EQ(Next, P.End);
  }
}

TEST(EpochPlan, WorkerSharesPartitionEachPeriod) {
  for (const EpochPlan &P : gridPlans()) {
    SCOPED_TRACE(label(P));
    for (uint64_t S = 0, E = P.numSlots(); S < E; ++S) {
      uint64_t Lo = P.periodBegin(S), Hi = P.periodEnd(S);
      std::vector<unsigned> Owners(Hi - Lo, 0);
      uint64_t Total = 0;
      for (unsigned W = 0; W < P.NumWorkers; ++W) {
        Total += P.shareOf(W, Lo, Hi);
        for (uint64_t I = P.firstAtOrAfter(W, Lo); I < Hi; I += P.NumWorkers) {
          ASSERT_GE(I, Lo);
          ++Owners[I - Lo];
        }
      }
      EXPECT_EQ(Total, Hi - Lo) << "slot " << S;
      for (uint64_t I = Lo; I < Hi; ++I)
        ASSERT_EQ(Owners[I - Lo], 1u) << "iteration " << I;
    }
  }
}

TEST(EpochPlan, ShareCountsMatchFirstIterationWalk) {
  for (const EpochPlan &P : gridPlans()) {
    SCOPED_TRACE(label(P));
    for (uint64_t S = 0, E = P.numSlots(); S < E; ++S)
      for (unsigned W = 0; W < P.NumWorkers; ++W) {
        uint64_t Walked = 0;
        for (uint64_t I = P.firstAtOrAfter(W, P.periodBegin(S));
             I < P.periodEnd(S); I += P.NumWorkers)
          ++Walked;
        ASSERT_EQ(P.shareOf(W, P.periodBegin(S), P.periodEnd(S)), Walked)
            << "slot " << S << " worker " << W;
      }
    // Shares of arbitrary windows, as the commit pump's cut-off asks for
    // them, count the same iterations a walk from the window start does.
    for (uint64_t Lo = P.Begin; Lo <= P.End; Lo += 5)
      for (unsigned W = 0; W < P.NumWorkers; ++W) {
        uint64_t Walked = 0;
        for (uint64_t I = P.firstAtOrAfter(W, Lo); I < P.End;
             I += P.NumWorkers)
          ++Walked;
        ASSERT_EQ(P.shareOf(W, Lo, P.End), Walked)
            << "from " << Lo << " worker " << W;
      }
  }
}

TEST(EpochPlan, PeriodOfInvertsPeriodBegin) {
  for (const EpochPlan &P : gridPlans()) {
    SCOPED_TRACE(label(P));
    for (uint64_t S = 0, E = P.numSlots(); S < E; ++S) {
      EXPECT_EQ(P.periodOf(P.periodBegin(S)), S);
      EXPECT_EQ(P.periodOf(P.periodEnd(S) - 1), S);
    }
  }
}

TEST(EpochPlan, StartingCutsAtTheLimit) {
  // A full epoch of 32 periods of 8, then the 100 iterations left.
  EpochPlan Full = EpochPlan::starting(0, 356, 8, 32, 3);
  EXPECT_EQ(Full.End, 256u);
  EXPECT_EQ(Full.numSlots(), 32u);
  EpochPlan Tail = EpochPlan::starting(Full.End, 356, 8, 32, 3);
  EXPECT_EQ(Tail.Begin, 256u);
  EXPECT_EQ(Tail.End, 356u);
  EXPECT_EQ(Tail.numSlots(), 13u);
  EXPECT_EQ(Tail.periodEnd(12) - Tail.periodBegin(12), 4u);
}

} // namespace
