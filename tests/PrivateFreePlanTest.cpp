//===- tests/PrivateFreePlanTest.cpp - Periods by trip count --------------===//
//
// Only private bytes carry the one-byte timestamps that cap a checkpoint
// period at 252.  An invocation that starts with no live private object
// and no dependence channels is planned by its trip count instead, and its
// workers map the shadow PROT_NONE so a privacy check that should not
// exist still misspeculates.  These tests pin the rule's reach (which
// loops it plans, which keep the cap), its soundness (a planted private
// write misspeculates and recovers exactly), and exactness of reduction
// and commutative loops under long periods, with and without injected
// misspeculation.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "runtime/Privateer.h"
#include "support/DeterministicRng.h"
#include "support/Fnv.h"
#include "transform/Pipeline.h"
#include "workloads/IrPrograms.h"
#include "workloads/Workload.h"
#include "PlainUpdate.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace privateer;

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

RuntimeConfig smallConfig() {
  RuntimeConfig C;
  C.PrivateBytes = 1u << 16;
  C.ReadOnlyBytes = 1u << 16;
  C.ReduxBytes = 1u << 16;
  C.ShortLivedBytes = 1u << 16;
  C.UnrestrictedBytes = 1u << 16;
  return C;
}

TEST(PrivateFreePlan, RedsumRunsOneEpochOfEightCheckpoints) {
  // redsum(40000) at W=2: ceil(40000 / 8) = 5000 iterations per period,
  // where the timestamp cap would cut 159 periods over 5 epochs.
  const std::string Text = reductionSumIrText(40000);
  std::string Err;
  auto Ref = ir::parseModule(Text, Err);
  ASSERT_NE(Ref, nullptr) << Err;
  std::FILE *RefOut = std::tmpfile();
  transform::executeSequential(*Ref, transform::PipelineOptions(), RefOut);
  std::string Expected = readAll(RefOut);
  std::fclose(RefOut);

  auto M = ir::parseModule(Text, Err);
  analysis::FunctionAnalyses FA(*M);
  transform::PipelineOptions Opt;
  std::FILE *Sink = std::tmpfile();
  Runtime::get().setSequentialOutput(Sink);
  transform::PipelineResult R = transform::runPrivateerPipeline(*M, FA, Opt);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(Sink);
  ASSERT_TRUE(R.Transformed);

  ParallelOptions Par;
  Par.NumWorkers = 2;
  std::FILE *Out = std::tmpfile();
  transform::ExecutionResult E = transform::executePrivatized(
      *M, FA, R.Assignment, Opt, Par, RuntimeConfig(), Out);
  EXPECT_EQ(readAll(Out), Expected);
  std::fclose(Out);
  EXPECT_EQ(E.Stats.Misspecs, 0u) << E.Stats.FirstMisspecReason;
  EXPECT_EQ(E.Stats.Epochs, 1u);
  EXPECT_EQ(E.Stats.Checkpoints, 8u);
}

TEST(PrivateFreePlan, PaperProgramsKeepTheirEpochsAndCheckpoints) {
  // Every paper program lives on private objects, so its plan keeps the
  // timestamp cap: the counts are those of the capped rule at Small.
  struct Want {
    const char *Name;
    uint64_t Epochs, Checkpoints;
  } Cases[] = {{"dijkstra", 1, 1},
               {"blackscholes", 1, 1},
               {"swaptions", 1, 1},
               {"alvinn", 3, 3},
               {"enc-md5", 1, 1}};
  for (const Want &C : Cases)
    for (unsigned W : {2u, 4u}) {
      auto Wl = makeWorkload(C.Name, Workload::Scale::Small);
      ASSERT_NE(Wl, nullptr);
      Runtime &Rt = Runtime::get();
      Rt.initialize(Wl->runtimeConfig());
      Wl->setUp();
      ParallelOptions Opt;
      Opt.NumWorkers = W;
      InvocationStats Total;
      std::string Got = runWorkloadParallel(*Wl, Opt, &Total);
      EXPECT_EQ(Got, Wl->referenceDigest()) << C.Name;
      Wl->tearDown();
      Rt.shutdown();
      EXPECT_EQ(Total.Epochs, C.Epochs) << C.Name << " w" << W;
      EXPECT_EQ(Total.Checkpoints, C.Checkpoints) << C.Name << " w" << W;
    }
}

TEST(PrivateFreePlan, CommutativeWorkloadsPlanByTripCount) {
  // 3000 iterations at Small: 4W periods of ceil(3000 / 4W), 750 and 375
  // of them beyond the cap at W = 1 and 2.  Digests stay exact, with and
  // without injected misspeculation.
  for (const char *Name : {"histogram", "degree-count", "dedup"})
    for (unsigned W : {1u, 2u, 4u})
      for (double Inject : {0.0, 0.002}) {
        SCOPED_TRACE(std::string(Name) + " w" + std::to_string(W) +
                     (Inject > 0 ? " inject" : ""));
        auto Wl = makeWorkload(Name, Workload::Scale::Small);
        Runtime &Rt = Runtime::get();
        Rt.initialize(Wl->runtimeConfig());
        Wl->setUp();
        ParallelOptions Opt;
        Opt.NumWorkers = W;
        Opt.InjectMisspecRate = Inject;
        InvocationStats Total;
        std::string Got = runWorkloadParallel(*Wl, Opt, &Total);
        EXPECT_EQ(Got, Wl->referenceDigest());
        Wl->tearDown();
        Rt.shutdown();
        if (Inject > 0) {
          EXPECT_GE(Total.Misspecs, 1u);
          continue;
        }
        EXPECT_EQ(Total.Misspecs, 0u) << Total.FirstMisspecReason;
        EXPECT_EQ(Total.Epochs, 1u);
        EXPECT_EQ(Total.Checkpoints, 4u * W);
      }
}

TEST(PrivateFreePlan, PlantedPrivateWriteMisspeculatesAndRecoversExactly) {
  // No private object is live when the loop starts, so the plan ignores
  // the timestamp cap.  One iteration then allocates a private cell and
  // checks a write to it: the sealed shadow faults, the worker
  // misspeculates, and recovery must reproduce sequential bytes.
  constexpr uint64_t N = 8000, Planted = 5003;
  auto Run = [&](bool Parallel, InvocationStats &S) {
    Runtime &Rt = Runtime::get();
    Rt.initialize(smallConfig());
    auto *Acc = static_cast<int64_t *>(h_alloc(8, HeapKind::Redux));
    *Acc = 11;
    Rt.registerReduction(Acc, 8, ReduxElem::I64, ReduxOp::Add);
    auto Body = [Acc](uint64_t I) {
      int64_t V = static_cast<int64_t>(I % 97);
      if (I == Planted) {
        auto *Cell = static_cast<int64_t *>(h_alloc(8, HeapKind::Private));
        private_write(Cell, 8);
        *Cell = 1000;
        V += *Cell;
        h_dealloc(Cell, HeapKind::Private);
        Runtime::get().deferPrintf("planted %llu\n",
                                   static_cast<unsigned long long>(I));
      }
      *Acc += V;
    };
    std::FILE *Io = std::tmpfile();
    if (Parallel) {
      ParallelOptions Opt;
      Opt.NumWorkers = 2;
      Opt.Out = Io;
      S = Rt.runParallel(N, Opt, Body);
    } else {
      Rt.setSequentialOutput(Io);
      Rt.runSequential(0, N, Body);
      Rt.setSequentialOutput(nullptr);
    }
    std::string Bytes(reinterpret_cast<const char *>(Acc), 8);
    Bytes += readAll(Io);
    std::fclose(Io);
    Rt.shutdown();
    return Bytes;
  };
  InvocationStats Seq, Par;
  std::string Expected = Run(false, Seq);
  std::string Got = Run(true, Par);
  EXPECT_EQ(Got, Expected);
  EXPECT_GE(Par.Misspecs, 1u) << "the planted private write must misspeculate";
  EXPECT_NE(Par.FirstMisspecReason.find("protected"), std::string::npos)
      << Par.FirstMisspecReason;
  // 8 periods of 1000 would be 32 capped ones.
  EXPECT_LT(Par.Checkpoints, (N + kMaxPeriod - 1) / kMaxPeriod);
}

TEST(PrivateFreePlan, LivePrivateObjectsAndDependenceChannelsKeepTheCap) {
  constexpr uint64_t N = 4000;
  Runtime &Rt = Runtime::get();
  Rt.initialize(smallConfig());
  auto *Acc = static_cast<int64_t *>(h_alloc(8, HeapKind::Redux));
  *Acc = 0;
  Rt.registerReduction(Acc, 8, ReduxElem::I64, ReduxOp::Add);
  auto Body = [Acc](uint64_t I) { *Acc += static_cast<int64_t>(I); };
  const uint64_t Capped = (N + kMaxPeriod - 1) / kMaxPeriod;

  ParallelOptions Opt;
  Opt.NumWorkers = 2;
  EXPECT_EQ(Rt.runParallel(N, Opt, Body).Checkpoints, 8u);
  Opt.NumDepChannels = 1;
  EXPECT_EQ(Rt.runParallel(N, Opt, Body).Checkpoints, Capped);
  Opt.NumDepChannels = 0;
  Opt.CheckpointPeriod = 1000; // Explicit periods keep their clamp.
  EXPECT_EQ(Rt.runParallel(N, Opt, Body).Checkpoints, Capped);
  Opt.CheckpointPeriod = 0;
  void *Live = h_alloc(8, HeapKind::Private);
  EXPECT_EQ(Rt.runParallel(N, Opt, Body).Checkpoints, Capped);
  h_dealloc(Live, HeapKind::Private);
  EXPECT_EQ(*Acc, 4 * static_cast<int64_t>(N * (N - 1) / 2));
  Rt.shutdown();
}

/// Random reduction objects at every width and operator (min/max only at 8
/// bytes, as the classifier admits them), updated with plain
/// read-modify-writes by a seeded body that also allocates short-lived
/// nodes and defers output.
class RandomComBody {
public:
  struct Object {
    uint8_t *Base;
    unsigned Width, Cells;
    ReduxOp Op;
  };

  explicit RandomComBody(uint64_t Seed) : Seed(Seed) {
    DeterministicRng Rng(Seed);
    for (unsigned K = 0, E = 2 + Rng.nextBelow(4); K < E; ++K) {
      static const unsigned Widths[] = {1, 2, 4, 8};
      Object O;
      O.Width = Widths[Rng.nextBelow(4)];
      O.Op = static_cast<ReduxOp>(Rng.nextBelow(O.Width == 8 ? 7 : 5));
      O.Cells = 1 + Rng.nextBelow(24);
      O.Base = nullptr;
      Objects.push_back(O);
    }
  }

  /// Allocates and registers every object, seeded with a nonzero value.
  void setUp() {
    Runtime &Rt = Runtime::get();
    for (Object &O : Objects) {
      size_t Bytes = size_t(O.Width) * O.Cells;
      O.Base = static_cast<uint8_t *>(h_alloc(Bytes, HeapKind::Redux));
      for (size_t B = 0; B < Bytes; ++B)
        O.Base[B] = static_cast<uint8_t>(0x5A ^ B);
      Rt.registerReduction(O.Base, Bytes, reduxIntElem(O.Width), O.Op);
    }
  }

  void operator()(uint64_t I) const {
    DeterministicRng Rng(Seed * 7919 + I);
    for (const Object &O : Objects) {
      uint64_t Cell = Rng.nextBelow(O.Cells);
      int64_t V = static_cast<int64_t>(Rng.next());
      if (O.Op == ReduxOp::Mul)
        V |= 1; // Keep products from collapsing to zero.
      plainUpdate(O.Base + Cell * O.Width, O.Width, O.Op, V);
    }
    if (I % 5 == 0) {
      auto *Node = static_cast<int64_t *>(h_alloc(16, HeapKind::ShortLived));
      Node[0] = static_cast<int64_t>(I);
      h_dealloc(Node, HeapKind::ShortLived);
    }
    if (I % 997 == 0)
      Runtime::get().deferPrintf("it %llu\n",
                                 static_cast<unsigned long long>(I));
  }

  std::string state() const {
    std::string S;
    for (const Object &O : Objects)
      S.append(reinterpret_cast<const char *>(O.Base),
               size_t(O.Width) * O.Cells);
    return S;
  }

private:
  uint64_t Seed;
  std::vector<Object> Objects;
};

TEST(PrivateFreePlan, RandomizedSweepDrawsPeriodsBeyondTheCap) {
  // Each seed draws W and a trip count whose derived period exceeds 252.
  // Clean configurations must commit in 4W periods with no
  // misspeculation; every configuration must match sequential bytes.
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    DeterministicRng Cfg(Seed ^ 0x5EA1EDULL);
    unsigned W = 1 + static_cast<unsigned>(Cfg.nextBelow(4));
    uint64_t N = 4 * W * (253 + Cfg.nextBelow(200)) + Cfg.nextBelow(4 * W);
    bool Faults = Seed % 3 == 0;
    SCOPED_TRACE("seed " + std::to_string(Seed) + " w" + std::to_string(W) +
                 " n" + std::to_string(N) + (Faults ? " faults" : ""));
    auto Run = [&](bool Parallel, InvocationStats &S) {
      Runtime &Rt = Runtime::get();
      Rt.initialize(smallConfig());
      RandomComBody Body(Seed);
      Body.setUp();
      std::FILE *Io = std::tmpfile();
      if (Parallel) {
        ParallelOptions Opt;
        Opt.NumWorkers = W;
        Opt.Out = Io;
        if (Faults) {
          Opt.InjectMisspecRate = 0.001;
          Opt.InjectSeed = Seed;
        }
        S = Rt.runParallel(N, Opt, Body);
      } else {
        Rt.setSequentialOutput(Io);
        Rt.runSequential(0, N, Body);
        Rt.setSequentialOutput(nullptr);
      }
      std::string State = Body.state() + readAll(Io);
      std::fclose(Io);
      Rt.shutdown();
      return State;
    };
    InvocationStats Seq, Par;
    std::string Expected = Run(false, Seq);
    EXPECT_EQ(fnv1a(Run(true, Par)), fnv1a(Expected));
    ParallelOptions Opt;
    Opt.NumWorkers = W;
    ASSERT_GT(checkpointPeriodFor(Opt, N, /*PrivateFree=*/true), kMaxPeriod);
    if (!Faults) {
      EXPECT_EQ(Par.Misspecs, 0u) << Par.FirstMisspecReason;
      EXPECT_EQ(Par.Checkpoints, 4u * W);
      EXPECT_GT(Par.ComRecordsCommitted, 0u);
    }
  }
}

} // namespace
