//===- tests/RandomizedEquivalenceTest.cpp - Soundness sweep --------------===//
//
// Property test over randomly generated privatization-friendly loop
// bodies: for any mix of private scratch writes/reads, short-lived
// allocations, reductions, and deferred output, speculative parallel
// execution must be bit-identical to sequential execution for every
// worker count and checkpoint period — with and without injected
// misspeculation.
//
//===----------------------------------------------------------------------===//

#include "RandomIrPrograms.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "profiling/ProfileCollector.h"
#include "profiling/ProfileSerialization.h"
#include "runtime/Privateer.h"
#include "support/DeterministicRng.h"
#include "support/Fnv.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace privateer;

namespace {

struct SweepCase {
  uint64_t Seed;
  unsigned Workers;
  uint64_t Period;
  double InjectRate;
};

std::string sweepName(const ::testing::TestParamInfo<SweepCase> &Info) {
  return "seed" + std::to_string(Info.param.Seed) + "_w" +
         std::to_string(Info.param.Workers) + "_k" +
         std::to_string(Info.param.Period) +
         (Info.param.InjectRate > 0 ? "_inject" : "");
}

/// A deterministic random loop body over a fixed arena shape.
class RandomBody {
public:
  static constexpr unsigned kScratch = 96; // Private scratch longs.
  static constexpr unsigned kOut = 128;    // Live-out slots (one/iter).
  static constexpr unsigned kBins = 16;    // Reduction bins.

  RandomBody(uint64_t Seed, long *Scratch, long *Out, int64_t *Bins)
      : Seed(Seed), Scratch(Scratch), Out(Out), Bins(Bins) {}

  void operator()(uint64_t I) const {
    DeterministicRng Rng(Seed * 1000003 + I);
    Runtime &Rt = Runtime::get();

    // Phase 1: overwrite a random prefix of the scratch (write-first
    // keeps it private-safe).
    unsigned N = 1 + Rng.nextBelow(kScratch);
    private_write(Scratch, N * sizeof(long));
    for (unsigned J = 0; J < N; ++J)
      Scratch[J] = static_cast<long>(Rng.next() % 1000);

    // Phase 2: maybe some short-lived structure.
    long Extra = 0;
    if (Rng.next() & 1) {
      unsigned Nodes = 1 + Rng.nextBelow(5);
      std::vector<long *> Ns;
      for (unsigned J = 0; J < Nodes; ++J) {
        auto *P = static_cast<long *>(
            h_alloc(2 * sizeof(long), HeapKind::ShortLived));
        check_heap(P, HeapKind::ShortLived);
        P[0] = static_cast<long>(J + I);
        P[1] = P[0] * 3;
        Ns.push_back(P);
      }
      for (long *P : Ns) {
        Extra += P[1];
        h_dealloc(P, HeapKind::ShortLived);
      }
    }

    // Phase 3: fold scratch into the per-iteration live-out.
    private_read(Scratch, N * sizeof(long));
    long Sum = Extra;
    for (unsigned J = 0; J < N; ++J)
      Sum += Scratch[J] * (J + 1);
    private_write(&Out[I % kOut], sizeof(long));
    Out[I % kOut] = Sum;

    // Phase 4: reduction update.
    Bins[Sum % kBins] += 1 + static_cast<int64_t>(I % 3);

    // Phase 5: occasional deferred output.
    if (Sum % 7 == 0)
      Rt.deferPrintf("it %llu sum %ld\n",
                     static_cast<unsigned long long>(I), Sum);
  }

private:
  uint64_t Seed;
  long *Scratch;
  long *Out;
  int64_t *Bins;
};

class RandomizedEquivalence : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RandomizedEquivalence, ParallelBitIdenticalToSequential) {
  const SweepCase &C = GetParam();
  constexpr uint64_t N = 160;

  auto RunOnce = [&](bool Parallel, uint64_t &Misspecs) {
    RuntimeConfig Cfg;
    Cfg.PrivateBytes = 1u << 18;
    Cfg.ReadOnlyBytes = 1u << 16;
    Cfg.ReduxBytes = 1u << 16;
    Cfg.ShortLivedBytes = 1u << 16;
    Cfg.UnrestrictedBytes = 1u << 16;
    Runtime &Rt = Runtime::get();
    Rt.initialize(Cfg);
    auto *Scratch = static_cast<long *>(
        h_alloc(RandomBody::kScratch * sizeof(long), HeapKind::Private));
    auto *Out = static_cast<long *>(
        h_alloc(RandomBody::kOut * sizeof(long), HeapKind::Private));
    auto *Bins = static_cast<int64_t *>(
        h_alloc(RandomBody::kBins * sizeof(int64_t), HeapKind::Redux));
    std::memset(Scratch, 0, RandomBody::kScratch * sizeof(long));
    std::memset(Out, 0, RandomBody::kOut * sizeof(long));
    std::memset(Bins, 0, RandomBody::kBins * sizeof(int64_t));
    Rt.registerReduction(Bins, RandomBody::kBins * sizeof(int64_t),
                         ReduxElem::I64, ReduxOp::Add);

    RandomBody Body(C.Seed, Scratch, Out, Bins);
    std::FILE *Io = std::tmpfile();
    if (Parallel) {
      ParallelOptions Opt;
      Opt.NumWorkers = C.Workers;
      Opt.CheckpointPeriod = C.Period;
      Opt.InjectMisspecRate = C.InjectRate;
      Opt.InjectSeed = C.Seed;
      Opt.Out = Io;
      InvocationStats S =
          Rt.runParallel(N, Opt, [&](uint64_t I) { Body(I); });
      Misspecs = S.Misspecs;
    } else {
      Rt.setSequentialOutput(Io);
      Rt.runSequential(0, N, [&](uint64_t I) { Body(I); });
      Rt.setSequentialOutput(nullptr);
      Misspecs = 0;
    }

    // Digest every observable: live-outs, final scratch, reductions, IO.
    std::string State;
    State.append(reinterpret_cast<char *>(Out),
                 RandomBody::kOut * sizeof(long));
    State.append(reinterpret_cast<char *>(Scratch),
                 RandomBody::kScratch * sizeof(long));
    State.append(reinterpret_cast<char *>(Bins),
                 RandomBody::kBins * sizeof(int64_t));
    std::rewind(Io);
    char Buf[4096];
    size_t R;
    while ((R = std::fread(Buf, 1, sizeof(Buf), Io)) > 0)
      State.append(Buf, R);
    std::fclose(Io);
    Rt.reductions().clear();
    Rt.shutdown();
    return fnvHex(fnv1a(State));
  };

  uint64_t SeqMisspecs = 0, ParMisspecs = 0;
  std::string Seq = RunOnce(false, SeqMisspecs);
  std::string Par = RunOnce(true, ParMisspecs);
  EXPECT_EQ(Par, Seq) << "seed " << C.Seed << " w" << C.Workers << " k"
                      << C.Period << " misspecs=" << ParMisspecs;
  if (C.InjectRate == 0.0)
    EXPECT_EQ(ParMisspecs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomizedEquivalence,
    ::testing::Values(SweepCase{1, 2, 16, 0.0}, SweepCase{2, 3, 7, 0.0},
                      SweepCase{3, 4, 32, 0.0}, SweepCase{4, 5, 1, 0.0},
                      SweepCase{5, 8, 64, 0.0}, SweepCase{6, 4, 200, 0.0},
                      SweepCase{7, 6, 13, 0.0}, SweepCase{8, 4, 16, 0.03},
                      SweepCase{9, 3, 8, 0.05}, SweepCase{10, 7, 25, 0.02},
                      SweepCase{11, 2, 252, 0.0},
                      SweepCase{12, 16, 16, 0.0}),
    sweepName);

// --- Oversized worker counts and degenerate loop sizes -----------------

TEST(ParallelEdgeCases, MoreWorkersThanIterations) {
  Runtime &Rt = Runtime::get();
  Rt.initialize();
  auto *Out = static_cast<long *>(h_alloc(3 * sizeof(long), HeapKind::Private));
  ParallelOptions Opt;
  Opt.NumWorkers = 8;
  InvocationStats S = Rt.runParallel(3, Opt, [&](uint64_t I) {
    private_write(&Out[I], sizeof(long));
    Out[I] = static_cast<long>(I) + 5;
  });
  EXPECT_EQ(S.Misspecs, 0u);
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(Out[I], I + 5);
  Rt.shutdown();
}

TEST(ParallelEdgeCases, ZeroIterationsIsANoOp) {
  Runtime &Rt = Runtime::get();
  Rt.initialize();
  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  InvocationStats S = Rt.runParallel(0, Opt, [&](uint64_t) {
    ADD_FAILURE() << "body must not run";
  });
  EXPECT_EQ(S.Iterations, 0u);
  EXPECT_EQ(S.Epochs, 0u);
  Rt.shutdown();
}

TEST(ParallelEdgeCases, SingleIterationSingleWorker) {
  Runtime &Rt = Runtime::get();
  Rt.initialize();
  auto *Out = static_cast<long *>(h_alloc(sizeof(long), HeapKind::Private));
  ParallelOptions Opt;
  Opt.NumWorkers = 1;
  Opt.CheckpointPeriod = 1;
  InvocationStats S = Rt.runParallel(1, Opt, [&](uint64_t) {
    private_write(Out, sizeof(long));
    *Out = 99;
  });
  EXPECT_EQ(S.Misspecs, 0u);
  EXPECT_EQ(*Out, 99);
  Rt.shutdown();
}

TEST(ParallelEdgeCases, NonSpeculativeDoallMode) {
  // The Figure 7 baseline: shared heaps, no validation, no checkpoints —
  // sound only for truly independent iterations.
  Runtime &Rt = Runtime::get();
  Rt.initialize();
  auto *Out =
      static_cast<long *>(h_alloc(64 * sizeof(long), HeapKind::Private));
  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.NonSpeculative = true;
  InvocationStats S = Rt.runParallel(64, Opt, [&](uint64_t I) {
    Out[I] = static_cast<long>(I * I); // Direct shared-heap stores.
  });
  EXPECT_EQ(S.Misspecs, 0u);
  EXPECT_EQ(S.Checkpoints, 0u) << "DOALL-only has no checkpoint system";
  EXPECT_EQ(S.PrivateWriteCalls, 0u) << "and no validation";
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(Out[I], static_cast<long>(I) * I);
  Rt.shutdown();
}

// --- Randomized IR differential sweep through the parallel runtime ------
//
// Each seed generates a structurally privatizable IR loop with randomized
// shape (scratch width, table/live-out sizes, arithmetic constants,
// optional short-lived allocation, optional deferred print), runs it
// through the full pipeline (profile -> classify -> transform), and then
// executes the privatized loop on the VM in the *parallel runtime* across
// a {workers x period x tracing x fault-injection} matrix, requiring
// byte-identical stdout and return value against plain sequential
// interpretation of the untransformed program (the reference is always
// the interpreter, so every configuration is a cross-engine differential).
//
// PRIVATEER_RANDOM_SWEEP_SEEDS scales the sweep (default 25 for PR CI;
// nightly CI runs hundreds).  Half the configurations run traced (see
// sweepTracePath), so every sweep also checks that tracing leaves the
// output byte-identical.

std::string readAllFile(std::FILE *F) {
  std::string Out;
  std::rewind(F);
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  return Out;
}

/// The trace file of sweep configuration \p Conf, or "" for an untraced
/// one.  PRIVATEER_TRACE, when set, traces every run to that path so
/// nightly failures come with a timeline; otherwise the odd configurations
/// trace to a temporary file the caller removes after the run.
std::string sweepTracePath(const char *TraceEnv, unsigned Conf,
                           const char *Matrix) {
  if (TraceEnv)
    return TraceEnv;
  if ((Conf & 1) == 0)
    return "";
  return ::testing::TempDir() + "privateer-sweep-" + Matrix + ".json";
}

/// One sweep configuration's checkpoint period.  Half the draws are 1..3:
/// a generated loop runs at least 96 iterations, so at such a period it
/// (nearly always) outlasts one epoch of MaxSlotsPerEpoch periods without
/// any misspeculation.  The other half are 0 (derived from the trip count)
/// or an explicit 4..32.
uint64_t drawPeriod(DeterministicRng &Cfg) {
  if (Cfg.next() & 1)
    return 1 + Cfg.nextBelow(3);
  uint64_t K = 3 + Cfg.nextBelow(30);
  return K == 3 ? 0 : K;
}

/// How many of a sweep's fault-free configurations ran two or more epochs.
/// Injected misspeculation ends epochs early, so only the clean runs show
/// that an epoch-end commit followed by a fresh fork (reductions, deferred
/// output, DOACROSS tokens) keeps sequential semantics; a sweep in which
/// fewer than a quarter of them cross an epoch boundary no longer tests it.
struct EpochCoverage {
  unsigned Clean = 0;
  unsigned MultiEpoch = 0;

  void note(const InvocationStats &S, bool Faults) {
    if (Faults)
      return;
    ++Clean;
    MultiEpoch += S.Epochs >= 2;
  }
  void check() const {
    EXPECT_GE(4 * MultiEpoch, Clean)
        << MultiEpoch << " of " << Clean
        << " fault-free configurations ran two or more epochs";
  }
};

TEST(RandomizedIrSweep, ParallelRuntimeMatchesSequentialAcrossMatrix) {
  unsigned Seeds = 25;
  if (const char *Env = std::getenv("PRIVATEER_RANDOM_SWEEP_SEEDS"))
    Seeds = static_cast<unsigned>(std::max(1, std::atoi(Env)));
  const char *TraceEnv = std::getenv("PRIVATEER_TRACE");
  const unsigned WorkerChoices[] = {2, 3, 4, 6, 8};
  EpochCoverage Coverage;

  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    uint64_t N = 0;
    std::string Text = randomIrProgram(Seed, N);

    std::string Err;
    auto MRef = ir::parseModule(Text, Err);
    ASSERT_NE(MRef, nullptr) << Err << "\n" << Text;
    ASSERT_TRUE(ir::verifyModule(*MRef).empty()) << Text;

    // Reference: plain sequential interpretation of the pristine module,
    // pinned to the interpreter — the tree-walker is the oracle the
    // bytecode engine must byte-match.
    transform::PipelineOptions RefOpt;
    RefOpt.Engine = transform::ExecEngine::Interp;
    std::FILE *RefOut = std::tmpfile();
    interp::Cell RefRet =
        transform::executeSequential(*MRef, RefOpt, RefOut);
    std::string Expected = readAllFile(RefOut);
    std::fclose(RefOut);

    // Pipeline on a fresh copy (the transform mutates the module).
    auto M = ir::parseModule(Text, Err);
    ASSERT_NE(M, nullptr) << Err;
    analysis::FunctionAnalyses FA(*M);
    transform::PipelineOptions Opt;
    std::FILE *TrainSink = std::tmpfile();
    Runtime::get().setSequentialOutput(TrainSink);
    transform::PipelineResult R = transform::runPrivateerPipeline(*M, FA, Opt);
    Runtime::get().setSequentialOutput(nullptr);
    std::fclose(TrainSink);
    ASSERT_TRUE(R.Transformed)
        << "pipeline rejected generated program:\n"
        << (R.Log.empty() ? "" : R.Log.back()) << "\n" << Text;

    // {traced/untraced} x {faults on/off}; workers and period
    // drawn per configuration so the sweep covers the matrix across seeds.
    DeterministicRng Cfg(Seed ^ 0xC0FFEEULL);
    for (unsigned Conf = 0; Conf < 4; ++Conf) {
      ParallelOptions Par;
      Par.NumWorkers = WorkerChoices[Cfg.nextBelow(5)];
      Par.CheckpointPeriod = drawPeriod(Cfg);
      Par.TracePath = sweepTracePath(TraceEnv, Conf, "privatization");
      bool Faults = (Conf & 2) != 0;
      if (Faults) {
        Par.InjectMisspecRate = 0.03;
        Par.InjectSeed = Seed;
        Par.Faults.Seed = Seed;
        Par.Faults.KillRate = 0.01;
      }
      // Every configuration runs on the VM, against the interpreter's
      // sequential reference bytes.
      std::FILE *Out = std::tmpfile();
      transform::ExecutionResult E = transform::executePrivatized(
          *M, FA, R.Assignment, Opt, Par, RuntimeConfig(), Out);
      std::string Got = readAllFile(Out);
      std::fclose(Out);
      if (!TraceEnv && !Par.TracePath.empty())
        std::remove(Par.TracePath.c_str());
      std::string Where = "seed " + std::to_string(Seed) + " conf " +
                          std::to_string(Conf) + " w" +
                          std::to_string(Par.NumWorkers) + " k" +
                          std::to_string(Par.CheckpointPeriod) +
                          (Par.TracePath.empty() ? "" : " traced") +
                          (Faults ? " faults" : "");
      EXPECT_EQ(Got, Expected) << Where;
      EXPECT_EQ(E.ReturnValue.asInt(), RefRet.asInt()) << Where;
      Coverage.note(E.Stats, Faults);
      if (!Faults)
        EXPECT_EQ(E.Stats.Misspecs, 0u)
            << Where << ": " << E.Stats.FirstMisspecReason;
    }
  }
  Coverage.check();
}

// --- Randomized dependence-loop sweep (DOACROSS) ------------------------
//
// Each seed generates a loop that is deliberately NOT DOALL-parallelizable:
// a loop-carried i64 scalar recurrence, an array recurrence a[i] =
// f(a[i - x], i) at a fixed or variable (mask-bounded) distance, or both —
// exactly the dependence shapes the DOACROSS pre-pass must prove and
// rewrite into token forwarding.  The transformed loop then runs on the
// VM across a {workers x period x tracing x faults} matrix,
// byte-compared against plain sequential interpretation of the pristine
// program.  PRIVATEER_RANDOM_SWEEP_SEEDS scales the sweep for nightly CI.

TEST(RandomizedIrSweep, DoacrossPipelineMatchesSequentialAcrossMatrix) {
  unsigned Seeds = 25;
  if (const char *Env = std::getenv("PRIVATEER_RANDOM_SWEEP_SEEDS"))
    Seeds = static_cast<unsigned>(std::max(1, std::atoi(Env)));
  const char *TraceEnv = std::getenv("PRIVATEER_TRACE");
  const unsigned WorkerChoices[] = {2, 3, 4, 6, 8};
  EpochCoverage Coverage;

  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    uint64_t N = 0;
    std::string Text = randomDepLoopProgram(Seed, N);

    std::string Err;
    auto MRef = ir::parseModule(Text, Err);
    ASSERT_NE(MRef, nullptr) << Err << "\n" << Text;
    ASSERT_TRUE(ir::verifyModule(*MRef).empty()) << Text;

    transform::PipelineOptions RefOpt;
    RefOpt.Engine = transform::ExecEngine::Interp;
    std::FILE *RefOut = std::tmpfile();
    interp::Cell RefRet = transform::executeSequential(*MRef, RefOpt, RefOut);
    std::string Expected = readAllFile(RefOut);
    std::fclose(RefOut);

    // Pipeline under Strategy::Doacross; the runtime configuration is
    // swept below.
    auto M = ir::parseModule(Text, Err);
    ASSERT_NE(M, nullptr) << Err;
    analysis::FunctionAnalyses FA(*M);
    transform::PipelineOptions Opt;
    Opt.Strat = Strategy::Doacross;
    std::FILE *TrainSink = std::tmpfile();
    Runtime::get().setSequentialOutput(TrainSink);
    transform::PipelineResult R = transform::runPrivateerPipeline(*M, FA, Opt);
    Runtime::get().setSequentialOutput(nullptr);
    std::fclose(TrainSink);
    ASSERT_TRUE(R.Transformed)
        << "pipeline rejected generated dependence loop:\n"
        << (R.Log.empty() ? "" : R.Log.back()) << "\n" << Text;
    // Every generated loop carries a real dependence: the run below is
    // only a DOACROSS test if tokens were actually installed.
    ASSERT_GE(R.Assignment.DoacrossChannels, 1u) << Text;

    DeterministicRng Cfg(Seed ^ 0xD0ACC05ULL);
    for (unsigned Conf = 0; Conf < 4; ++Conf) {
      ParallelOptions Par;
      Par.NumWorkers = WorkerChoices[Cfg.nextBelow(5)];
      Par.CheckpointPeriod = drawPeriod(Cfg);
      Par.TracePath = sweepTracePath(TraceEnv, Conf, "dependence");
      bool Faults = (Conf & 2) != 0;
      if (Faults) {
        Par.InjectMisspecRate = 0.03;
        Par.InjectSeed = Seed;
        Par.Faults.Seed = Seed;
        Par.Faults.KillRate = 0.01;
      }
      std::FILE *Out = std::tmpfile();
      transform::ExecutionResult E = transform::executePrivatized(
          *M, FA, R.Assignment, Opt, Par, RuntimeConfig(), Out);
      std::string Got = readAllFile(Out);
      std::fclose(Out);
      if (!TraceEnv && !Par.TracePath.empty())
        std::remove(Par.TracePath.c_str());
      std::string Where =
          "seed " + std::to_string(Seed) + " conf " + std::to_string(Conf) +
          " w" + std::to_string(Par.NumWorkers) + " k" +
          std::to_string(Par.CheckpointPeriod) +
          (Par.TracePath.empty() ? "" : " traced") +
          (Faults ? " faults" : "");
      EXPECT_EQ(Got, Expected) << Where;
      EXPECT_EQ(E.ReturnValue.asInt(), RefRet.asInt()) << Where;
      Coverage.note(E.Stats, Faults);
      if (!Faults) {
        EXPECT_EQ(E.Stats.Misspecs, 0u)
            << Where << ": " << E.Stats.FirstMisspecReason;
        EXPECT_GT(E.Stats.DepPosts, 0u) << Where;
      }
    }
  }
  Coverage.check();
}

// --- Randomized commutative-update loop sweep ---------------------------
//
// Each seed generates an irregular loop whose cross-iteration flow
// dependences are all benign commutative read-modify-writes on hashed
// table cells, with recomputed store addresses: reduction updates beyond
// Algorithm 2's pointer-identity shape.  The pipeline must classify the
// tables into the reduction heap, and the parallel run on the VM must be
// byte-identical to sequential interpretation across a {workers x period
// x faults} matrix, with zero misspeculation and nonzero combined copies
// in the fault-free configurations.

TEST(RandomizedIrSweep, CommutativeLoopsMatchSequentialAcrossMatrix) {
  unsigned Seeds = 25;
  if (const char *Env = std::getenv("PRIVATEER_RANDOM_SWEEP_SEEDS"))
    Seeds = static_cast<unsigned>(std::max(1, std::atoi(Env)));
  const char *TraceEnv = std::getenv("PRIVATEER_TRACE");
  const unsigned WorkerChoices[] = {2, 3, 4, 6, 8};
  EpochCoverage Coverage;

  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    uint64_t N = 0;
    std::string Text = randomComLoopProgram(Seed, N);

    std::string Err;
    auto MRef = ir::parseModule(Text, Err);
    ASSERT_NE(MRef, nullptr) << Err << "\n" << Text;
    ASSERT_TRUE(ir::verifyModule(*MRef).empty()) << Text;

    transform::PipelineOptions RefOpt;
    RefOpt.Engine = transform::ExecEngine::Interp;
    std::FILE *RefOut = std::tmpfile();
    interp::Cell RefRet = transform::executeSequential(*MRef, RefOpt, RefOut);
    std::string Expected = readAllFile(RefOut);
    std::fclose(RefOut);

    auto M = ir::parseModule(Text, Err);
    ASSERT_NE(M, nullptr) << Err;
    analysis::FunctionAnalyses FA(*M);
    transform::PipelineOptions Opt;
    std::FILE *TrainSink = std::tmpfile();
    Runtime::get().setSequentialOutput(TrainSink);
    transform::PipelineResult R = transform::runPrivateerPipeline(*M, FA, Opt);
    Runtime::get().setSequentialOutput(nullptr);
    std::fclose(TrainSink);
    ASSERT_TRUE(R.Transformed)
        << "pipeline rejected generated commutative loop:\n"
        << (R.Log.empty() ? "" : R.Log.back()) << "\n" << Text;

    DeterministicRng Cfg(Seed ^ 0xC0771ULL);
    for (unsigned Conf = 0; Conf < 4; ++Conf) {
      ParallelOptions Par;
      Par.NumWorkers = WorkerChoices[Cfg.nextBelow(5)];
      Par.CheckpointPeriod = drawPeriod(Cfg);
      Par.TracePath = sweepTracePath(TraceEnv, Conf, "commutative");
      bool Faults = (Conf & 2) != 0;
      if (Faults) {
        Par.InjectMisspecRate = 0.03;
        Par.InjectSeed = Seed;
        Par.Faults.Seed = Seed;
        Par.Faults.KillRate = 0.01;
      }
      std::FILE *Out = std::tmpfile();
      transform::ExecutionResult E = transform::executePrivatized(
          *M, FA, R.Assignment, Opt, Par, RuntimeConfig(), Out);
      std::string Got = readAllFile(Out);
      std::fclose(Out);
      if (!TraceEnv && !Par.TracePath.empty())
        std::remove(Par.TracePath.c_str());
      std::string Where = "seed " + std::to_string(Seed) + " conf " +
                          std::to_string(Conf) + " w" +
                          std::to_string(Par.NumWorkers) + " k" +
                          std::to_string(Par.CheckpointPeriod) +
                          (Par.TracePath.empty() ? "" : " traced") +
                          (Faults ? " faults" : "");
      EXPECT_EQ(Got, Expected) << Where;
      EXPECT_EQ(E.ReturnValue.asInt(), RefRet.asInt()) << Where;
      Coverage.note(E.Stats, Faults);
      if (!Faults) {
        EXPECT_EQ(E.Stats.Misspecs, 0u)
            << Where << ": " << E.Stats.FirstMisspecReason;
        EXPECT_GT(E.Stats.ComRecordsCommitted, 0u) << Where;
      }
    }
  }
  Coverage.check();
}

// The bytecode VM is the training run's default event source and the
// interpreter its oracle: for every generator and seed, the profile the VM
// feeds the collector must serialize, after address normalization, to the
// interpreter's bytes, with equal instruction and event counts.
TEST(RandomizedIrSweep, VmTrainingProfilesMatchInterpreter) {
  unsigned Seeds = 25;
  if (const char *Env = std::getenv("PRIVATEER_RANDOM_SWEEP_SEEDS"))
    Seeds = static_cast<unsigned>(std::max(1, std::atoi(Env)));
  using Generator = std::string (*)(uint64_t, uint64_t &);
  const std::pair<const char *, Generator> Generators[] = {
      {"privatization", randomIrProgram},
      {"dependence", randomDepLoopProgram},
      {"commutative", randomComLoopProgram}};
  const uint64_t Budget = transform::PipelineOptions().ProfileBudget;

  for (const auto &[Name, Gen] : Generators)
    for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
      SCOPED_TRACE(std::string(Name) + " seed " + std::to_string(Seed));
      uint64_t N = 0;
      std::string Text = Gen(Seed, N);
      std::string Err;
      auto M = ir::parseModule(Text, Err);
      ASSERT_NE(M, nullptr) << Err;
      analysis::FunctionAnalyses FA(*M);
      profiling::TrainingRun Ref = profiling::runTrainingProfile(
          *M, FA, "main", {}, Budget, ExecEngine::Interp);
      profiling::TrainingRun Vm = profiling::runTrainingProfile(
          *M, FA, "main", {}, Budget, ExecEngine::Bytecode);
      ASSERT_EQ(Ref.Trap, "");
      ASSERT_EQ(Vm.Trap, "");
      EXPECT_EQ(Vm.Instructions, Ref.Instructions);
      EXPECT_EQ(Vm.Loads, Ref.Loads);
      EXPECT_EQ(Vm.Stores, Ref.Stores);
      EXPECT_EQ(Vm.Allocs, Ref.Allocs);
      EXPECT_EQ(profiling::normalizedProfile(Vm.Prof, *M),
                profiling::normalizedProfile(Ref.Prof, *M))
          << Text;
    }
}

TEST(ParallelEdgeCases, ManyEpochsWhenLoopExceedsSlotBudget) {
  Runtime &Rt = Runtime::get();
  Rt.initialize();
  auto *Acc = static_cast<int64_t *>(h_alloc(sizeof(int64_t), HeapKind::Redux));
  *Acc = 0;
  Rt.registerReduction(Acc, sizeof(int64_t), ReduxElem::I64, ReduxOp::Add);
  ParallelOptions Opt;
  Opt.NumWorkers = 3;
  Opt.CheckpointPeriod = 1; // MaxSlotsPerEpoch iterations per epoch.
  constexpr int64_t N = 6 * ParallelOptions::MaxSlotsPerEpoch + 2;
  InvocationStats S =
      Rt.runParallel(N, Opt, [&](uint64_t I) { *Acc += (int64_t)I; });
  EXPECT_EQ(S.Misspecs, 0u);
  EXPECT_GE(S.Epochs, 6u);
  EXPECT_EQ(*Acc, N * (N - 1) / 2);
  Rt.reductions().clear();
  Rt.shutdown();
}

} // namespace
