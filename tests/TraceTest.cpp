//===- tests/TraceTest.cpp - Runtime tracing tests ------------------------===//
//
// Unit tests for the SPSC trace ring (overflow accounting, wraparound,
// no-tearing under a concurrent producer), the reason codes given to the
// misspeculation texts workers and the main process raise, and an
// end-to-end smoke test that traces a speculative parallel run of the
// reduction workload and checks the emitted Chrome-trace JSON is loadable
// and contains the kinds of events a timeline is useless without.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "runtime/Privateer.h"
#include "support/Statistics.h"
#include "transform/Pipeline.h"
#include "workloads/IrPrograms.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>

using namespace privateer;

namespace {

// Self-consistent payload so a consumer can detect a torn record: every
// field is a fixed function of the sequence number.
trace::Event sealedEvent(uint64_t Seq) {
  return trace::makeEvent(trace::Kind::Heartbeat, 3, /*TimeNs=*/Seq,
                          /*A=*/Seq * 0x9E3779B97F4A7C15ULL,
                          /*B=*/Seq ^ 0xDEADBEEFCAFEF00DULL,
                          /*Arg=*/static_cast<uint32_t>(Seq * 2654435761u));
}

::testing::AssertionResult eventIsSealed(const trace::Event &E) {
  uint64_t Seq = E.TimeNs;
  if (E.A != Seq * 0x9E3779B97F4A7C15ULL)
    return ::testing::AssertionFailure() << "torn A at seq " << Seq;
  if (E.B != (Seq ^ 0xDEADBEEFCAFEF00DULL))
    return ::testing::AssertionFailure() << "torn B at seq " << Seq;
  if (E.Arg != static_cast<uint32_t>(Seq * 2654435761u))
    return ::testing::AssertionFailure() << "torn Arg at seq " << Seq;
  if (E.KindCode != static_cast<uint16_t>(trace::Kind::Heartbeat) ||
      E.Worker != 3)
    return ::testing::AssertionFailure() << "torn kind/worker at seq " << Seq;
  return ::testing::AssertionSuccess();
}

TEST(TraceReason, EveryTextReasonFilesUnderItsCode) {
  // Every literal reason the runtime raises as text (Runtime.cpp,
  // ParallelInvocation.cpp, VM.cpp), with the code the timeline shows.
  using R = trace::Reason;
  const std::pair<const char *, R> Table[] = {
      {"separation check failed: pointer outside assumed heap",
       R::SeparationCheck},
      {"private_read of a pointer outside the private heap",
       R::SeparationCheck},
      {"private_write of a pointer outside the private heap",
       R::SeparationCheck},
      {"privacy violation: read of a value written in an earlier iteration",
       R::PrivacyBounds},
      {"privacy violation: overwrite of a byte previously read as live-in "
       "(conservative)",
       R::PrivacyBounds},
      {"fault: store to a protected heap", R::ProtectedStore},
      {"dep channel beyond the invocation's ring region", R::Generic},
      {"dependence producer misspeculated", R::Generic},
      {"dependence wait timed out", R::Generic},
      {"worker 2 stalled; killed by watchdog (status 0x9)", R::Watchdog},
      {"worker 1 terminated abnormally (status 0x9)", R::WorkerLost},
      {"copy-on-write remap failed in worker", R::Generic},
      {"short-lived object outlived its iteration", R::ShortLivedEscape},
      {"injected misspeculation", R::Injected},
      {"value prediction failed", R::Generic},
  };
  for (const auto &[Why, Code] : Table)
    EXPECT_EQ(trace::reasonName(trace::reasonCode(Why)),
              std::string(trace::reasonName(Code)))
        << Why;
  EXPECT_EQ(trace::reasonCode(nullptr), R::Generic);
  for (uint32_t C = 0; C < static_cast<uint32_t>(R::kNumReasons); ++C)
    EXPECT_STRNE(trace::reasonName(static_cast<R>(C)), "unknown") << C;
}

TEST(TraceRing, OverflowCountsDropsWithoutCorruptingEarlierEvents) {
  auto R = std::make_unique<trace::Ring>(); // 64 KiB: keep off the stack.
  // Fill to capacity: every push lands.
  for (uint64_t I = 0; I < trace::kRingCapacity; ++I)
    ASSERT_TRUE(R->push(sealedEvent(I))) << I;
  EXPECT_EQ(R->size(), trace::kRingCapacity);
  EXPECT_EQ(R->dropped(), 0u);

  // 100 more: all dropped, counted, and the resident events untouched.
  for (uint64_t I = 0; I < 100; ++I)
    EXPECT_FALSE(R->push(sealedEvent(trace::kRingCapacity + I)));
  EXPECT_EQ(R->dropped(), 100u);
  EXPECT_EQ(R->size(), trace::kRingCapacity);

  uint64_t Next = 0;
  uint32_t Seen = R->drain([&](const trace::Event &E) {
    EXPECT_TRUE(eventIsSealed(E));
    EXPECT_EQ(E.TimeNs, Next) << "order violated or overflow overwrote";
    ++Next;
  });
  EXPECT_EQ(Seen, trace::kRingCapacity);
  EXPECT_EQ(R->size(), 0u);
  // The drop counter is cumulative; draining does not reset it.
  EXPECT_EQ(R->dropped(), 100u);
}

TEST(TraceRing, TakeDroppedReportsEachDropOnce) {
  // A ring reused across epochs reports its drops per epoch: the second
  // epoch must not count the first epoch's drops again.
  auto R = std::make_unique<trace::Ring>();
  for (uint64_t I = 0; I < trace::kRingCapacity + 5; ++I)
    R->push(sealedEvent(I));
  R->drain([](const trace::Event &) {});
  EXPECT_EQ(R->takeDropped(), 5u);
  EXPECT_EQ(R->takeDropped(), 0u);
  for (uint64_t I = 0; I < 10; ++I)
    ASSERT_TRUE(R->push(sealedEvent(I)));
  EXPECT_EQ(R->takeDropped(), 0u);
  EXPECT_EQ(R->size(), 10u);
}

TEST(TraceRing, WrapAroundPreservesOrderAcrossManyCycles) {
  auto R = std::make_unique<trace::Ring>();
  uint64_t Pushed = 0, Expect = 0;
  // Push/drain in ragged batches for several multiples of the capacity so
  // the cursors wrap the index mask repeatedly.
  for (int Round = 0; Round < 23; ++Round) {
    uint64_t Batch = 1 + (100 + 997 * Round) % trace::kRingCapacity;
    for (uint64_t I = 0; I < Batch; ++I)
      ASSERT_TRUE(R->push(sealedEvent(Pushed++)));
    R->drain([&](const trace::Event &E) {
      ASSERT_TRUE(eventIsSealed(E));
      ASSERT_EQ(E.TimeNs, Expect);
      ++Expect;
    });
  }
  EXPECT_EQ(Expect, Pushed);
  EXPECT_EQ(R->dropped(), 0u);
}

TEST(TraceRing, ConcurrentProducerNeverTearsARecord) {
  // In production the producer is a forked process and the ring lives in
  // MAP_SHARED memory; a thread exercises the same acquire/release
  // protocol through genuinely concurrent memory accesses.
  auto R = std::make_unique<trace::Ring>();
  constexpr uint64_t kTotal = 200000;
  std::atomic<bool> Done{false};

  std::thread Producer([&] {
    for (uint64_t I = 0; I < kTotal; ++I)
      R->push(sealedEvent(I)); // Overflow drops are fine; tearing is not.
    Done.store(true, std::memory_order_release);
  });

  uint64_t Consumed = 0;
  uint64_t LastSeq = 0;
  bool First = true;
  auto Visit = [&](const trace::Event &E) {
    ASSERT_TRUE(eventIsSealed(E));
    if (!First)
      ASSERT_GT(E.TimeNs, LastSeq) << "sequence must strictly increase";
    First = false;
    LastSeq = E.TimeNs;
    ++Consumed;
  };
  while (!Done.load(std::memory_order_acquire))
    R->drain(Visit);
  R->drain(Visit); // Final sweep after the producer finished.

  Producer.join();
  EXPECT_EQ(Consumed + R->dropped(), kTotal);
  EXPECT_GT(Consumed, 0u);
}

// --- Collector + end-to-end traced run ----------------------------------

std::string readWholeFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Ss;
  Ss << In.rdbuf();
  return Ss.str();
}

std::string readAll(std::FILE *F) {
  std::string Out;
  std::rewind(F);
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  return Out;
}

bool haveCommand(const char *Probe) {
  int Rc = std::system(Probe);
  return Rc != -1 && WIFEXITED(Rc) && WEXITSTATUS(Rc) == 0;
}

TEST(TraceCollector, FlushWritesValidJsonWithSpansAndInstants) {
  trace::Collector &Tc = trace::Collector::instance();
  std::string Path = ::testing::TempDir() + "privateer-collector-unit.json";
  Tc.enable(Path);
  Tc.reset();

  // One span, one instant, one note needing JSON escaping.
  Tc.record(trace::Kind::Epoch, 0, 2000, /*A=start*/ 1000, 7, 2);
  Tc.record(trace::Kind::Misspec, 2, 1500, 42, 1,
            (uint32_t)trace::Reason::Injected, "quote \" slash \\ tab \t");
  EXPECT_EQ(Tc.eventCount(), 2u);

  std::string Err;
  ASSERT_TRUE(Tc.flush(Err)) << Err;
  Tc.enable(std::string()); // Disarm before other tests run.

  std::string Json = readWholeFile(Path);
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"epoch\""), std::string::npos);
  EXPECT_NE(Json.find("\"misspec\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos); // Epoch span.
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos); // Misspec instant.
  EXPECT_NE(Json.find("injected"), std::string::npos);     // Reason name.
  EXPECT_NE(Json.find("\\\""), std::string::npos);         // Escaped quote.
  EXPECT_NE(Json.find("\\t"), std::string::npos);          // Escaped tab.

  if (haveCommand("python3 -c '' > /dev/null 2>&1")) {
    std::string Cmd = "python3 -m json.tool < " + Path + " > /dev/null";
    int Rc = std::system(Cmd.c_str());
    EXPECT_TRUE(WIFEXITED(Rc) && WEXITSTATUS(Rc) == 0)
        << "python3 -m json.tool rejected " << Path;
  }
  std::remove(Path.c_str());
}

TEST(TraceSmoke, TracedParallelRunEmitsLoadableTimeline) {
  // Trace a speculative run of the reduction workload — long enough to
  // produce checkpoints and commits — with deterministic misspeculation
  // injection so the timeline has every load-bearing event kind.
  std::string TracePath = ::testing::TempDir() + "privateer-trace-smoke.json";
  std::remove(TracePath.c_str());

  std::string Text = reductionSumIrText(1000);
  std::string Err;

  // Reference output from plain sequential interpretation.
  std::string Expected;
  {
    auto M = ir::parseModule(Text, Err);
    ASSERT_NE(M, nullptr) << Err;
    std::FILE *Out = std::tmpfile();
    transform::executeSequential(*M, transform::PipelineOptions(), Out);
    Expected = readAll(Out);
    std::fclose(Out);
  }

  auto M = ir::parseModule(Text, Err);
  ASSERT_NE(M, nullptr) << Err;
  ASSERT_TRUE(ir::verifyModule(*M).empty());
  analysis::FunctionAnalyses FA(*M);
  transform::PipelineOptions Opt;
  std::FILE *TrainSink = std::tmpfile();
  Runtime::get().setSequentialOutput(TrainSink);
  transform::PipelineResult R = transform::runPrivateerPipeline(*M, FA, Opt);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(TrainSink);
  ASSERT_TRUE(R.Transformed) << (R.Log.empty() ? "" : R.Log.back());

  ParallelOptions Par;
  Par.NumWorkers = 4;
  Par.CheckpointPeriod = 16;
  Par.InjectMisspecRate = 0.01;
  Par.InjectSeed = 7;
  Par.TracePath = TracePath;

  std::FILE *Out = std::tmpfile();
  transform::ExecutionResult E = transform::executePrivatized(
      *M, FA, R.Assignment, Opt, Par, RuntimeConfig(), Out);
  std::string Got = readAll(Out);
  std::fclose(Out);

  // Tracing must not perturb results.
  EXPECT_EQ(Got, Expected);
  ASSERT_GT(E.Stats.Misspecs, 0u)
      << "injection produced no misspec; the timeline check below would "
         "be vacuous";
  ASSERT_GT(E.Stats.Checkpoints, 0u);

  std::string Json = readWholeFile(TracePath);
  ASSERT_FALSE(Json.empty()) << "trace file missing: " << TracePath;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"displayTimeUnit\""), std::string::npos);
  // The timeline is useless without these; assert each kind appears.
  EXPECT_NE(Json.find("\"epoch\""), std::string::npos);
  EXPECT_NE(Json.find("\"slot_merge\""), std::string::npos);
  EXPECT_NE(Json.find("\"commit_"), std::string::npos);
  EXPECT_NE(Json.find("\"misspec\""), std::string::npos);
  EXPECT_NE(Json.find("\"worker_fork\""), std::string::npos);
  EXPECT_NE(Json.find("\"invocation\""), std::string::npos);
  // Process-name metadata rows for the main process and worker 0.
  EXPECT_NE(Json.find("main (commit pump)"), std::string::npos);
  EXPECT_NE(Json.find("worker 0"), std::string::npos);

  // Aggregate counts mirrored into the statistic registry.
  StatisticRegistry &Sr = StatisticRegistry::instance();
  EXPECT_GT(Sr.counter("trace", "epoch"), 0u);
  EXPECT_GT(Sr.counter("trace", "slot_merge"), 0u);
  EXPECT_GT(Sr.counter("trace", "misspec"), 0u);

  if (haveCommand("python3 -c '' > /dev/null 2>&1")) {
    std::string Cmd = "python3 -m json.tool < " + TracePath + " > /dev/null";
    int Rc = std::system(Cmd.c_str());
    EXPECT_TRUE(WIFEXITED(Rc) && WEXITSTATUS(Rc) == 0)
        << "python3 -m json.tool rejected " << TracePath;
  }

  trace::Collector::instance().enable(std::string()); // Disarm.
  std::remove(TracePath.c_str());
}

TEST(TraceSmoke, MultiEpochRunRecordsEveryWorkerInEveryEpoch) {
  // The rings live for the whole invocation and are reused by every
  // epoch: each epoch's workers must still land their worker_begin, and
  // the drop count must not grow by re-reporting earlier epochs.
  std::string TracePath =
      ::testing::TempDir() + "privateer-trace-multi-epoch.json";
  std::remove(TracePath.c_str());
  RuntimeConfig C;
  C.PrivateBytes = 1u << 20;
  C.ReadOnlyBytes = 1u << 16;
  C.ReduxBytes = 1u << 16;
  C.ShortLivedBytes = 1u << 16;
  C.UnrestrictedBytes = 1u << 16;
  Runtime::get().initialize(C);

  constexpr unsigned W = 3;
  constexpr uint64_t Period = 1;
  constexpr uint64_t EpochLen = ParallelOptions::MaxSlotsPerEpoch * Period;
  constexpr uint64_t N = 6 * EpochLen;
  auto *Out =
      static_cast<long *>(h_alloc(N * sizeof(long), HeapKind::Private));
  ParallelOptions Par;
  Par.NumWorkers = W;
  Par.CheckpointPeriod = Period;
  Par.TracePath = TracePath;
  StatisticRegistry &Sr = StatisticRegistry::instance();
  uint64_t Dropped0 = Sr.counter("trace", "dropped");
  InvocationStats S = Runtime::get().runParallel(N, Par, [Out](uint64_t I) {
    private_write(&Out[I], sizeof(long));
    Out[I] = static_cast<long>(I);
  });
  ASSERT_EQ(S.Misspecs, 0u) << S.FirstMisspecReason;
  ASSERT_EQ(S.Epochs, N / EpochLen);

  std::string Json = readWholeFile(TracePath);
  ASSERT_FALSE(Json.empty()) << "trace file missing: " << TracePath;
  for (unsigned Wk = 0; Wk < W; ++Wk) {
    std::string Key = "\"pid\":" + std::to_string(1 + Wk) +
                      ",\"tid\":0,\"s\":\"p\",\"name\":\"worker_begin\"";
    size_t Count = 0;
    for (size_t At = Json.find(Key); At != std::string::npos;
         At = Json.find(Key, At + 1))
      ++Count;
    EXPECT_EQ(Count, S.Epochs) << "worker " << Wk;
  }
  uint64_t Dropped = Sr.counter("trace", "dropped") - Dropped0;
  EXPECT_EQ(Dropped, trace::Collector::instance().droppedTotal());
  EXPECT_NE(Json.find("\"dropped_events\":" + std::to_string(Dropped)),
            std::string::npos);

  trace::Collector::instance().enable(std::string()); // Disarm.
  Runtime::get().shutdown();
  std::remove(TracePath.c_str());
}

TEST(TraceSmoke, UntracedRunRecordsNoTimeline) {
  trace::Collector &Tc = trace::Collector::instance();
  Tc.enable(std::string());
  Tc.reset();
  std::string Text = reductionSumIrText(200);
  std::string Err;
  auto M = ir::parseModule(Text, Err);
  ASSERT_NE(M, nullptr) << Err;
  analysis::FunctionAnalyses FA(*M);
  transform::PipelineOptions Opt;
  std::FILE *TrainSink = std::tmpfile();
  Runtime::get().setSequentialOutput(TrainSink);
  transform::PipelineResult R = transform::runPrivateerPipeline(*M, FA, Opt);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(TrainSink);
  ASSERT_TRUE(R.Transformed);

  ParallelOptions Par;
  Par.NumWorkers = 2;
  Par.CheckpointPeriod = 16; // TracePath left empty: tracing fully off.
  std::FILE *Out = std::tmpfile();
  transform::executePrivatized(*M, FA, R.Assignment, Opt, Par,
                               RuntimeConfig(), Out);
  std::fclose(Out);

  EXPECT_FALSE(Tc.enabled());
  EXPECT_EQ(Tc.eventCount(), 0u);
}

TEST(TraceSmoke, DoacrossRunEmitsDepPostEvents) {
  // A traced DOACROSS run must land dep_post instants on the timeline, so
  // token hand-offs between worker rows are visible.
  std::string TracePath =
      ::testing::TempDir() + "privateer-trace-doacross.json";
  std::remove(TracePath.c_str());

  RuntimeConfig C;
  C.PrivateBytes = 1u << 20;
  C.ReadOnlyBytes = 1u << 16;
  C.ReduxBytes = 1u << 16;
  C.ShortLivedBytes = 1u << 16;
  C.UnrestrictedBytes = 1u << 16;
  Runtime &Rt = Runtime::get();
  Rt.initialize(C);

  // A distance-1 chain: Out[I] = Out[I-1] * 5 + I + 3, forwarded as a
  // token on channel 0.
  constexpr uint64_t N = 128;
  auto *Out =
      static_cast<long *>(h_alloc(N * sizeof(long), HeapKind::Private));
  ParallelOptions Par;
  Par.NumWorkers = 3;
  Par.CheckpointPeriod = 8;
  Par.NumDepChannels = 1;
  Par.TracePath = TracePath;
  Rt.setDepFloor(0);
  InvocationStats S = Rt.runParallel(N, Par, [&Rt, Out](uint64_t I) {
    uint64_t V = Rt.waitDep(I - 1, 0) * 5 + I + 3;
    Rt.postDep(I, 0, V);
    private_write(&Out[I], sizeof(long));
    Out[I] = static_cast<long>(V);
  });
  EXPECT_EQ(S.Misspecs, 0u) << S.FirstMisspecReason;
  uint64_t V = 0;
  for (uint64_t I = 0; I < N; ++I) {
    V = V * 5 + I + 3;
    ASSERT_EQ(Out[I], static_cast<long>(V)) << "iteration " << I;
  }

  std::string Json = readWholeFile(TracePath);
  ASSERT_FALSE(Json.empty()) << "trace file missing: " << TracePath;
  EXPECT_NE(Json.find("\"dep_post\""), std::string::npos);
  StatisticRegistry &Sr = StatisticRegistry::instance();
  EXPECT_GT(Sr.counter("trace", "dep_post"), 0u);

  trace::Collector::instance().enable(std::string()); // Disarm.
  Runtime::get().shutdown();
  std::remove(TracePath.c_str());
}

} // namespace
