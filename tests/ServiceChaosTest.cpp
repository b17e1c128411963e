//===- tests/ServiceChaosTest.cpp - Service-layer chaos harness -----------===//
//
// PR 1 taught the runtime to absorb worker-level faults; this suite
// extends the same discipline to the service tier.  Every scenario
// injects a failure the daemon must absorb — executive death across the
// signal matrix, allocation failure (simulated and real), CPU-budget
// exhaustion, a daemon SIGKILL with a client mid-flight, slow readers,
// byte-dribbled frames — and then proves the invariants the resilience
// layer promises: the daemon never crashes, every submitted job is
// answered with a typed reply, the worker budget is fully released, and
// retried jobs produce output byte-identical to sequential execution.
//
//===----------------------------------------------------------------------===//

#include "ServiceTestUtil.h"
#include "ir/IRParser.h"
#include "runtime/HeapKind.h" // PRIVATEER_ASAN
#include "service/Client.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "transform/Pipeline.h"
#include "workloads/IrPrograms.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace privateer;
using namespace privateer::service;
using namespace privateer::servicetest;

namespace {

/// Ground truth for byte-identical checks: plain sequential
/// interpretation in this process.
std::string sequentialOutput(const std::string &Text) {
  std::string Err;
  auto M = ir::parseModule(Text, Err);
  if (!M) {
    ADD_FAILURE() << "parse: " << Err;
    return "";
  }
  char *Buf = nullptr;
  size_t Len = 0;
  std::FILE *Out = open_memstream(&Buf, &Len);
  transform::executeSequential(*M, transform::PipelineOptions(), Out);
  std::fclose(Out);
  std::string S(Buf, Len);
  std::free(Buf);
  return S;
}

JobRequest quickJob(uint64_t N = 1000) {
  JobRequest Req;
  Req.ModuleText = reductionSumIrText(N);
  Req.NumWorkers = 2;
  return Req;
}

/// A sequential program printing one line per iteration — enough output
/// to overflow a shrunken socket buffer for the slow-reader scenarios.
std::string chattyIrText(uint64_t Lines) {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "define i64 @main() {\n"
                "entry:\n"
                "  br loop\n"
                "loop:\n"
                "  %%i = phi [entry: 0], [latch: %%inext]\n"
                "  %%c = icmp lt, %%i, %llu\n"
                "  condbr %%c, body, exit\n"
                "body:\n"
                "  print \"line %%d\\n\", %%i\n"
                "  br latch\n"
                "latch:\n"
                "  %%inext = add %%i, 1\n"
                "  br loop\n"
                "exit:\n"
                "  %%z = add %%i, 0\n"
                "  ret %%z\n"
                "}\n",
                static_cast<unsigned long long>(Lines));
  return Buf;
}

int rawConnect(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

std::string frameBytes(MsgType Type, const std::string &Body) {
  std::string Frame;
  uint32_t Len = static_cast<uint32_t>(1 + Body.size());
  for (int I = 0; I < 4; ++I)
    Frame.push_back(static_cast<char>((Len >> (8 * I)) & 0xff));
  Frame.push_back(static_cast<char>(Type));
  Frame.append(Body);
  return Frame;
}

/// A limited job runs in a disposable child of its executive, which dies
/// the way the child died, so the scenarios below run once on the
/// executives themselves and once with every job limited; the typed
/// replies must be identical.  The counters prove where the jobs ran, and
/// that the pool replaced exactly the executives the scenario killed.
JobRequest limitedIf(bool Limited, JobRequest Req) {
  if (Limited)
    Req.MaxOpenFiles = 256;
  return Req;
}

void expectProcessKind(const std::string &Json, bool Limited,
                       long long Respawns) {
  EXPECT_GT(jsonInt(Json, "pool_dispatches"), 0) << Json;
  EXPECT_EQ(jsonInt(Json, "supervisor_forks"),
            Limited ? jsonInt(Json, "pool_dispatches") : 0)
      << Json;
  EXPECT_EQ(jsonInt(Json, "executives_respawned"), Respawns) << Json;
}

// --- Executive-death signal matrix ---------------------------------------
//
// SIGSEGV / SIGBUS / SIGABRT / SIGKILL / exit(N) must each yield the
// correct typed failure cause, free the worker budget, and leave the
// daemon serving the same connection.

void signalMatrix(bool Limited) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  struct Scenario {
    const char *Name;
    uint32_t Signal;       // 0: use Exit instead
    uint32_t Exit;         // kNoFaultExit: use Signal
    FailureCause Cause;
  };
  const Scenario Matrix[] = {
      {"SIGSEGV", SIGSEGV, kNoFaultExit, FailureCause::Signal},
      {"SIGBUS", SIGBUS, kNoFaultExit, FailureCause::Signal},
      {"SIGABRT", SIGABRT, kNoFaultExit, FailureCause::Signal},
      {"SIGKILL", SIGKILL, kNoFaultExit, FailureCause::Signal},
      {"exit(7)", 0, 7, FailureCause::NonzeroExit},
  };

  int Idx = 0;
  for (const Scenario &S : Matrix) {
    SCOPED_TRACE(S.Name);
    // Distinct module text per scenario: deterministic crash signals
    // poison the cached program, and cross-talk would mask the matrix.
    JobRequest Req =
        limitedIf(Limited, quickJob(2000 + static_cast<uint64_t>(Idx++)));
    Req.FaultSupervisorSignal = S.Signal;
    Req.FaultSupervisorExit = S.Exit;
    JobReply R;
    ASSERT_TRUE(C.submit(Req, R, Err, 60 * timeoutScale())) << Err;
    EXPECT_EQ(R.Status, JobStatus::Crashed) << R.Error;
    EXPECT_EQ(R.Cause, S.Cause) << R.Error;
    if (S.Signal != 0)
      EXPECT_EQ(R.TermSignal, S.Signal) << R.Error;
    else
      EXPECT_EQ(R.SupExitCode, S.Exit) << R.Error;

    // The same connection keeps working after every crash.
    JobReply Ok;
    ASSERT_TRUE(C.submit(limitedIf(Limited, quickJob()), Ok, Err,
                         60 * timeoutScale()))
        << Err;
    EXPECT_EQ(Ok.Status, JobStatus::Ok) << Ok.Error;
  }

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "jobs_crashed"), 5);
  EXPECT_EQ(jsonInt(Json, "workers_in_use"), 0) << "budget leaked";
  EXPECT_EQ(jsonInt(Json, "retries"), 0) << "program-class failures retried";
  expectProcessKind(Json, Limited, 5);
  ASSERT_TRUE(D.alive());
}

TEST(ServiceChaos, SupervisorSignalMatrix) { signalMatrix(false); }
TEST(ServiceChaos, SupervisorSignalMatrixLimited) { signalMatrix(true); }

// A deterministic program-class crash poisons the cached program: the
// same text answers from the negative verdict instead of crashing a
// second executive.  External SIGKILL must NOT poison.
TEST(ServiceChaos, NegativeVerdictForCrashingProgram) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  JobRequest Seg = quickJob(3000);
  Seg.FaultSupervisorSignal = SIGSEGV;
  JobReply R1;
  ASSERT_TRUE(C.submit(Seg, R1, Err, 60 * timeoutScale())) << Err;
  EXPECT_EQ(R1.Status, JobStatus::Crashed);
  EXPECT_EQ(R1.Cause, FailureCause::Signal);

  // Same text, no fault knobs: answered from the cache, no new crash.
  JobReply R2;
  ASSERT_TRUE(C.submit(quickJob(3000), R2, Err, 60 * timeoutScale())) << Err;
  EXPECT_EQ(R2.Status, JobStatus::Crashed);
  EXPECT_EQ(R2.Cause, FailureCause::Signal);
  EXPECT_TRUE(R2.CacheHit);
  EXPECT_NE(R2.Error.find("negative verdict"), std::string::npos) << R2.Error;

  // SIGKILL is external, not a property of the program: resubmitting the
  // killed text runs fine.
  JobRequest Kill = quickJob(3001);
  Kill.FaultKillSupervisor = true;
  JobReply R3;
  ASSERT_TRUE(C.submit(Kill, R3, Err, 60 * timeoutScale())) << Err;
  EXPECT_EQ(R3.Status, JobStatus::Crashed);
  JobReply R4;
  ASSERT_TRUE(C.submit(quickJob(3001), R4, Err, 60 * timeoutScale())) << Err;
  EXPECT_EQ(R4.Status, JobStatus::Ok) << R4.Error;

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "jobs_crashed"), 2);
  EXPECT_EQ(jsonInt(Json, "negative_verdicts"), 1);
  ASSERT_TRUE(D.alive());
}

// --- In-daemon infra retry ladder ----------------------------------------

// Two injected OOM attempts: the daemon retries with halved workers, then
// sequential, and the third attempt's output is byte-identical to plain
// sequential execution.
void oomRetryLadder(bool Limited) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  const std::string Text = reductionSumIrText(5000);
  const std::string Expected = sequentialOutput(Text);

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  JobRequest Req;
  Req.ModuleText = Text;
  Req.NumWorkers = 4;
  Req.FaultOomAttempts = 2;
  Req = limitedIf(Limited, Req);
  JobReply R;
  ASSERT_TRUE(C.submit(Req, R, Err, 120 * timeoutScale())) << Err;
  EXPECT_EQ(R.Status, JobStatus::Ok) << R.Error;
  EXPECT_EQ(R.Attempts, 3u);
  EXPECT_EQ(R.Output, Expected) << "retried job diverged from sequential";

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "retries"), 2);
  EXPECT_EQ(jsonInt(Json, "retry_success"), 1);
  EXPECT_EQ(jsonInt(Json, "jobs_completed"), 1);
  EXPECT_EQ(jsonInt(Json, "workers_in_use"), 0);
  expectProcessKind(Json, Limited, 0);
  ASSERT_TRUE(D.alive());
}

TEST(ServiceChaos, OomRetryLadderRecovers) { oomRetryLadder(false); }
TEST(ServiceChaos, OomRetryLadderRecoversLimited) { oomRetryLadder(true); }

// When every attempt hits the failure, the retry budget runs out and the
// client gets the typed final verdict.
TEST(ServiceChaos, OomRetriesExhaustedYieldTypedFailure) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  JobRequest Req = quickJob(4000);
  Req.NumWorkers = 4;
  Req.FaultOomAttempts = 99; // every attempt fails
  JobReply R;
  ASSERT_TRUE(C.submit(Req, R, Err, 120 * timeoutScale())) << Err;
  EXPECT_EQ(R.Status, JobStatus::ResourceLimit) << R.Error;
  EXPECT_EQ(R.Cause, FailureCause::OutOfMemory);
  EXPECT_EQ(R.Attempts, 3u); // initial + MaxRetries

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "retries"), 2);
  EXPECT_EQ(jsonInt(Json, "retry_success"), 0);
  EXPECT_EQ(jsonInt(Json, "jobs_resource_limit"), 1);
  EXPECT_EQ(jsonInt(Json, "workers_in_use"), 0);
  ASSERT_TRUE(D.alive());
}

// A real allocation bomb: the executive's failed allocation becomes a
// typed OutOfMemory verdict, never a daemon casualty.
void allocationBomb(bool Limited) {
#if PRIVATEER_ASAN
  const char *AsanOpts = ::getenv("ASAN_OPTIONS");
  if (!AsanOpts ||
      std::string(AsanOpts).find("allocator_may_return_null=1") ==
          std::string::npos)
    GTEST_SKIP() << "ASan aborts huge allocations unless "
                    "allocator_may_return_null=1";
#endif
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  JobRequest Req = limitedIf(Limited, quickJob(4100));
  Req.FaultAllocBytes = 1ULL << 62; // 4 EiB: beyond any VA layout
  JobReply R;
  ASSERT_TRUE(C.submit(Req, R, Err, 120 * timeoutScale())) << Err;
  EXPECT_EQ(R.Status, JobStatus::ResourceLimit) << R.Error;
  EXPECT_EQ(R.Cause, FailureCause::OutOfMemory);
  ASSERT_TRUE(D.alive());

  JobReply Ok;
  ASSERT_TRUE(C.submit(limitedIf(Limited, quickJob()), Ok, Err,
                       60 * timeoutScale()))
      << Err;
  EXPECT_EQ(Ok.Status, JobStatus::Ok) << Ok.Error;

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "jobs_resource_limit"), 1);
  expectProcessKind(Json, Limited, 0);
}

TEST(ServiceChaos, AllocationBombIsTypedOom) { allocationBomb(false); }
TEST(ServiceChaos, AllocationBombIsTypedOomLimited) { allocationBomb(true); }

// RLIMIT_CPU: a spinning executive draws SIGXCPU and the client sees a
// typed CPU-budget verdict.
TEST(ServiceChaos, CpuBudgetExhaustionIsTyped) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  JobRequest Req = quickJob(4200);
  Req.MaxCpuSec = 1;
  Req.FaultBurnCpuSec = 120; // far past the (scaled) 1s budget
  JobReply R;
  ASSERT_TRUE(C.submit(Req, R, Err, 300 * timeoutScale())) << Err;
  EXPECT_EQ(R.Status, JobStatus::ResourceLimit) << R.Error;
  EXPECT_EQ(R.Cause, FailureCause::CpuLimit);
  EXPECT_EQ(R.TermSignal, static_cast<uint32_t>(SIGXCPU));
  ASSERT_TRUE(D.alive());

  JobReply Ok;
  ASSERT_TRUE(C.submit(quickJob(), Ok, Err, 60 * timeoutScale())) << Err;
  EXPECT_EQ(Ok.Status, JobStatus::Ok) << Ok.Error;

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "jobs_resource_limit"), 1);
  EXPECT_EQ(jsonInt(Json, "workers_in_use"), 0);
}

// --- Crash-only restart + reconnecting client ----------------------------

// A SIGKILLed daemon leaves a stale socket file; the next daemon probes
// it, reclaims it, and an already-connected client's submit reconnects
// and resubmits without its caller noticing.
TEST(ServiceChaos, DaemonRestartIsInvisibleToClient) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon A(Opts);
  ASSERT_TRUE(A.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(A.socket(), Err, 10 * timeoutScale())) << Err;
  JobReply Warm;
  ASSERT_TRUE(C.submit(quickJob(), Warm, Err, 60 * timeoutScale())) << Err;
  ASSERT_EQ(Warm.Status, JobStatus::Ok) << Warm.Error;

  // Crash the daemon; its socket file stays behind.
  ASSERT_EQ(A.signalAndWait(SIGKILL), -1);
  ASSERT_EQ(::access(Opts.SocketPath.c_str(), F_OK), 0)
      << "SIGKILL should leave the socket file";

  ForkedDaemon B(Opts);
  ASSERT_TRUE(B.forked());
  std::string Json = waitForStatus(
      Opts.SocketPath, [&](const std::string &J) {
        return jsonInt(J, "pid") == B.pid();
      });
  ASSERT_EQ(jsonInt(Json, "pid"), B.pid()) << "restart did not come up";
  EXPECT_EQ(jsonInt(Json, "socket_reclaimed"), 1);

  // The old client's next submit rides the dead fd, reconnects, and gets
  // a real answer from the new daemon.
  JobReply R;
  ASSERT_TRUE(C.submit(quickJob(), R, Err, 120 * timeoutScale())) << Err;
  EXPECT_EQ(R.Status, JobStatus::Ok) << R.Error;
  EXPECT_GE(C.reconnects(), 1u);
  ASSERT_TRUE(B.alive());
}

// Mid-job daemon SIGKILL: the client is blocked waiting for its reply
// when the daemon dies; the resubmission lands on the replacement daemon
// and the final output is byte-identical to sequential execution.
TEST(ServiceChaos, MidJobDaemonKillResubmitsTransparently) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon A(Opts);
  ASSERT_TRUE(A.forked());

  const std::string Text = reductionSumIrText(6000);
  const std::string Expected = sequentialOutput(Text);

  std::string SubmitErr;
  JobReply R;
  bool Submitted = false;
  std::thread Th([&] {
    service::Client C;
    std::string Err;
    if (!C.connect(Opts.SocketPath, Err, 10 * timeoutScale())) {
      SubmitErr = "connect: " + Err;
      return;
    }
    JobRequest Req;
    Req.ModuleText = Text;
    Req.NumWorkers = 2;
    Req.FaultBurnCpuSec = 2.0; // hold the job mid-flight, deterministically
    Submitted = C.submit(Req, R, Err, 300 * timeoutScale());
    if (!Submitted)
      SubmitErr = "submit: " + Err;
  });

  // Wait until the job is in flight on daemon A, then crash A.
  std::string Json = waitForStatus(
      Opts.SocketPath, [](const std::string &J) {
        return jsonInt(J, "jobs_accepted") >= 1;
      });
  ASSERT_GE(jsonInt(Json, "jobs_accepted"), 1) << "job never started";
  ASSERT_EQ(A.signalAndWait(SIGKILL), -1);

  ForkedDaemon B(Opts);
  ASSERT_TRUE(B.forked());
  Th.join();

  ASSERT_TRUE(Submitted) << SubmitErr;
  EXPECT_EQ(R.Status, JobStatus::Ok) << R.Error;
  EXPECT_EQ(R.Output, Expected) << "resubmitted job diverged";
  ASSERT_TRUE(B.alive());
}

// A live daemon's socket must never be stolen by a second daemon.
TEST(ServiceChaos, LiveSocketIsNotReclaimed) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon A(Opts);
  ASSERT_TRUE(A.forked());
  {
    service::Client Ready;
    std::string Err;
    ASSERT_TRUE(Ready.connect(A.socket(), Err, 10 * timeoutScale())) << Err;
  }

  Server Usurper(Opts);
  std::string Err;
  EXPECT_FALSE(Usurper.start(Err));
  EXPECT_NE(Err.find("already serving"), std::string::npos) << Err;

  // The incumbent is untouched and still answering.
  service::Client C;
  ASSERT_TRUE(C.connect(A.socket(), Err, 10 * timeoutScale())) << Err;
  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "pid"), A.pid());
}

// --- Idempotent resubmission ---------------------------------------------

TEST(ServiceChaos, IdempotencyKeyReplaysFinishedReply) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  JobRequest Req = quickJob();
  Req.IdempotencyKey = 0x1de9f00dULL;
  JobReply First;
  std::string Err;
  {
    service::Client C;
    ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
    ASSERT_TRUE(C.submit(Req, First, Err, 60 * timeoutScale())) << Err;
    ASSERT_EQ(First.Status, JobStatus::Ok) << First.Error;
    EXPECT_FALSE(First.IdempotentReplay);
  }

  // A "reconnected" client resubmits the same key: the remembered reply
  // comes back without a second execution.
  service::Client C2;
  ASSERT_TRUE(C2.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
  JobReply Again;
  ASSERT_TRUE(C2.submit(Req, Again, Err, 60 * timeoutScale())) << Err;
  EXPECT_EQ(Again.Status, JobStatus::Ok) << Again.Error;
  EXPECT_TRUE(Again.IdempotentReplay);
  EXPECT_EQ(Again.Output, First.Output);
  EXPECT_EQ(Again.ExitValue, First.ExitValue);

  std::string Json;
  ASSERT_TRUE(C2.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "idempotent_replays"), 1);
  EXPECT_EQ(jsonInt(Json, "jobs_completed"), 1) << "job executed twice";
}

// --- Slow readers and partial writes -------------------------------------

// A client that submits a chatty job and never reads the reply must be
// evicted once its outbound buffer outgrows the cap — without stalling
// the daemon or other clients.
TEST(ServiceChaos, SlowReaderIsEvictedAtBufferCap) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  Opts.SendBufBytes = 8 << 10;      // shrink SO_SNDBUF so backlog is real
  Opts.MaxConnBufferBytes = 4 << 10; // tiny cap: evict fast
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());
  {
    service::Client Ready;
    std::string Err;
    ASSERT_TRUE(Ready.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
  }

  JobRequest Req;
  Req.ModuleText = chattyIrText(20000); // ~200 KiB of output
  Req.Mode = JobMode::Sequential;
  int Fd = rawConnect(D.socket());
  ASSERT_GE(Fd, 0);
  std::string Frame = frameBytes(MsgType::SubmitJob, encodeJobRequest(Req));
  ASSERT_EQ(::write(Fd, Frame.data(), Frame.size()),
            static_cast<ssize_t>(Frame.size()));
  // ... and never read.

  std::string Json = waitForStatus(
      D.socket(), [](const std::string &J) {
        return jsonInt(J, "slow_client_drops") >= 1;
      }, 60);
  EXPECT_EQ(jsonInt(Json, "slow_client_drops"), 1);
  ::close(Fd);

  // Other clients are unaffected.
  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
  JobReply R;
  ASSERT_TRUE(C.submit(quickJob(), R, Err, 60 * timeoutScale())) << Err;
  EXPECT_EQ(R.Status, JobStatus::Ok) << R.Error;
  ASSERT_TRUE(D.alive());
}

// The write-stall deadline catches slow readers even when the buffer cap
// is far away.
TEST(ServiceChaos, WriteStallDeadlineEvictsSlowReader) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  Opts.SendBufBytes = 8 << 10;
  Opts.MaxConnBufferBytes = 64 << 20; // cap out of reach
  Opts.WriteStallSec = 0.3;           // stall clock does the work
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());
  {
    service::Client Ready;
    std::string Err;
    ASSERT_TRUE(Ready.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
  }

  JobRequest Req;
  Req.ModuleText = chattyIrText(20000);
  Req.Mode = JobMode::Sequential;
  int Fd = rawConnect(D.socket());
  ASSERT_GE(Fd, 0);
  std::string Frame = frameBytes(MsgType::SubmitJob, encodeJobRequest(Req));
  ASSERT_EQ(::write(Fd, Frame.data(), Frame.size()),
            static_cast<ssize_t>(Frame.size()));

  std::string Json = waitForStatus(
      D.socket(), [](const std::string &J) {
        return jsonInt(J, "slow_client_drops") >= 1;
      }, 60);
  EXPECT_EQ(jsonInt(Json, "slow_client_drops"), 1);
  ::close(Fd);
  ASSERT_TRUE(D.alive());
}

// Short/partial socket writes: a SubmitJob frame dribbled in 7-byte
// chunks must reassemble into a normally served job.
TEST(ServiceChaos, ByteDribbledSubmitIsServed) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());
  {
    service::Client Ready;
    std::string Err;
    ASSERT_TRUE(Ready.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
  }

  int Fd = rawConnect(D.socket());
  ASSERT_GE(Fd, 0);
  std::string Frame = frameBytes(MsgType::SubmitJob,
                                 encodeJobRequest(quickJob()));
  for (size_t I = 0; I < Frame.size(); I += 7) {
    size_t N = std::min<size_t>(7, Frame.size() - I);
    ASSERT_EQ(::write(Fd, Frame.data() + I, N), static_cast<ssize_t>(N));
    ::usleep(500);
  }

  MsgType Type;
  std::string Body, Err;
  ASSERT_EQ(readFrame(Fd, Type, Body, Err, 120 * timeoutScale()),
            ReadStatus::Ok)
      << Err;
  ASSERT_EQ(Type, MsgType::JobResult);
  JobReply R;
  ASSERT_TRUE(decodeJobReply(Body, R, Err)) << Err;
  EXPECT_EQ(R.Status, JobStatus::Ok) << R.Error;
  ::close(Fd);
  ASSERT_TRUE(D.alive());
}

} // namespace
