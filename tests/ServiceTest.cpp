//===- tests/ServiceTest.cpp - Invocation-service lifecycle tests ---------===//
//
// End-to-end coverage of privateer-served: concurrent clients with
// byte-identical outputs and a warm cache, executive-crash isolation,
// client-disconnect cancellation, per-job deadlines, admission-control
// backpressure, SIGTERM drain, sequential-mode fallback, and the jobs
// that run on one-shot executives (per-job rlimits).
//
// Every daemon is forked (ForkedDaemon) before any test threads exist;
// the test process itself only ever talks over sockets.
//
//===----------------------------------------------------------------------===//

#include "ServiceTestUtil.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "transform/Pipeline.h"
#include "workloads/IrPrograms.h"

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <thread>
#include <vector>

using namespace privateer;
using namespace privateer::service;
using namespace privateer::servicetest;

namespace {

/// The ground truth a served job's output must match byte-for-byte:
/// plain sequential interpretation in this process.
std::string sequentialOutput(const std::string &Text) {
  std::string Err;
  auto M = ir::parseModule(Text, Err);
  if (!M)
    ADD_FAILURE() << "parse: " << Err;
  char *Buf = nullptr;
  size_t Len = 0;
  std::FILE *Out = open_memstream(&Buf, &Len);
  transform::executeSequential(*M, transform::PipelineOptions(), Out);
  std::fclose(Out);
  std::string S(Buf, Len);
  std::free(Buf);
  return S;
}

/// A job that parks worker 0 on its very first iteration (worker w runs
/// iteration periodBase+w first, so StallAtIter=0 is deterministic) and
/// never finishes on its own — cancellation paths get a stable target.
JobRequest stallingJob() {
  JobRequest Req;
  Req.ModuleText = reductionSumIrText(1000);
  Req.NumWorkers = 2;
  Req.CheckpointPeriod = 16;
  Req.FaultStallWorker = 0;
  Req.FaultStallAtIter = 0;
  Req.FaultStallSeconds = 3600;
  // Keep the runtime's own stall watchdog out of the picture; the daemon
  // (deadline / disconnect) is what must end this job.
  Req.StallTimeoutSec = 120;
  return Req;
}

JobRequest quickJob(uint64_t N = 1000) {
  JobRequest Req;
  Req.ModuleText = reductionSumIrText(N);
  Req.NumWorkers = 2;
  return Req;
}

// The acceptance scenario: 4 concurrent clients x 3 jobs of the same
// program, misspeculation injected into one client's jobs, all twelve
// outputs byte-identical to sequential execution, the pipeline run once
// (>= 11 cache hits), and zero daemon restarts (stable pid).
TEST(Service, ConcurrentClientsByteIdentical) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 16;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  const std::string Text = dijkstraIrText(16);
  const std::string Expected = sequentialOutput(Text);
  ASSERT_FALSE(Expected.empty());

  pid_t PidBefore = -1;
  {
    service::Client C;
    std::string Err, Json;
    ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
    ASSERT_TRUE(C.status(Json, Err)) << Err;
    PidBefore = static_cast<pid_t>(jsonInt(Json, "pid"));
    EXPECT_EQ(PidBefore, D.pid());
  }

  constexpr int NumClients = 4, JobsEach = 3;
  std::vector<std::string> Outputs(NumClients * JobsEach);
  std::vector<std::string> Failures(NumClients);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumClients; ++T)
    Threads.emplace_back([&, T] {
      service::Client C;
      std::string Err;
      if (!C.connect(D.socket(), Err, 10 * timeoutScale())) {
        Failures[T] = "connect: " + Err;
        return;
      }
      for (int J = 0; J < JobsEach; ++J) {
        JobRequest Req;
        Req.ModuleText = Text;
        Req.NumWorkers = 2;
        Req.CheckpointPeriod = 4;
        if (T == 0) { // one client runs under fault injection
          Req.InjectMisspecRate = 0.05;
          Req.InjectSeed = 7 + J;
        }
        JobReply R;
        if (!C.submit(Req, R, Err, 300 * timeoutScale())) {
          Failures[T] = "submit: " + Err;
          return;
        }
        if (R.Status != JobStatus::Ok) {
          Failures[T] = std::string("job: ") + jobStatusName(R.Status) +
                        ": " + R.Error;
          return;
        }
        Outputs[T * JobsEach + J] = R.Output;
      }
    });
  for (auto &Th : Threads)
    Th.join();
  for (int T = 0; T < NumClients; ++T)
    EXPECT_TRUE(Failures[T].empty()) << "client " << T << ": " << Failures[T];
  for (int I = 0; I < NumClients * JobsEach; ++I)
    EXPECT_EQ(Outputs[I], Expected) << "output " << I << " diverged";

  service::Client C;
  std::string Err, Json;
  ASSERT_TRUE(C.connect(D.socket(), Err)) << Err;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "pid"), PidBefore) << "daemon restarted";
  EXPECT_EQ(jsonInt(Json, "jobs_completed"), NumClients * JobsEach);
  EXPECT_EQ(jsonInt(Json, "jobs_crashed"), 0);
  EXPECT_EQ(jsonInt(Json, "cache_misses"), 1);
  EXPECT_GE(jsonInt(Json, "cache_hits"), NumClients * JobsEach - 1);
  EXPECT_EQ(jsonInt(Json, "workers_in_use"), 0);
  ASSERT_TRUE(D.alive());
}

// A supervisor SIGKILL mid-job must surface as Crashed on that job only:
// same connection, next job fine, daemon pid unchanged.
TEST(Service, SupervisorKillIsIsolated) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  JobRequest Bad = quickJob();
  Bad.FaultKillSupervisor = true;
  JobReply R;
  ASSERT_TRUE(C.submit(Bad, R, Err, 60 * timeoutScale())) << Err;
  EXPECT_EQ(R.Status, JobStatus::Crashed);
  EXPECT_NE(R.Error.find("signal 9"), std::string::npos) << R.Error;

  JobReply R2;
  ASSERT_TRUE(C.submit(quickJob(), R2, Err, 60 * timeoutScale())) << Err;
  EXPECT_EQ(R2.Status, JobStatus::Ok) << R2.Error;
  EXPECT_EQ(R2.Output, sequentialOutput(quickJob().ModuleText));

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "jobs_crashed"), 1);
  EXPECT_EQ(jsonInt(Json, "jobs_completed"), 1);
  EXPECT_EQ(jsonInt(Json, "pid"), D.pid());
  ASSERT_TRUE(D.alive());
}

// A client that vanishes mid-job: the daemon must kill the supervisor
// tree (including the deliberately stalled worker), count the job as
// canceled, and return the worker slots to the budget.
TEST(Service, DisconnectCancelsJobAndFreesSlots) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 3; // exactly one stalled job saturates the budget
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  {
    service::Client C;
    std::string Err;
    ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
    // Submit raw (Client::submit would block on the reply we never get).
    ASSERT_TRUE(writeFrame(C.fd(), MsgType::SubmitJob,
                           encodeJobRequest(stallingJob()), Err))
        << Err;
    std::string Json = waitForStatus(D.socket(), [](const std::string &J) {
      return jsonInt(J, "workers_in_use") == 3;
    });
    ASSERT_EQ(jsonInt(Json, "workers_in_use"), 3) << Json;
    // Client destructor closes the socket: the job is now orphaned.
  }

  std::string Json = waitForStatus(D.socket(), [](const std::string &J) {
    return jsonInt(J, "jobs_canceled") == 1 &&
           jsonInt(J, "workers_in_use") == 0;
  }, 30);
  EXPECT_EQ(jsonInt(Json, "jobs_canceled"), 1) << Json;
  EXPECT_EQ(jsonInt(Json, "workers_in_use"), 0) << Json;
  EXPECT_EQ(jsonInt(Json, "active_jobs"), 0) << Json;

  // The freed budget serves the next job.
  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err)) << Err;
  JobReply R;
  ASSERT_TRUE(C.submit(quickJob(), R, Err, 60 * timeoutScale())) << Err;
  EXPECT_EQ(R.Status, JobStatus::Ok) << R.Error;
}

// Per-job deadlines: a stalled job is killed once DeadlineSec (scaled by
// PRIVATEER_TIMEOUT_SCALE, so sanitizer CI keeps the same margins) runs
// out, reported TimedOut, and the connection remains usable.
TEST(Service, DeadlineKillsStuckJob) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 3;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  JobRequest Req = stallingJob();
  Req.DeadlineSec = 0.5;
  double T0 = wallSeconds();
  JobReply R;
  ASSERT_TRUE(C.submit(Req, R, Err, 120 * timeoutScale())) << Err;
  EXPECT_EQ(R.Status, JobStatus::TimedOut) << R.Error;
  // Killed by the deadline, far before the 3600 s stall would resolve.
  EXPECT_LT(wallSeconds() - T0, 60 * timeoutScale());

  JobReply R2;
  ASSERT_TRUE(C.submit(quickJob(), R2, Err, 60 * timeoutScale())) << Err;
  EXPECT_EQ(R2.Status, JobStatus::Ok) << R2.Error;

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "jobs_timeout"), 1);
  ASSERT_TRUE(D.alive());
}

// Admission control: a saturated budget plus a full queue means immediate
// Rejected backpressure — and a freed slot immediately un-queues the
// waiter, FIFO.
TEST(Service, BackpressureRejectsWhenQueueFull) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 3;
  Opts.QueueDepth = 1;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  std::string Err;
  service::Client Stuck;
  ASSERT_TRUE(Stuck.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
  ASSERT_TRUE(writeFrame(Stuck.fd(), MsgType::SubmitJob,
                         encodeJobRequest(stallingJob()), Err))
      << Err;
  waitForStatus(D.socket(), [](const std::string &J) {
    return jsonInt(J, "workers_in_use") == 3;
  });

  service::Client Waiter;
  ASSERT_TRUE(Waiter.connect(D.socket(), Err)) << Err;
  ASSERT_TRUE(writeFrame(Waiter.fd(), MsgType::SubmitJob,
                         encodeJobRequest(quickJob()), Err))
      << Err;
  std::string Json = waitForStatus(D.socket(), [](const std::string &J) {
    return jsonInt(J, "queue_depth") == 1;
  });
  ASSERT_EQ(jsonInt(Json, "queue_depth"), 1) << Json;

  // Queue full: the third submit bounces straight back.
  service::Client Third;
  ASSERT_TRUE(Third.connect(D.socket(), Err)) << Err;
  JobReply R;
  ASSERT_TRUE(Third.submit(quickJob(), R, Err, 30 * timeoutScale())) << Err;
  EXPECT_EQ(R.Status, JobStatus::Rejected);
  EXPECT_NE(R.Error.find("queue full"), std::string::npos) << R.Error;

  // Freeing the stalled job promotes the queued one.
  Stuck.close();
  MsgType Type;
  std::string Body;
  ASSERT_EQ(readFrame(Waiter.fd(), Type, Body, Err, 120 * timeoutScale()),
            ReadStatus::Ok)
      << Err;
  ASSERT_EQ(Type, MsgType::JobResult);
  JobReply WR;
  ASSERT_TRUE(decodeJobReply(Body, WR, Err)) << Err;
  EXPECT_EQ(WR.Status, JobStatus::Ok) << WR.Error;

  std::string Json2;
  ASSERT_TRUE(Third.status(Json2, Err)) << Err;
  EXPECT_EQ(jsonInt(Json2, "jobs_rejected"), 1);
  EXPECT_EQ(jsonInt(Json2, "jobs_canceled"), 1);
  EXPECT_EQ(jsonInt(Json2, "jobs_completed"), 1);
}

// SIGTERM = drain: stop accepting, finish every queued job, answer every
// waiting client, exit 0.
TEST(Service, SigtermDrainsQueueAndExitsZero) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 3; // jobs run one at a time; two of three must queue
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  std::string Err;
  constexpr int N = 3;
  std::vector<std::unique_ptr<service::Client>> Clients;
  for (int I = 0; I < N; ++I) {
    Clients.push_back(std::make_unique<service::Client>());
    ASSERT_TRUE(Clients.back()->connect(D.socket(), Err, 10 * timeoutScale()))
        << Err;
    ASSERT_TRUE(writeFrame(Clients.back()->fd(), MsgType::SubmitJob,
                           encodeJobRequest(quickJob()), Err))
        << Err;
  }
  std::string Json = waitForStatus(D.socket(), [](const std::string &J) {
    return jsonInt(J, "jobs_accepted") == N;
  });
  ASSERT_EQ(jsonInt(Json, "jobs_accepted"), N) << Json;

  ::kill(D.pid(), SIGTERM);

  // Every submitted job still gets a real answer.
  for (int I = 0; I < N; ++I) {
    MsgType Type;
    std::string Body;
    ASSERT_EQ(readFrame(Clients[I]->fd(), Type, Body, Err,
                        300 * timeoutScale()),
              ReadStatus::Ok)
        << "client " << I << ": " << Err;
    ASSERT_EQ(Type, MsgType::JobResult);
    JobReply R;
    ASSERT_TRUE(decodeJobReply(Body, R, Err)) << Err;
    EXPECT_EQ(R.Status, JobStatus::Ok) << "client " << I << ": " << R.Error;
  }

  EXPECT_EQ(D.wait(300), 0) << "daemon did not exit cleanly after drain";
}

// A program the pipeline cannot parallelize: speculative submits are
// refused with NotParallelizable, sequential submits run it anyway, and
// the (negative) pipeline verdict is itself cached.
TEST(Service, SequentialFallbackAndNegativeCache) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  const std::string Text = recurrenceIrText(64);

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  JobRequest Spec;
  Spec.ModuleText = Text;
  JobReply R;
  ASSERT_TRUE(C.submit(Spec, R, Err, 60 * timeoutScale())) << Err;
  EXPECT_EQ(R.Status, JobStatus::NotParallelizable) << R.Error;

  JobRequest Seq;
  Seq.ModuleText = Text;
  Seq.Mode = JobMode::Sequential;
  JobReply R2;
  ASSERT_TRUE(C.submit(Seq, R2, Err, 60 * timeoutScale())) << Err;
  EXPECT_EQ(R2.Status, JobStatus::Ok) << R2.Error;
  EXPECT_EQ(R2.Output, sequentialOutput(Text));
  EXPECT_TRUE(R2.CacheHit) << "pipeline verdict should have been cached";

  JobReply R3;
  ASSERT_TRUE(C.submit(Seq, R3, Err, 60 * timeoutScale())) << Err;
  EXPECT_EQ(R3.Status, JobStatus::Ok) << R3.Error;
  EXPECT_TRUE(R3.CacheHit);
  EXPECT_EQ(R3.Output, R2.Output);

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "cache_misses"), 1);
  EXPECT_GE(jsonInt(Json, "cache_hits"), 2);
}

// A program that traps during its training run (the daemon profiles it
// in-process) gets a typed, cached ParseError reply, and the daemon keeps
// serving: the next job on the same connection is answered correctly.
TEST(Service, TrainingRunTrapIsTypedAndDaemonSurvives) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  JobRequest Trap;
  Trap.ModuleText = "define i64 @main() {\n"
                    "entry:\n"
                    "  %z = add 0, 0\n"
                    "  %q = sdiv 7, %z\n"
                    "  ret %q\n"
                    "}\n";
  for (int Attempt = 0; Attempt < 2; ++Attempt) {
    JobReply R;
    ASSERT_TRUE(C.submit(Trap, R, Err, 60 * timeoutScale())) << Err;
    EXPECT_EQ(R.Status, JobStatus::ParseError) << R.Error;
    EXPECT_NE(R.Error.find("training run trapped: division by zero"),
              std::string::npos)
        << R.Error;
  }

  JobRequest Ok = quickJob();
  JobReply R;
  ASSERT_TRUE(C.submit(Ok, R, Err, 60 * timeoutScale())) << Err;
  ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
  EXPECT_EQ(R.Output, sequentialOutput(Ok.ModuleText));

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "cache_misses"), 2) << "trap verdict not cached";
  ASSERT_TRUE(D.alive());
}

/// dijkstraIrText(8) with @hot_loop's entry block padded by \p Pad adds.
std::string paddedDijkstra(unsigned Pad) {
  std::string T = dijkstraIrText(8);
  const std::string Entry = "define void @hot_loop(i64 %n) {\nentry:\n";
  std::string Fill;
  for (unsigned K = 0; K < Pad; ++K)
    Fill += "  %pad" + std::to_string(K) + " = add %n, 0\n";
  size_t At = T.find(Entry);
  EXPECT_NE(At, std::string::npos);
  T.insert(At + Entry.size(), Fill);
  return T;
}

// A module at the verifier's register bound verifies, but the pipeline's
// value prediction adds values to the selected loop's function and pushes
// it past the bound.  The daemon must not lower that module (neither for
// speculative nor for sequential jobs): the submit gets a typed, cached
// ParseError naming the bound, and the daemon keeps serving.
TEST(Service, RewriteOverRegisterBoundIsTypedAndDaemonSurvives) {
  // Calibrate: one pad per register makes the verifier report
  // Base + 65535 registers; Base fewer pads put @hot_loop exactly at the
  // bound.
  std::string Err;
  auto Over = ir::parseModule(paddedDijkstra(65535), Err);
  ASSERT_NE(Over, nullptr) << Err;
  unsigned Needed = 0;
  for (const std::string &D : ir::verifyModule(*Over))
    if (std::sscanf(D.c_str(), "@hot_loop: needs up to %u registers",
                    &Needed) == 1)
      break;
  ASSERT_GT(Needed, 65535u) << "no register diagnostic for @hot_loop";
  const std::string Text = paddedDijkstra(65535 - (Needed - 65535));
  auto AtBound = ir::parseModule(Text, Err);
  ASSERT_NE(AtBound, nullptr) << Err;
  auto Diags = ir::verifyModule(*AtBound);
  ASSERT_TRUE(Diags.empty()) << Diags.front();

  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  for (JobMode Mode : {JobMode::Sequential, JobMode::Speculative}) {
    JobRequest Req;
    Req.ModuleText = Text;
    Req.Mode = Mode;
    JobReply R;
    ASSERT_TRUE(C.submit(Req, R, Err, 120 * timeoutScale())) << Err;
    EXPECT_EQ(R.Status, JobStatus::ParseError) << R.Error;
    EXPECT_NE(R.Error.find("rewritten module: "), std::string::npos)
        << R.Error;
    EXPECT_NE(R.Error.find("above the bytecode limit of 65535"),
              std::string::npos)
        << R.Error;
  }

  JobRequest Ok = quickJob();
  JobReply R;
  ASSERT_TRUE(C.submit(Ok, R, Err, 60 * timeoutScale())) << Err;
  ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
  EXPECT_EQ(R.Output, sequentialOutput(Ok.ModuleText));

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "cache_misses"), 2) << "verdict not cached";
  ASSERT_TRUE(D.alive());
}

// The scheduling strategy is part of a program's identity: the same
// module text is refused under DOALL (the scalar carry defeats it),
// served under DOACROSS and pipeline — and each strategy compiles its
// own cache entry, so the cached doall verdict never shadows the
// doacross rewrite (or vice versa).
TEST(Service, DoacrossStrategyServedAndCachedPerStrategy) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  const std::string Text = scalarCarryIrText(400);
  const std::string Expected = sequentialOutput(Text);
  ASSERT_FALSE(Expected.empty());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  // Under the default DOALL strategy the loop-carried phi is a refusal.
  JobRequest Doall;
  Doall.ModuleText = Text;
  Doall.NumWorkers = 3;
  JobReply R0;
  ASSERT_TRUE(C.submit(Doall, R0, Err, 300 * timeoutScale())) << Err;
  EXPECT_EQ(R0.Status, JobStatus::NotParallelizable) << R0.Error;

  // DOACROSS rewrites the carry into token forwarding: a fresh cache
  // entry (the doall verdict must not be replayed), correct output.
  JobRequest Doac = Doall;
  Doac.Strat = static_cast<uint8_t>(Strategy::Doacross);
  JobReply R1;
  ASSERT_TRUE(C.submit(Doac, R1, Err, 300 * timeoutScale())) << Err;
  ASSERT_EQ(R1.Status, JobStatus::Ok) << R1.Error;
  EXPECT_EQ(R1.Output, Expected);
  EXPECT_FALSE(R1.CacheHit);
  EXPECT_GT(R1.Iterations, 0u);

  JobReply R2;
  ASSERT_TRUE(C.submit(Doac, R2, Err, 300 * timeoutScale())) << Err;
  ASSERT_EQ(R2.Status, JobStatus::Ok) << R2.Error;
  EXPECT_EQ(R2.Output, Expected);
  EXPECT_TRUE(R2.CacheHit);

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "cache_misses"), 2) << Json;
  EXPECT_GE(jsonInt(Json, "cache_hits"), 1) << Json;
  ASSERT_TRUE(D.alive());
}

// A per-job rlimit cannot be worn by a long-lived executive: the job is
// dispatched like any other, and its executive runs it in a disposable
// child under the limit.  The same job without one runs on the executive
// itself.
TEST(Service, RlimitJobRunsOneShot) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  JobRequest Limited = quickJob();
  Limited.MaxOpenFiles = 256;
  JobReply R;
  ASSERT_TRUE(C.submit(Limited, R, Err, 300 * timeoutScale())) << Err;
  ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
  EXPECT_EQ(R.Output, sequentialOutput(Limited.ModuleText));

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "supervisor_forks"), 1) << Json;
  EXPECT_EQ(jsonInt(Json, "pool_dispatches"), 1) << Json;

  JobReply R2;
  ASSERT_TRUE(C.submit(quickJob(), R2, Err, 300 * timeoutScale())) << Err;
  ASSERT_EQ(R2.Status, JobStatus::Ok) << R2.Error;
  EXPECT_EQ(R2.Output, R.Output);
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "supervisor_forks"), 1) << Json;
  EXPECT_EQ(jsonInt(Json, "pool_dispatches"), 2) << Json;
  ASSERT_TRUE(D.alive());
}

// A limited job's child killed by a signal takes its executive with it:
// the reply carries the same typed verdict as any executive death, the
// program is poisoned, the pool refills, and the next unlimited job of a
// warm program is a cache-hit pool dispatch.
TEST(Service, LimitedChildDeathIsTriagedAndPoolRefills) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  Opts.Executives = 2;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
  JobReply Warm;
  ASSERT_TRUE(C.submit(quickJob(), Warm, Err, 300 * timeoutScale())) << Err;
  ASSERT_EQ(Warm.Status, JobStatus::Ok) << Warm.Error;

  JobRequest Bad = quickJob(1001);
  Bad.MaxOpenFiles = 256;
  Bad.FaultSupervisorSignal = SIGSEGV;
  JobReply R;
  ASSERT_TRUE(C.submit(Bad, R, Err, 300 * timeoutScale())) << Err;
  EXPECT_EQ(R.Status, JobStatus::Crashed) << R.Error;
  EXPECT_EQ(R.Cause, FailureCause::Signal);
  EXPECT_EQ(R.TermSignal, static_cast<uint32_t>(SIGSEGV));
  EXPECT_EQ(R.Attempts, 1u);

  JobReply Poisoned;
  ASSERT_TRUE(C.submit(quickJob(1001), Poisoned, Err, 300 * timeoutScale()))
      << Err;
  EXPECT_EQ(Poisoned.Status, JobStatus::Crashed);
  EXPECT_NE(Poisoned.Error.find("negative verdict"), std::string::npos)
      << Poisoned.Error;

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "executives"), 2) << Json;
  EXPECT_EQ(jsonInt(Json, "executives_respawned"), 1) << Json;
  EXPECT_EQ(jsonInt(Json, "supervisor_forks"), 1) << Json;
  EXPECT_EQ(jsonInt(Json, "pool_dispatches"), 2) << Json;

  JobReply Next;
  ASSERT_TRUE(C.submit(quickJob(), Next, Err, 300 * timeoutScale())) << Err;
  ASSERT_EQ(Next.Status, JobStatus::Ok) << Next.Error;
  EXPECT_TRUE(Next.CacheHit);
  EXPECT_EQ(Next.Output, Warm.Output);
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "supervisor_forks"), 1) << Json;
  EXPECT_EQ(jsonInt(Json, "pool_dispatches"), 3) << Json;
  EXPECT_EQ(jsonInt(Json, "workers_in_use"), 0) << Json;
  ASSERT_TRUE(D.alive());
}

// The daemon answers a worker count outside [1, kMaxWorkers] with a
// typed rejection instead of silently changing it.
TEST(Service, OutOfRangeWorkerCountIsRejected) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 2 * kMaxWorkers;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
  for (uint32_t W : {0u, kMaxWorkers + 1}) {
    SCOPED_TRACE(W);
    JobRequest Req = quickJob();
    Req.NumWorkers = W;
    JobReply R;
    ASSERT_TRUE(C.submit(Req, R, Err, 60 * timeoutScale())) << Err;
    EXPECT_EQ(R.Status, JobStatus::Rejected) << R.Error;
    EXPECT_NE(R.Error.find("NumWorkers must be 1-" +
                           std::to_string(kMaxWorkers)),
              std::string::npos)
        << R.Error;
  }

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "jobs_rejected"), 2) << Json;
  EXPECT_EQ(jsonInt(Json, "jobs_accepted"), 0) << Json;
  ASSERT_TRUE(D.alive());
}

} // namespace
