//===- bench/bench_service.cpp - Invocation-service latency/throughput ----===//
//
// Measures what the persistent daemon buys over one-shot invocation:
//
//   * cold vs warm submit latency — a cache miss pays parse + training
//     profile + classification + transform before the executive even
//     starts; a warm hit pays only dispatch + execute.  The acceptance
//     criterion is a >= 5x warm advantage for a pipeline-heavy program.
//   * jobs/sec with 1 vs 4 concurrent clients — executive processes let
//     independent jobs overlap.
//   * executive-crash survival — a SIGKILLed executive must cost its
//     own job only; the next job on the same connection succeeds.
//
// `--service-report[=path]` writes BENCH_service.json (CI uploads it) and
// the exit code enforces the warm-speedup and survival checks.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "runtime/HeapKind.h" // PRIVATEER_ASAN
#include "service/Client.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "support/Timing.h"
#include "transform/Pipeline.h"
#include "workloads/IrPrograms.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace privateer;
using namespace privateer::service;

namespace {

struct Daemon {
  pid_t Pid = -1;
  std::string Socket;

  explicit Daemon(unsigned Budget, const char *Suffix = "",
                  ServerOptions Opts = ServerOptions()) {
    Socket = "/tmp/privateer-bench-" + std::to_string(::getpid()) + Suffix +
             ".sock";
    Opts.SocketPath = Socket;
    Opts.WorkerBudget = Budget;
    if (Opts.QueueDepth < 64)
      Opts.QueueDepth = 64;
    // Unflushed report lines would otherwise be printed again by the
    // child's copy of the stdio buffers.
    std::fflush(nullptr);
    Pid = ::fork();
    if (Pid == 0)
      ::_exit(Server::serve(Opts));
  }

  /// Induced kill (chaos scenarios): not a daemon crash.
  void kill() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
      Pid = -1;
    }
  }

  bool alive() {
    return Pid > 0 && ::waitpid(Pid, nullptr, WNOHANG) == 0;
  }

  ~Daemon() {
    kill();
    ::unlink(Socket.c_str());
  }
};

/// The pipeline-heavy program: dijkstra's training profile interprets the
/// whole O(N^2) relaxation under shadow instrumentation, so a cache miss
/// dwarfs the plain execution a warm job pays.  The latency jobs run in
/// Sequential mode — same cached pipeline, cheapest possible execution —
/// to isolate what the warm cache saves.
std::string heavyProgram(unsigned Salt) { return dijkstraIrText(40 + Salt); }

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V.empty() ? 0 : V[V.size() / 2];
}

/// One submit, client-measured wall milliseconds (the daemon's WallSec
/// starts after the cache lookup, so only the client sees pipeline cost).
bool timedSubmit(Client &C, const JobRequest &Req, double &Ms,
                 JobReply &R, std::string &Err) {
  double T0 = wallSeconds();
  if (!C.submit(Req, R, Err, 600 * timeoutScale()))
    return false;
  Ms = (wallSeconds() - T0) * 1e3;
  if (R.Status != JobStatus::Ok) {
    Err = std::string(jobStatusName(R.Status)) + ": " + R.Error;
    return false;
  }
  return true;
}

struct Throughput {
  double JobsPerSec1 = 0;
  double JobsPerSec4 = 0;
};

bool measureThroughput(const std::string &Socket, Throughput &T,
                       std::string &Err) {
  JobRequest Req;
  Req.ModuleText = reductionSumIrText(500);
  Req.NumWorkers = 2;

  // Warm the cache so neither arm pays the one-time pipeline.
  {
    Client C;
    JobReply R;
    if (!C.connect(Socket, Err, 10 * timeoutScale()) ||
        !C.submit(Req, R, Err, 600 * timeoutScale()))
      return false;
  }

  constexpr int TotalJobs = 24;
  {
    Client C;
    if (!C.connect(Socket, Err))
      return false;
    double T0 = wallSeconds();
    for (int J = 0; J < TotalJobs; ++J) {
      JobReply R;
      if (!C.submit(Req, R, Err, 600 * timeoutScale()))
        return false;
      if (R.Status != JobStatus::Ok) {
        Err = R.Error;
        return false;
      }
    }
    T.JobsPerSec1 = TotalJobs / (wallSeconds() - T0);
  }
  {
    constexpr int NumClients = 4;
    std::vector<std::thread> Threads;
    std::vector<std::string> Errors(NumClients);
    double T0 = wallSeconds();
    for (int I = 0; I < NumClients; ++I)
      Threads.emplace_back([&, I] {
        Client C;
        std::string E;
        if (!C.connect(Socket, E, 10 * timeoutScale())) {
          Errors[I] = E;
          return;
        }
        for (int J = 0; J < TotalJobs / NumClients; ++J) {
          JobReply R;
          if (!C.submit(Req, R, E, 600 * timeoutScale()) ||
              R.Status != JobStatus::Ok) {
            Errors[I] = E.empty() ? R.Error : E;
            return;
          }
        }
      });
    for (auto &Th : Threads)
      Th.join();
    T.JobsPerSec4 = TotalJobs / (wallSeconds() - T0);
    for (const std::string &E : Errors)
      if (!E.empty()) {
        Err = E;
        return false;
      }
  }
  return true;
}

/// The crash-survival test: kill an executive out from under a job, then
/// prove the same connection still works.
bool measureKillSurvival(const std::string &Socket, std::string &Err) {
  Client C;
  if (!C.connect(Socket, Err, 10 * timeoutScale()))
    return false;
  JobRequest Bad;
  Bad.ModuleText = reductionSumIrText(500);
  Bad.NumWorkers = 2;
  Bad.FaultKillSupervisor = true;
  JobReply R;
  if (!C.submit(Bad, R, Err, 600 * timeoutScale()))
    return false;
  if (R.Status != JobStatus::Crashed) {
    Err = std::string("expected Crashed, got ") + jobStatusName(R.Status);
    return false;
  }
  Bad.FaultKillSupervisor = false;
  JobReply R2;
  if (!C.submit(Bad, R2, Err, 600 * timeoutScale()))
    return false;
  if (R2.Status != JobStatus::Ok) {
    Err = std::string("post-crash job failed: ") + R2.Error;
    return false;
  }
  return true;
}

// --- Chaos report --------------------------------------------------------
//
// `--chaos-report` drives the failure scenarios from the resilience layer
// end to end and gates the exit code on the acceptance invariants: zero
// daemon crashes, every submitted job answered with a typed reply, and
// every retried job byte-identical to sequential execution.

/// Ground truth for the byte-identical checks.
std::string sequentialOutput(const std::string &Text) {
  std::string Err;
  auto M = ir::parseModule(Text, Err);
  if (!M)
    return "<parse error>";
  char *Buf = nullptr;
  size_t Len = 0;
  std::FILE *Out = open_memstream(&Buf, &Len);
  transform::executeSequential(*M, transform::PipelineOptions(), Out);
  std::fclose(Out);
  std::string S(Buf, Len);
  std::free(Buf);
  return S;
}

/// A sequential program printing one line per iteration, for the
/// slow-reader scenario.
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

struct ChaosStats {
  int Submitted = 0;         ///< jobs sent by chaos clients
  int Typed = 0;             ///< replies with the expected typed verdict
  int DaemonCrashes = 0;     ///< un-induced daemon deaths
  int Retried = 0;           ///< jobs that went through the retry ladder
  int RetriedIdentical = 0;  ///< ... whose output matched sequential
  int ScenariosRun = 0;
  int ScenariosPassed = 0;
  std::vector<std::string> Failures;
};

void chaosFail(ChaosStats &S, const std::string &Why) {
  S.Failures.push_back(Why);
  std::fprintf(stderr, "chaos: %s\n", Why.c_str());
}

/// One submit that must come back with a definite verdict.  Counts toward
/// Submitted/Typed; returns false (and records a failure) otherwise.
bool chaosSubmit(ChaosStats &S, Client &C, const JobRequest &Req,
                 JobReply &R, const char *What) {
  ++S.Submitted;
  std::string Err;
  if (!C.submit(Req, R, Err, 300 * timeoutScale())) {
    chaosFail(S, std::string(What) + ": no reply: " + Err);
    return false;
  }
  ++S.Typed;
  return true;
}

void chaosSignalMatrix(ChaosStats &S) {
  ++S.ScenariosRun;
  Daemon D(16, "-chaos");
  Client C;
  std::string Err;
  if (!C.connect(D.Socket, Err, 30 * timeoutScale())) {
    chaosFail(S, "signal matrix: connect: " + Err);
    return;
  }
  struct Case {
    const char *Name;
    uint32_t Signal, Exit;
    FailureCause Cause;
  };
  const Case Matrix[] = {
      {"SIGSEGV", SIGSEGV, kNoFaultExit, FailureCause::Signal},
      {"SIGBUS", SIGBUS, kNoFaultExit, FailureCause::Signal},
      {"SIGABRT", SIGABRT, kNoFaultExit, FailureCause::Signal},
      {"SIGKILL", SIGKILL, kNoFaultExit, FailureCause::Signal},
      {"exit(7)", 0, 7, FailureCause::NonzeroExit},
  };
  bool Pass = true;
  int Salt = 0;
  for (const Case &K : Matrix) {
    JobRequest Req;
    Req.ModuleText = reductionSumIrText(7000 + Salt++);
    Req.NumWorkers = 2;
    Req.FaultSupervisorSignal = K.Signal;
    Req.FaultSupervisorExit = K.Exit;
    JobReply R;
    if (!chaosSubmit(S, C, Req, R, K.Name)) {
      Pass = false;
      continue;
    }
    if (R.Status != JobStatus::Crashed || R.Cause != K.Cause) {
      chaosFail(S, std::string("signal matrix ") + K.Name +
                       ": wrong verdict: " + jobStatusName(R.Status));
      Pass = false;
    }
    JobRequest Healthy;
    Healthy.ModuleText = reductionSumIrText(500);
    Healthy.NumWorkers = 2;
    JobReply H;
    if (!chaosSubmit(S, C, Healthy, H, "post-crash health") ||
        H.Status != JobStatus::Ok) {
      chaosFail(S, std::string("signal matrix ") + K.Name +
                       ": daemon unhealthy after crash");
      Pass = false;
    }
  }
  if (!D.alive()) {
    ++S.DaemonCrashes;
    Pass = false;
  }
  if (Pass)
    ++S.ScenariosPassed;
}

void chaosOomRetry(ChaosStats &S) {
  ++S.ScenariosRun;
  Daemon D(16, "-chaos");
  Client C;
  std::string Err;
  if (!C.connect(D.Socket, Err, 30 * timeoutScale())) {
    chaosFail(S, "oom retry: connect: " + Err);
    return;
  }
  bool Pass = true;
  JobRequest Req;
  Req.ModuleText = reductionSumIrText(5000);
  Req.NumWorkers = 4;
  Req.FaultOomAttempts = 2;
  JobReply R;
  if (chaosSubmit(S, C, Req, R, "oom retry ladder")) {
    ++S.Retried;
    if (R.Status != JobStatus::Ok || R.Attempts != 3) {
      chaosFail(S, "oom retry ladder: expected Ok after 3 attempts, got " +
                       std::string(jobStatusName(R.Status)));
      Pass = false;
    } else if (R.Output != sequentialOutput(Req.ModuleText)) {
      chaosFail(S, "oom retry ladder: output diverged from sequential");
      Pass = false;
    } else {
      ++S.RetriedIdentical;
    }
  } else {
    Pass = false;
  }

  // Exhausted ladder: the typed final verdict, not a hang or a crash.
  JobRequest Hopeless;
  Hopeless.ModuleText = reductionSumIrText(5001);
  Hopeless.NumWorkers = 4;
  Hopeless.FaultOomAttempts = 99;
  JobReply R2;
  if (!chaosSubmit(S, C, Hopeless, R2, "oom exhausted") ||
      R2.Status != JobStatus::ResourceLimit ||
      R2.Cause != FailureCause::OutOfMemory) {
    chaosFail(S, "oom exhausted: expected typed OutOfMemory verdict");
    Pass = false;
  }

#if PRIVATEER_ASAN
  const char *AsanOpts = ::getenv("ASAN_OPTIONS");
  bool RealAlloc = AsanOpts && std::string(AsanOpts).find(
                                   "allocator_may_return_null=1") !=
                                   std::string::npos;
#else
  bool RealAlloc = true;
#endif
  if (RealAlloc) {
    JobRequest Bomb;
    Bomb.ModuleText = reductionSumIrText(5002);
    Bomb.NumWorkers = 2;
    Bomb.FaultAllocBytes = 1ULL << 62;
    JobReply R3;
    if (!chaosSubmit(S, C, Bomb, R3, "alloc bomb") ||
        R3.Status != JobStatus::ResourceLimit ||
        R3.Cause != FailureCause::OutOfMemory) {
      chaosFail(S, "alloc bomb: expected typed OutOfMemory verdict");
      Pass = false;
    }
  } else {
    std::fprintf(stderr, "chaos: skipping real-alloc bomb (ASan without "
                         "allocator_may_return_null=1)\n");
  }
  if (!D.alive()) {
    ++S.DaemonCrashes;
    Pass = false;
  }
  if (Pass)
    ++S.ScenariosPassed;
}

void chaosCpuLimit(ChaosStats &S) {
  ++S.ScenariosRun;
  Daemon D(16, "-chaos");
  Client C;
  std::string Err;
  if (!C.connect(D.Socket, Err, 30 * timeoutScale())) {
    chaosFail(S, "cpu limit: connect: " + Err);
    return;
  }
  bool Pass = true;
  JobRequest Req;
  Req.ModuleText = reductionSumIrText(5100);
  Req.NumWorkers = 2;
  Req.MaxCpuSec = 1;
  Req.FaultBurnCpuSec = 120;
  JobReply R;
  if (!chaosSubmit(S, C, Req, R, "cpu burn") ||
      R.Status != JobStatus::ResourceLimit ||
      R.Cause != FailureCause::CpuLimit) {
    chaosFail(S, "cpu burn: expected typed CpuLimit verdict");
    Pass = false;
  }
  if (!D.alive()) {
    ++S.DaemonCrashes;
    Pass = false;
  }
  if (Pass)
    ++S.ScenariosPassed;
}

void chaosDaemonRestart(ChaosStats &S) {
  ++S.ScenariosRun;
  bool Pass = true;
  const std::string Text = reductionSumIrText(6000);
  Daemon A(16, "-chaos");
  Client C;
  std::string Err;
  if (!C.connect(A.Socket, Err, 30 * timeoutScale())) {
    chaosFail(S, "restart: connect: " + Err);
    return;
  }
  JobRequest Req;
  Req.ModuleText = Text;
  Req.NumWorkers = 2;
  JobReply Warm;
  if (!chaosSubmit(S, C, Req, Warm, "restart warmup") ||
      Warm.Status != JobStatus::Ok)
    Pass = false;

  A.kill(); // induced: SIGKILL mid-service, stale socket left behind
  Daemon B(16, "-chaos");
  JobReply R;
  if (!chaosSubmit(S, C, Req, R, "restart resubmit") ||
      R.Status != JobStatus::Ok) {
    chaosFail(S, "restart: resubmit after daemon SIGKILL failed");
    Pass = false;
  } else {
    ++S.Retried;
    if (R.Output == sequentialOutput(Text))
      ++S.RetriedIdentical;
    else {
      chaosFail(S, "restart: resubmitted output diverged from sequential");
      Pass = false;
    }
  }
  if (C.reconnects() < 1) {
    chaosFail(S, "restart: client never reconnected");
    Pass = false;
  }
  if (!B.alive()) {
    ++S.DaemonCrashes;
    Pass = false;
  }
  if (Pass)
    ++S.ScenariosPassed;
}

void chaosSlowReader(ChaosStats &S) {
  ++S.ScenariosRun;
  ServerOptions Opts;
  Opts.SendBufBytes = 8 << 10;
  Opts.MaxConnBufferBytes = 4 << 10;
  Daemon D(16, "-chaos", Opts);
  bool Pass = true;
  {
    Client Ready;
    std::string Err;
    if (!Ready.connect(D.Socket, Err, 30 * timeoutScale())) {
      chaosFail(S, "slow reader: connect: " + Err);
      return;
    }
  }
  // Raw client: submit a chatty job and never read the reply.
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, D.Socket.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    chaosFail(S, "slow reader: raw connect failed");
    ::close(Fd);
    return;
  }
  JobRequest Req;
  Req.ModuleText = chattyIrText(20000);
  Req.Mode = JobMode::Sequential;
  std::string Body = encodeJobRequest(Req);
  std::string Frame;
  uint32_t Len = static_cast<uint32_t>(1 + Body.size());
  for (int I = 0; I < 4; ++I)
    Frame.push_back(static_cast<char>((Len >> (8 * I)) & 0xff));
  Frame.push_back(static_cast<char>(MsgType::SubmitJob));
  Frame.append(Body);
  if (::write(Fd, Frame.data(), Frame.size()) !=
      static_cast<ssize_t>(Frame.size())) {
    chaosFail(S, "slow reader: raw submit failed");
    ::close(Fd);
    return;
  }

  // The daemon must evict the stalled reader, then keep serving.
  bool Evicted = false;
  double Deadline = wallSeconds() + 60 * timeoutScale();
  while (wallSeconds() < Deadline) {
    Client Poll;
    std::string Err, Json;
    if (Poll.connect(D.Socket, Err, 1.0) && Poll.status(Json, Err) &&
        Json.find("\"slow_client_drops\": 1") != std::string::npos) {
      Evicted = true;
      break;
    }
    ::usleep(50'000);
  }
  ::close(Fd);
  if (!Evicted) {
    chaosFail(S, "slow reader: never evicted");
    Pass = false;
  }
  Client C;
  std::string Err;
  JobRequest Healthy;
  Healthy.ModuleText = reductionSumIrText(500);
  Healthy.NumWorkers = 2;
  JobReply R;
  if (!C.connect(D.Socket, Err, 30 * timeoutScale()) ||
      !chaosSubmit(S, C, Healthy, R, "post-eviction health") ||
      R.Status != JobStatus::Ok) {
    chaosFail(S, "slow reader: daemon unhealthy after eviction");
    Pass = false;
  }
  if (!D.alive()) {
    ++S.DaemonCrashes;
    Pass = false;
  }
  if (Pass)
    ++S.ScenariosPassed;
}

int runChaosReport(std::string &ChaosJson) {
  ChaosStats S;
  chaosSignalMatrix(S);
  chaosOomRetry(S);
  chaosCpuLimit(S);
  chaosDaemonRestart(S);
  chaosSlowReader(S);

  bool ZeroCrashes = S.DaemonCrashes == 0;
  bool AllTyped = S.Typed == S.Submitted;
  bool RetriesIdentical = S.RetriedIdentical == S.Retried;
  bool AllPassed = S.ScenariosPassed == S.ScenariosRun;
  char Buf[768];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\n"
      "    \"jobs_submitted\": %d,\n"
      "    \"typed_replies\": %d,\n"
      "    \"daemon_crashes\": %d,\n"
      "    \"retried_jobs\": %d,\n"
      "    \"retried_byte_identical\": %d,\n"
      "    \"scenarios_run\": %d,\n"
      "    \"scenarios_passed\": %d,\n"
      "    \"check_zero_daemon_crashes\": %s,\n"
      "    \"check_all_replies_typed\": %s,\n"
      "    \"check_retries_byte_identical\": %s\n"
      "  }",
      S.Submitted, S.Typed, S.DaemonCrashes, S.Retried, S.RetriedIdentical,
      S.ScenariosRun, S.ScenariosPassed, ZeroCrashes ? "true" : "false",
      AllTyped ? "true" : "false", RetriesIdentical ? "true" : "false");
  ChaosJson = Buf;

  std::printf("chaos: %d scenarios, %d passed; %d jobs, %d typed replies, "
              "%d daemon crashes, %d/%d retried jobs byte-identical: %s\n",
              S.ScenariosRun, S.ScenariosPassed, S.Submitted, S.Typed,
              S.DaemonCrashes, S.RetriedIdentical, S.Retried,
              ZeroCrashes && AllTyped && RetriesIdentical && AllPassed
                  ? "PASS"
                  : "FAIL");
  return ZeroCrashes && AllTyped && RetriesIdentical && AllPassed ? 0 : 1;
}

// --- Scale report --------------------------------------------------------
//
// `--scale-report` measures what the executive pool buys under fan-in: 64
// concurrent clients hammering one warm program against the same daemon
// with (a) unlimited jobs, which run on the executives themselves, and
// (b) every job setting MaxOpenFiles, so each runs in a disposable child
// forked by its executive.  The exit code enforces a >= 3x throughput
// advantage and that the pooled arm's warm hits performed zero forks (the
// supervisor_forks counter) and exactly one parse/lowering (the cold
// miss).

/// Pulls the integer after `"Key": ` out of the daemon's status JSON.
long long statusCounter(const std::string &Json, const std::string &Key) {
  size_t Pos = Json.find("\"" + Key + "\": ");
  if (Pos == std::string::npos)
    return -1;
  return std::atoll(Json.c_str() + Pos + Key.size() + 4);
}

struct ScaleArm {
  double JobsPerSec = 0;
  double P50Ms = 0, P99Ms = 0;
  int Completed = 0;
};

bool measureScaleArm(const std::string &Socket, int Clients,
                     int JobsPerClient, uint32_t MaxOpenFiles, ScaleArm &A,
                     std::string &Err) {
  JobRequest Req;
  Req.ModuleText = reductionSumIrText(321);
  Req.NumWorkers = 2;
  Req.Mode = JobMode::Sequential;
  Req.MaxOpenFiles = MaxOpenFiles;

  // One cold submit so neither arm pays the pipeline during measurement.
  {
    Client C;
    JobReply R;
    if (!C.connect(Socket, Err, 30 * timeoutScale()) ||
        !C.submit(Req, R, Err, 600 * timeoutScale()))
      return false;
    if (R.Status != JobStatus::Ok) {
      Err = std::string("scale warmup: ") + jobStatusName(R.Status) + ": " +
            R.Error;
      return false;
    }
  }

  std::vector<std::thread> Threads;
  std::vector<std::string> Errors(Clients);
  std::vector<std::vector<double>> Lat(Clients);
  double T0 = wallSeconds();
  for (int I = 0; I < Clients; ++I)
    Threads.emplace_back([&, I] {
      Client C;
      std::string E;
      if (!C.connect(Socket, E, 30 * timeoutScale())) {
        Errors[I] = E;
        return;
      }
      for (int J = 0; J < JobsPerClient; ++J) {
        double S0 = wallSeconds();
        JobReply R;
        if (!C.submit(Req, R, E, 600 * timeoutScale()) ||
            R.Status != JobStatus::Ok) {
          Errors[I] = E.empty() ? R.Error : E;
          return;
        }
        Lat[I].push_back((wallSeconds() - S0) * 1e3);
      }
    });
  for (auto &Th : Threads)
    Th.join();
  double Elapsed = wallSeconds() - T0;
  for (const std::string &E : Errors)
    if (!E.empty()) {
      Err = E;
      return false;
    }
  std::vector<double> All;
  for (const auto &L : Lat)
    All.insert(All.end(), L.begin(), L.end());
  std::sort(All.begin(), All.end());
  A.Completed = static_cast<int>(All.size());
  A.JobsPerSec = Elapsed > 0 ? All.size() / Elapsed : 0;
  if (!All.empty()) {
    A.P50Ms = All[All.size() / 2];
    A.P99Ms = All[std::min(All.size() - 1, All.size() * 99 / 100)];
  }
  return true;
}

int runScaleReport(std::string &ScaleJson) {
  constexpr int Clients = 64, JobsPerClient = 8;
  constexpr unsigned Budget = 64;

  ServerOptions Opts;
  Opts.Executives = 8;
  Opts.QueueDepth = 256;

  // Pooled arm: pre-warmed executives, zero fork on the warm path.
  ScaleArm Pooled;
  long long Forks = -1, Misses = -1, PoolDispatches = -1;
  {
    Daemon D(Budget, "-scale-pool", Opts);
    std::string Err;
    if (!measureScaleArm(D.Socket, Clients, JobsPerClient, 0, Pooled, Err)) {
      std::fprintf(stderr, "scale (pooled): %s\n", Err.c_str());
      return 1;
    }
    Client C;
    std::string Json;
    if (C.connect(D.Socket, Err, 10 * timeoutScale()) &&
        C.status(Json, Err)) {
      Forks = statusCounter(Json, "supervisor_forks");
      Misses = statusCounter(Json, "cache_misses");
      PoolDispatches = statusCounter(Json, "pool_dispatches");
    }
  }

  // Limited arm: the identical daemon, with every job wearing an rlimit,
  // so each pays the fork of a disposable child.
  ScaleArm Limited;
  {
    Daemon D(Budget, "-scale-limited", Opts);
    std::string Err;
    if (!measureScaleArm(D.Socket, Clients, JobsPerClient, 1024, Limited,
                         Err)) {
      std::fprintf(stderr, "scale (limited): %s\n", Err.c_str());
      return 1;
    }
  }

  double Ratio =
      Limited.JobsPerSec > 0 ? Pooled.JobsPerSec / Limited.JobsPerSec : 0;
  bool RatioPass = Ratio >= 3.0;
  // Warm hits must have skipped fork AND parse/lowering: one cold miss,
  // zero forks, every job answered by the pool.
  bool ZeroForkWarm = Forks == 0 && Misses == 1 &&
                      PoolDispatches >= Clients * JobsPerClient;

  std::printf("scale: pooled %.1f jobs/s (p50 %.2f ms, p99 %.2f ms), "
              "limited %.1f jobs/s (p50 %.2f ms, p99 %.2f ms), "
              "%.2fx (need >=3x)\n",
              Pooled.JobsPerSec, Pooled.P50Ms, Pooled.P99Ms,
              Limited.JobsPerSec, Limited.P50Ms, Limited.P99Ms, Ratio);
  std::printf("scale: pooled arm counters: supervisor_forks=%lld "
              "cache_misses=%lld pool_dispatches=%lld (zero-fork warm path: "
              "%s)\n",
              Forks, Misses, PoolDispatches, ZeroForkWarm ? "yes" : "NO");

  char Buf[1024];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\n"
      "    \"concurrent_clients\": %d,\n"
      "    \"jobs_per_client\": %d,\n"
      "    \"pooled_jobs_per_sec\": %.2f,\n"
      "    \"pooled_p50_ms\": %.3f,\n"
      "    \"pooled_p99_ms\": %.3f,\n"
      "    \"limited_jobs_per_sec\": %.2f,\n"
      "    \"limited_p50_ms\": %.3f,\n"
      "    \"limited_p99_ms\": %.3f,\n"
      "    \"pool_speedup\": %.2f,\n"
      "    \"pooled_supervisor_forks\": %lld,\n"
      "    \"pooled_cache_misses\": %lld,\n"
      "    \"pooled_pool_dispatches\": %lld,\n"
      "    \"check_pool_speedup_ge_3x\": %s,\n"
      "    \"check_zero_fork_warm_path\": %s\n"
      "  }",
      Clients, JobsPerClient, Pooled.JobsPerSec, Pooled.P50Ms, Pooled.P99Ms,
      Limited.JobsPerSec, Limited.P50Ms, Limited.P99Ms, Ratio, Forks, Misses,
      PoolDispatches, RatioPass ? "true" : "false",
      ZeroForkWarm ? "true" : "false");
  ScaleJson = Buf;

  std::printf("scale report: %s\n", RatioPass && ZeroForkWarm ? "PASS"
                                                              : "FAIL");
  return RatioPass && ZeroForkWarm ? 0 : 1;
}

int runServiceReport(const std::string &Path, const std::string &ChaosJson,
                     const std::string &ScaleJson) {
  Daemon D(16);
  std::string Err;
  {
    Client Probe;
    if (!Probe.connect(D.Socket, Err, 30 * timeoutScale())) {
      std::fprintf(stderr, "daemon did not come up: %s\n", Err.c_str());
      return 1;
    }
  }

  // Cold samples: distinct module texts, so every one is a cache miss.
  // Warm samples: resubmissions of the first text.
  constexpr int ColdSamples = 5, WarmSamples = 10;
  std::vector<double> ColdMs, WarmMs;
  {
    Client C;
    if (!C.connect(D.Socket, Err)) {
      std::fprintf(stderr, "connect: %s\n", Err.c_str());
      return 1;
    }
    for (int I = 0; I < ColdSamples; ++I) {
      JobRequest Req;
      Req.ModuleText = heavyProgram(I);
      Req.Mode = JobMode::Sequential;
      Req.NumWorkers = 2;
      double Ms;
      JobReply R;
      if (!timedSubmit(C, Req, Ms, R, Err)) {
        std::fprintf(stderr, "cold submit %d: %s\n", I, Err.c_str());
        return 1;
      }
      if (R.CacheHit) {
        std::fprintf(stderr, "cold submit %d unexpectedly hit the cache\n", I);
        return 1;
      }
      ColdMs.push_back(Ms);
    }
    for (int I = 0; I < WarmSamples; ++I) {
      JobRequest Req;
      Req.ModuleText = heavyProgram(0);
      Req.Mode = JobMode::Sequential;
      Req.NumWorkers = 2;
      double Ms;
      JobReply R;
      if (!timedSubmit(C, Req, Ms, R, Err)) {
        std::fprintf(stderr, "warm submit %d: %s\n", I, Err.c_str());
        return 1;
      }
      if (!R.CacheHit) {
        std::fprintf(stderr, "warm submit %d missed the cache\n", I);
        return 1;
      }
      WarmMs.push_back(Ms);
    }
  }
  double Cold = median(ColdMs), Warm = median(WarmMs);
  double Speedup = Warm > 0 ? Cold / Warm : 0;
  std::printf("cold submit: %.2f ms median (%d samples)\n", Cold, ColdSamples);
  std::printf("warm submit: %.2f ms median (%d samples), speedup %.1fx\n",
              Warm, WarmSamples, Speedup);

  Throughput T;
  if (!measureThroughput(D.Socket, T, Err)) {
    std::fprintf(stderr, "throughput: %s\n", Err.c_str());
    return 1;
  }
  std::printf("throughput: %.1f jobs/s (1 client), %.1f jobs/s (4 clients), "
              "%.2fx\n",
              T.JobsPerSec1, T.JobsPerSec4, T.JobsPerSec4 / T.JobsPerSec1);

  bool Survived = measureKillSurvival(D.Socket, Err);
  if (!Survived)
    std::fprintf(stderr, "supervisor-kill survival: %s\n", Err.c_str());
  std::printf("supervisor-kill survival: %s\n", Survived ? "yes" : "NO");

  bool SpeedupPass = Speedup >= 5.0;
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return 1;
  }
  auto List = [&](const std::vector<double> &V) {
    std::fprintf(Out, "[");
    for (size_t I = 0; I < V.size(); ++I)
      std::fprintf(Out, "%s%.3f", I ? ", " : "", V[I]);
    std::fprintf(Out, "]");
  };
  std::fprintf(Out, "{\n  \"cold_ms\": ");
  List(ColdMs);
  std::fprintf(Out, ",\n  \"warm_ms\": ");
  List(WarmMs);
  std::fprintf(Out,
               ",\n  \"cold_median_ms\": %.3f,\n  \"warm_median_ms\": %.3f,\n"
               "  \"warm_speedup\": %.2f,\n"
               "  \"jobs_per_sec_1_client\": %.2f,\n"
               "  \"jobs_per_sec_4_clients\": %.2f,\n"
               "  \"client_scaling\": %.2f,\n"
               "  \"supervisor_kill_survived\": %s,\n"
               "  \"check_warm_speedup_ge_5x\": %s",
               Cold, Warm, Speedup, T.JobsPerSec1, T.JobsPerSec4,
               T.JobsPerSec1 > 0 ? T.JobsPerSec4 / T.JobsPerSec1 : 0,
               Survived ? "true" : "false", SpeedupPass ? "true" : "false");
  if (!ChaosJson.empty())
    std::fprintf(Out, ",\n  \"chaos\": %s", ChaosJson.c_str());
  if (!ScaleJson.empty())
    std::fprintf(Out, ",\n  \"scale\": %s", ScaleJson.c_str());
  std::fprintf(Out, "\n}\n");
  std::fclose(Out);
  std::printf("service report written to %s; warm speedup %.1fx (need "
              ">=5x): %s\n",
              Path.c_str(), Speedup,
              SpeedupPass && Survived ? "PASS" : "FAIL");
  return SpeedupPass && Survived ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Path = "BENCH_service.json";
  bool DoService = false, DoChaos = false, DoScale = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A(Argv[I]);
    if (A.rfind("--service-report=", 0) == 0) {
      Path = A.substr(sizeof("--service-report=") - 1);
      DoService = true;
    } else if (A == "--service-report") {
      DoService = true;
    } else if (A.rfind("--chaos-report=", 0) == 0) {
      Path = A.substr(sizeof("--chaos-report=") - 1);
      DoChaos = true;
    } else if (A == "--chaos-report") {
      DoChaos = true;
    } else if (A.rfind("--scale-report=", 0) == 0) {
      Path = A.substr(sizeof("--scale-report=") - 1);
      DoScale = true;
    } else if (A == "--scale-report") {
      DoScale = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--service-report[=path]] "
                   "[--chaos-report[=path]] [--scale-report[=path]]\n",
                   Argv[0]);
      return 2;
    }
  }
  if (!DoService && !DoChaos && !DoScale)
    DoService = true;

  int Rc = 0;
  std::string ChaosJson, ScaleJson;
  if (DoChaos)
    Rc |= runChaosReport(ChaosJson);
  if (DoScale)
    Rc |= runScaleReport(ScaleJson);
  if (DoService) {
    Rc |= runServiceReport(Path, ChaosJson, ScaleJson);
  } else {
    // Chaos/scale-only invocations still leave a machine-readable artifact.
    std::FILE *Out = std::fopen(Path.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
      return 1;
    }
    std::fprintf(Out, "{");
    bool Any = false;
    if (!ChaosJson.empty()) {
      std::fprintf(Out, "\n  \"chaos\": %s", ChaosJson.c_str());
      Any = true;
    }
    if (!ScaleJson.empty()) {
      std::fprintf(Out, "%s\n  \"scale\": %s", Any ? "," : "",
                   ScaleJson.c_str());
      Any = true;
    }
    std::fprintf(Out, "\n}\n");
    std::fclose(Out);
    std::printf("report written to %s\n", Path.c_str());
  }
  return Rc;
}
