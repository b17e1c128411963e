//===- tests/ServicePoolTest.cpp - Executive pool and admission -----------===//
//
// The warm path: pre-warmed executive processes (warm hits fork nothing
// and parse nothing), crash-triage + respawn of a dead executive, clean
// pool drain on SIGTERM, FIFO admission (queued jobs start in arrival
// order), the bounded idempotency replay window, and LRU (not FIFO)
// program-cache eviction.
//
//===----------------------------------------------------------------------===//

#include "ServiceTestUtil.h"
#include "ir/IRParser.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "transform/Pipeline.h"
#include "workloads/IrPrograms.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

using namespace privateer;
using namespace privateer::service;
using namespace privateer::servicetest;

namespace {

JobRequest quickJob(unsigned Salt = 1000) {
  JobRequest Req;
  Req.ModuleText = reductionSumIrText(Salt);
  Req.NumWorkers = 2;
  return Req;
}

/// A job that holds its execution slot for ~\p BurnSec of cpu time before
/// producing a normal reply — the admission-order test uses it to build a
/// queue.
JobRequest burnJob(double BurnSec, unsigned Salt = 1000) {
  JobRequest Req = quickJob(Salt);
  Req.FaultBurnCpuSec = BurnSec;
  return Req;
}

// The pool's acceptance criterion: with the pool enabled, a cold job plus
// N warm resubmissions perform exactly one parse/lowering and zero
// supervisor forks — every job is answered by a pre-warmed executive that
// got the program image over SCM_RIGHTS.
TEST(ServicePool, WarmHitsSkipForkAndParse) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.Executives = 2;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  constexpr int WarmJobs = 5;
  for (int I = 0; I < 1 + WarmJobs; ++I) {
    JobReply R;
    ASSERT_TRUE(C.submit(quickJob(), R, Err, 300 * timeoutScale())) << Err;
    ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
    EXPECT_EQ(R.CacheHit, I > 0);
  }

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "supervisor_forks"), 0) << Json;
  EXPECT_EQ(jsonInt(Json, "cache_misses"), 1) << Json;
  EXPECT_EQ(jsonInt(Json, "pool_dispatches"), 1 + WarmJobs) << Json;
  EXPECT_EQ(jsonInt(Json, "executives"), 2) << Json;
}

// A DOACROSS job rides the same warm path: the lowered image carries the
// dependence-channel metadata, so warm resubmissions replay it from a
// pre-warmed executive with zero supervisor forks and one compile — and
// every token-scheduled run is byte-identical to sequential execution.
TEST(ServicePool, DoacrossWarmHitsReplayImage) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.Executives = 2;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  const std::string Text = scalarCarryIrText(300);
  std::string Expected;
  {
    std::string PErr;
    auto M = ir::parseModule(Text, PErr);
    ASSERT_NE(M, nullptr) << PErr;
    char *Buf = nullptr;
    size_t Len = 0;
    std::FILE *Out = open_memstream(&Buf, &Len);
    transform::executeSequential(*M, transform::PipelineOptions(), Out);
    std::fclose(Out);
    Expected.assign(Buf, Len);
    std::free(Buf);
  }
  ASSERT_FALSE(Expected.empty());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  JobRequest Req;
  Req.ModuleText = Text;
  Req.NumWorkers = 2;
  Req.Strat = static_cast<uint8_t>(Strategy::Doacross);

  constexpr int WarmJobs = 4;
  for (int I = 0; I < 1 + WarmJobs; ++I) {
    JobReply R;
    ASSERT_TRUE(C.submit(Req, R, Err, 300 * timeoutScale())) << Err;
    ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
    EXPECT_EQ(R.CacheHit, I > 0);
    EXPECT_EQ(R.Output, Expected) << "job " << I << " diverged";
    EXPECT_GT(R.Iterations, 0u);
  }

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "supervisor_forks"), 0) << Json;
  EXPECT_EQ(jsonInt(Json, "cache_misses"), 1) << Json;
  EXPECT_EQ(jsonInt(Json, "pool_dispatches"), 1 + WarmJobs) << Json;
  ASSERT_TRUE(D.alive());
}

// A job with irregular reduction updates rides the warm path too: the
// image carries the reduction-global registration table, so pre-warmed
// executives replay the loop byte-exactly with zero misspeculation, and
// the daemon folds the reply's com stats into its status JSON ("com"
// counter group).
TEST(ServicePool, CommutativeWarmHitsReplayImage) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.Executives = 2;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  const std::string Text = histogramIrText(600, 128, 4);
  std::string Expected;
  {
    std::string PErr;
    auto M = ir::parseModule(Text, PErr);
    ASSERT_NE(M, nullptr) << PErr;
    char *Buf = nullptr;
    size_t Len = 0;
    std::FILE *Out = open_memstream(&Buf, &Len);
    transform::executeSequential(*M, transform::PipelineOptions(), Out);
    std::fclose(Out);
    Expected.assign(Buf, Len);
    std::free(Buf);
  }
  ASSERT_FALSE(Expected.empty());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  JobRequest Req;
  Req.ModuleText = Text;
  Req.NumWorkers = 4;

  constexpr int WarmJobs = 4;
  for (int I = 0; I < 1 + WarmJobs; ++I) {
    JobReply R;
    ASSERT_TRUE(C.submit(Req, R, Err, 300 * timeoutScale())) << Err;
    ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
    EXPECT_EQ(R.CacheHit, I > 0);
    EXPECT_EQ(R.Output, Expected) << "job " << I << " diverged";
    EXPECT_EQ(R.Misspecs, 0u)
        << "job " << I << " misspeculated: " << R.MisspecReason;
    EXPECT_GT(R.ComRecordsCommitted, 0u) << "job " << I;
  }

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "supervisor_forks"), 0) << Json;
  EXPECT_EQ(jsonInt(Json, "cache_misses"), 1) << Json;
  EXPECT_GT(jsonInt(Json, "records-committed"), 0) << Json;
  ASSERT_TRUE(D.alive());
}

/// The status JSON's counter groups, group -> key -> value.  toJson()
/// writes {"group": {"key": value, ...}, ...} with no deeper nesting, so
/// each group ends at its first '}'.
std::map<std::string, std::map<std::string, long long>>
counterGroups(const std::string &Json) {
  std::map<std::string, std::map<std::string, long long>> Groups;
  const std::string Head = "\"counters\": {";
  size_t P = Json.find(Head);
  if (P == std::string::npos)
    return Groups;
  P += Head.size();
  while (P < Json.size() && Json[P] == '"') {
    size_t GEnd = Json.find('"', P + 1);
    std::string Group = Json.substr(P + 1, GEnd - P - 1);
    size_t Close = Json.find('}', GEnd);
    for (size_t K = Json.find('"', GEnd + 1); K < Close;) {
      size_t KEnd = Json.find('"', K + 1);
      Groups[Group][Json.substr(K + 1, KEnd - K - 1)] =
          std::atoll(Json.c_str() + KEnd + 3);
      K = Json.find('"', KEnd + 1);
    }
    P = Close + 1;
    if (Json.compare(P, 2, ", ") == 0)
      P += 2;
  }
  return Groups;
}

// Every runtime counter reaches the status JSON: a reply carries the whole
// stats schema and the daemon folds it into its registry.  A pooled
// speculative job with injected misspeculation shows in counters the
// daemon used to drop.  Status readers (jsonInt here, the benchmark's
// statusCounter) take the first `"<key>": ` they find, so no counter key
// may appear twice anywhere in the document.  The forked daemon starts
// from this process's registry, which earlier tests in the same process
// may have counted into, so the test checks its own job's delta.
TEST(ServicePool, StatusFoldsEveryRuntimeCounter) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.Executives = 1;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
  std::string Before;
  ASSERT_TRUE(C.status(Before, Err)) << Err;
  JobRequest Req;
  Req.ModuleText = fpPricingIrText(2000);
  Req.NumWorkers = 2;
  Req.CheckpointPeriod = 16;
  Req.InjectMisspecRate = 0.05;
  Req.InjectSeed = 3;
  JobReply R;
  ASSERT_TRUE(C.submit(Req, R, Err, 300 * timeoutScale())) << Err;
  ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
  EXPECT_GE(R.Misspecs, 1u);

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "pool_dispatches") -
                jsonInt(Before, "pool_dispatches"),
            1)
      << Json;
  auto Groups = counterGroups(Json);
  auto Base = counterGroups(Before);
  auto Delta = [&](const char *Group, const char *Key) {
    return Groups[Group][Key] - Base[Group][Key];
  };
  EXPECT_GE(Delta("runtime", "misspecs"), 1) << Json;
  EXPECT_GT(Delta("runtime", "recovered_iters"), 0) << Json;
  EXPECT_GT(Delta("checkpoint", "dirty_chunks"), 0) << Json;
  EXPECT_EQ(Delta("runtime", "iterations"),
            static_cast<long long>(R.Iterations))
      << Json;
  for (const auto &[Group, Keys] : Groups)
    for (const auto &[Key, Value] : Keys) {
      std::string Needle = "\"" + Key + "\": ";
      size_t First = Json.find(Needle);
      EXPECT_EQ(Json.find(Needle, First + 1), std::string::npos)
          << Group << "." << Key << " is not the only \"" << Key << "\"";
    }
  ASSERT_TRUE(D.alive());
}

// An executive SIGKILLed mid-job gets the PR 6 supervisor triage — a
// typed Crashed/Signal verdict on that job only — and a replacement
// executive, with the next job served from the pool as usual.
TEST(ServicePool, ExecutiveCrashIsTriagedAndReplaced) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.Executives = 1; // the crash must drain the whole pool momentarily
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  JobRequest Bad = quickJob();
  Bad.FaultKillSupervisor = true;
  JobReply R;
  ASSERT_TRUE(C.submit(Bad, R, Err, 300 * timeoutScale())) << Err;
  EXPECT_EQ(R.Status, JobStatus::Crashed) << R.Error;
  EXPECT_EQ(R.Cause, FailureCause::Signal);
  EXPECT_EQ(R.TermSignal, SIGKILL);
  EXPECT_NE(R.Error.find("signal 9"), std::string::npos) << R.Error;

  JobReply R2;
  ASSERT_TRUE(C.submit(quickJob(), R2, Err, 300 * timeoutScale())) << Err;
  EXPECT_EQ(R2.Status, JobStatus::Ok) << R2.Error;

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_GE(jsonInt(Json, "executives_respawned"), 1) << Json;
  EXPECT_EQ(jsonInt(Json, "executives"), 1) << Json;
  EXPECT_EQ(jsonInt(Json, "supervisor_forks"), 0) << Json;
  ASSERT_TRUE(D.alive());
}

// Every executive runs with RLIMIT_CORE 0 from the moment it is forked:
// one killed by SIGSEGV or SIGABRT must not write a core of its tagged
// heaps, whether or not its job wore rlimits.
TEST(ServicePool, ExecutivesNeverDumpCore) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.Executives = 3;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());
  waitForStatus(D.socket(), [](const std::string &) { return true; });

  std::vector<pid_t> Executives;
  DIR *Proc = ::opendir("/proc");
  ASSERT_NE(Proc, nullptr);
  while (dirent *Ent = ::readdir(Proc)) {
    pid_t Pid = static_cast<pid_t>(std::atoi(Ent->d_name));
    if (Pid <= 0)
      continue;
    // /proc/<pid>/stat: "pid (comm) state ppid ..."; comm may hold spaces,
    // so parse after the last ')'.
    std::ifstream Stat("/proc/" + std::to_string(Pid) + "/stat");
    std::string Line;
    if (!std::getline(Stat, Line) || Line.rfind(')') == std::string::npos)
      continue;
    std::istringstream Rest(Line.substr(Line.rfind(')') + 1));
    char State;
    pid_t Parent = 0;
    if (Rest >> State >> Parent && Parent == D.pid())
      Executives.push_back(Pid);
  }
  ::closedir(Proc);
  ASSERT_EQ(Executives.size(), 3u);

  for (pid_t Pid : Executives) {
    std::ifstream Limits("/proc/" + std::to_string(Pid) + "/limits");
    std::string Line;
    bool Found = false;
    while (std::getline(Limits, Line))
      if (Line.rfind("Max core file size", 0) == 0) {
        Found = true;
        std::istringstream Fields(Line.substr(18));
        std::string Soft, Hard;
        Fields >> Soft >> Hard;
        EXPECT_EQ(Soft, "0") << "executive " << Pid << ": " << Line;
        EXPECT_EQ(Hard, "0") << "executive " << Pid << ": " << Line;
      }
    EXPECT_TRUE(Found) << "executive " << Pid << " has no core limit line";
  }
  ASSERT_TRUE(D.alive());
}

// SIGTERM drains the queue, then the pool: every executive gets a clean
// channel close and the daemon exits 0 with no orphans holding the
// socket.
TEST(ServicePool, SigtermDrainsPoolAndExitsZero) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.Executives = 3;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
  JobReply R;
  ASSERT_TRUE(C.submit(quickJob(), R, Err, 300 * timeoutScale())) << Err;
  ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;

  EXPECT_EQ(D.signalAndWait(SIGTERM), 0);
  // The daemon unlinked its socket on the way out; a fresh daemon can
  // bind the same path immediately (no EADDRINUSE from leaked children).
  ServerOptions Again = Opts;
  ForkedDaemon D2(Again);
  ASSERT_TRUE(D2.forked());
  service::Client C2;
  ASSERT_TRUE(C2.connect(D2.socket(), Err, 10 * timeoutScale())) << Err;
  JobReply R2;
  ASSERT_TRUE(C2.submit(quickJob(), R2, Err, 300 * timeoutScale())) << Err;
  EXPECT_EQ(R2.Status, JobStatus::Ok) << R2.Error;
}

/// Runs the admission-order experiment: \p NumJobs burning jobs are
/// submitted one after another against a budget that serves one job at a
/// time, and the completion order is returned as submission indexes.
/// Each submission waits until the daemon has accepted the one before it,
/// so arrival order is submission order.
std::vector<int> completionOrder(const std::string &Socket, int NumJobs,
                                 std::string &FirstErr) {
  std::mutex Mu;
  std::vector<int> Done;
  std::vector<std::thread> Threads;
  long long Accepted = jsonInt(
      waitForStatus(Socket, [](const std::string &) { return true; }),
      "jobs_accepted");
  for (int I = 0; I < NumJobs; ++I) {
    Threads.emplace_back([&, I] {
      service::Client C;
      std::string Err;
      if (!C.connect(Socket, Err, 10 * timeoutScale())) {
        std::lock_guard<std::mutex> L(Mu);
        if (FirstErr.empty())
          FirstErr = "connect: " + Err;
        return;
      }
      // Burn long enough that a queue builds behind the head job.
      JobReply R;
      if (!C.submit(burnJob(0.2 * timeoutScale()), R, Err,
                    600 * timeoutScale()) ||
          R.Status != JobStatus::Ok) {
        std::lock_guard<std::mutex> L(Mu);
        if (FirstErr.empty())
          FirstErr = Err.empty() ? R.Error : Err;
        return;
      }
      std::lock_guard<std::mutex> L(Mu);
      Done.push_back(I);
    });
    ++Accepted;
    waitForStatus(Socket, [Accepted](const std::string &Json) {
      return jsonInt(Json, "jobs_accepted") >= Accepted;
    });
  }
  for (auto &T : Threads)
    T.join();
  return Done;
}

// Admission is FIFO: with one job running at a time, eight queued jobs
// complete exactly in the order they arrived — no job overtakes another.
TEST(ServicePool, QueuedJobsStartInArrivalOrder) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 3; // one NumWorkers=2 job at a time
  Opts.QueueDepth = 32;
  Opts.Executives = 1; // the order is admission's, not the pool's
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  constexpr int NumJobs = 8;
  std::string Err;
  std::vector<int> Done = completionOrder(D.socket(), NumJobs, Err);
  ASSERT_TRUE(Err.empty()) << Err;
  std::vector<int> Arrival(NumJobs);
  for (int I = 0; I < NumJobs; ++I)
    Arrival[I] = I;
  EXPECT_EQ(Done, Arrival);

  std::string Json;
  service::Client C;
  ASSERT_TRUE(C.connect(D.socket(), Err)) << Err;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "jobs_completed"), NumJobs) << Json;
}

// The idempotency replay window holds ReplayEntries finished replies:
// with a window of 2, the oldest of three keys ages out and the newest
// still replays.
TEST(ServicePool, ReplayWindowAgesOutOldestKey) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.ReplayEntries = 2;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
  JobRequest Req = quickJob();
  for (uint64_t K = 201; K <= 203; ++K) {
    Req.IdempotencyKey = K;
    JobReply R;
    ASSERT_TRUE(C.submit(Req, R, Err, 300 * timeoutScale())) << Err;
    ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
    EXPECT_FALSE(R.IdempotentReplay);
  }

  Req.IdempotencyKey = 203;
  JobReply R;
  ASSERT_TRUE(C.submit(Req, R, Err, 300 * timeoutScale())) << Err;
  EXPECT_TRUE(R.IdempotentReplay);
  Req.IdempotencyKey = 201;
  JobReply R2;
  ASSERT_TRUE(C.submit(Req, R2, Err, 300 * timeoutScale())) << Err;
  EXPECT_FALSE(R2.IdempotentReplay);
}

// Program-cache eviction is LRU keyed by last hit, not FIFO by insertion:
// renewing the oldest entry with a hit redirects the next eviction to
// the stale one.
TEST(ServicePool, CacheEvictionIsLruNotFifo) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.CacheEntries = 2;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  auto Submit = [&](unsigned Salt, bool &Hit) {
    JobReply R;
    ASSERT_TRUE(C.submit(quickJob(Salt), R, Err, 300 * timeoutScale()))
        << Err;
    ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
    Hit = R.CacheHit;
  };

  bool Hit = false;
  Submit(101, Hit); // P1: miss, cache {P1}
  EXPECT_FALSE(Hit);
  Submit(102, Hit); // P2: miss, cache {P1, P2} (full)
  EXPECT_FALSE(Hit);
  Submit(101, Hit); // P1 again: hit — renews P1's lease
  EXPECT_TRUE(Hit);
  Submit(103, Hit); // P3: miss — must evict P2 (LRU), not P1 (FIFO)
  EXPECT_FALSE(Hit);
  Submit(101, Hit); // P1 must have survived
  EXPECT_TRUE(Hit) << "LRU eviction dropped the most recently hit entry";

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "cache_misses"), 3) << Json;
  EXPECT_GE(jsonInt(Json, "cache_evictions"), 1) << Json;
}

} // namespace
