//===- tests/ServicePoolTest.cpp - Executive pool, WFQ, tenancy -----------===//
//
// The horizontal-scaling layer: pre-warmed executive processes (warm hits
// fork nothing and parse nothing), crash-triage + respawn of a dead
// executive, clean pool drain on SIGTERM, weighted fair queuing across
// tenants (no starvation under a flood; heavier weights drain faster),
// per-tenant token metering, per-tenant idempotency replay windows, and
// LRU (not FIFO) program-cache eviction.
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
#include <map>
#include <mutex>
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
/// producing a normal reply — the WFQ tests use it to build a queue.
JobRequest burnJob(double BurnSec, unsigned Salt = 1000) {
  JobRequest Req = quickJob(Salt);
  Req.FaultBurnCpuSec = BurnSec;
  return Req;
}

// The pool's acceptance criterion: with the pool enabled and memfd
// submission on, a cold job plus N warm resubmissions perform
// exactly one parse/lowering and zero supervisor forks — every job is
// answered by a pre-warmed executive that got the program image over
// SCM_RIGHTS.
TEST(ServicePool, WarmHitsSkipForkAndParse) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.Executives = 2;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  C.Tenant = "pool-test";
  C.UseMemfd = true;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;

  constexpr int WarmJobs = 5;
  for (int I = 0; I < 1 + WarmJobs; ++I) {
    JobReply R;
    ASSERT_TRUE(C.submit(quickJob(), R, Err, 300 * timeoutScale())) << Err;
    ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
    EXPECT_EQ(R.CacheHit, I > 0);
  }
  EXPECT_EQ(C.memfdSubmits(), 1u + WarmJobs);

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "supervisor_forks"), 0) << Json;
  EXPECT_EQ(jsonInt(Json, "cache_misses"), 1) << Json;
  EXPECT_EQ(jsonInt(Json, "pool_dispatches"), 1 + WarmJobs) << Json;
  EXPECT_EQ(jsonInt(Json, "memfd_submissions"), 1 + WarmJobs) << Json;
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
  C.Tenant = "pool-doacross";
  C.UseMemfd = true;
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
  EXPECT_EQ(jsonInt(Json, "memfd_submissions"), 1 + WarmJobs) << Json;
  ASSERT_TRUE(D.alive());
}

// A commutative-heap job (sixth heap) rides the warm path too: the v3
// image carries the com-global registration table, so pre-warmed
// executives replay deferred-update loops byte-exactly with zero
// misspeculation, and the daemon folds the reply's com stats into its
// status JSON ("com" counter group).
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
  C.Tenant = "pool-com";
  C.UseMemfd = true;
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
    EXPECT_GT(R.ComUpdates, 0u) << "job " << I;
    EXPECT_GT(R.ComRecordsCommitted, 0u) << "job " << I;
  }

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "supervisor_forks"), 0) << Json;
  EXPECT_EQ(jsonInt(Json, "cache_misses"), 1) << Json;
  EXPECT_EQ(jsonInt(Json, "memfd_submissions"), 1 + WarmJobs) << Json;
  EXPECT_GT(jsonInt(Json, "updates"), 0) << Json;
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
// may appear twice anywhere in the document.
TEST(ServicePool, StatusFoldsEveryRuntimeCounter) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.Executives = 1;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
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
  EXPECT_EQ(jsonInt(Json, "pool_dispatches"), 1) << Json;
  auto Groups = counterGroups(Json);
  EXPECT_GE(Groups["runtime"]["misspecs"], 1) << Json;
  EXPECT_GT(Groups["runtime"]["recovered_iters"], 0) << Json;
  EXPECT_GT(Groups["checkpoint"]["dirty_chunks"], 0) << Json;
  EXPECT_EQ(Groups["runtime"]["iterations"],
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

/// Runs the WFQ contention experiment: jobs are submitted in \p Order
/// (tenant id per job) against a budget that serves one job at a time,
/// and the completion order is returned as indexes into \p Order.
std::vector<int> wfqCompletionOrder(const std::string &Socket,
                                    const std::vector<std::string> &Order,
                                    std::string &FirstErr) {
  std::mutex Mu;
  std::vector<int> Done;
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Order.size(); ++I) {
    Threads.emplace_back([&, I] {
      service::Client C;
      C.Tenant = Order[I];
      std::string Err;
      if (!C.connect(Socket, Err, 10 * timeoutScale())) {
        std::lock_guard<std::mutex> L(Mu);
        if (FirstErr.empty())
          FirstErr = "connect: " + Err;
        return;
      }
      // Burn scales with the stagger below so a queue still builds when
      // sanitizer CI stretches the timeout scale.
      JobRequest Req = burnJob(0.2 * timeoutScale());
      Req.TenantId = Order[I];
      JobReply R;
      if (!C.submit(Req, R, Err, 600 * timeoutScale()) ||
          R.Status != JobStatus::Ok) {
        std::lock_guard<std::mutex> L(Mu);
        if (FirstErr.empty())
          FirstErr = Err.empty() ? R.Error : Err;
        return;
      }
      std::lock_guard<std::mutex> L(Mu);
      Done.push_back(static_cast<int>(I));
    });
    // Stagger the submissions so the daemon sees them in index order and
    // a queue builds behind the burning head job.
    ::usleep(static_cast<useconds_t>(60'000 * timeoutScale()));
  }
  for (auto &T : Threads)
    T.join();
  return Done;
}

// Fairness under a flood: tenant A queues six jobs before tenant B's two
// arrive.  FIFO would serve B last (positions 7 and 8); start-time fair
// queuing interleaves, so both of B's jobs finish well before A's flood
// drains.
TEST(ServiceWfq, FloodedTenantDoesNotStarveOthers) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 3; // one NumWorkers=2 job at a time
  Opts.QueueDepth = 32;
  Opts.Executives = 0; // WFQ is in admission, not the execution backend
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  std::vector<std::string> Order = {"flood", "flood", "flood", "flood",
                                    "flood", "flood", "victim", "victim"};
  std::string Err;
  std::vector<int> Done = wfqCompletionOrder(D.socket(), Order, Err);
  ASSERT_TRUE(Err.empty()) << Err;
  ASSERT_EQ(Done.size(), Order.size());

  // Completion rank of each of victim's jobs (indexes 6 and 7).
  int WorstVictimRank = -1;
  for (size_t Rank = 0; Rank < Done.size(); ++Rank)
    if (Order[Done[Rank]] == "victim")
      WorstVictimRank = static_cast<int>(Rank);
  // Under FIFO the victim's second job completes last (rank 7); under
  // WFQ both victim jobs interleave into the flood's fair share.
  EXPECT_LE(WorstVictimRank, 5) << "victim starved behind the flood";

  std::string Json;
  service::Client C;
  ASSERT_TRUE(C.connect(D.socket(), Err)) << Err;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "jobs_completed"), 8) << Json;
}

// Weights skew the interleave: a weight-3 tenant's jobs accrue virtual
// finish tags three times slower, so its backlog drains ahead of an
// equal backlog from a weight-1 tenant.
TEST(ServiceWfq, HeavierWeightDrainsProportionallyFaster) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 3;
  Opts.QueueDepth = 32;
  Opts.Executives = 0;
  TenantConfig Heavy;
  Heavy.Id = "heavy";
  Heavy.Weight = 3.0;
  Opts.Tenants.push_back(Heavy);
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  std::vector<std::string> Order = {"heavy", "light", "heavy", "light",
                                    "heavy", "light", "heavy", "light"};
  std::string Err;
  std::vector<int> Done = wfqCompletionOrder(D.socket(), Order, Err);
  ASSERT_TRUE(Err.empty()) << Err;
  ASSERT_EQ(Done.size(), Order.size());

  int LastHeavyRank = -1, LastLightRank = -1;
  for (size_t Rank = 0; Rank < Done.size(); ++Rank) {
    if (Order[Done[Rank]] == "heavy")
      LastHeavyRank = static_cast<int>(Rank);
    else
      LastLightRank = static_cast<int>(Rank);
  }
  EXPECT_LT(LastHeavyRank, LastLightRank)
      << "weight-3 tenant should clear its backlog first";
}

// Token metering: a tenant limited to a 1-job bucket with a slow refill
// gets its second job deferred (token_deferrals counts it) but never
// dropped — the bucket refills and the job completes.
TEST(ServiceWfq, TokenBucketDefersButServes) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.QueueDepth = 32;
  TenantConfig Metered;
  Metered.Id = "metered";
  Metered.RatePerSec = 4.0;
  Metered.Burst = 1.0;
  Opts.Tenants.push_back(Metered);
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  std::string Err;
  std::vector<std::thread> Threads;
  std::vector<std::string> Errors(3);
  for (int I = 0; I < 3; ++I)
    Threads.emplace_back([&, I] {
      service::Client C;
      C.Tenant = "metered";
      std::string E;
      if (!C.connect(D.socket(), E, 10 * timeoutScale())) {
        Errors[I] = E;
        return;
      }
      JobReply R;
      if (!C.submit(quickJob(), R, E, 300 * timeoutScale()) ||
          R.Status != JobStatus::Ok)
        Errors[I] = E.empty() ? R.Error : E;
    });
  for (auto &T : Threads)
    T.join();
  for (const std::string &E : Errors)
    EXPECT_TRUE(E.empty()) << E;

  std::string Json;
  service::Client C;
  ASSERT_TRUE(C.connect(D.socket(), Err)) << Err;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_EQ(jsonInt(Json, "jobs_completed"), 3) << Json;
  EXPECT_GE(jsonInt(Json, "token_deferrals"), 1) << Json;
}

// Replay windows are per tenant: one tenant flooding its own window with
// fresh idempotency keys must not evict another tenant's remembered
// reply (the pre-tenancy global ring had exactly this flaw).
TEST(ServiceTenant, ReplayWindowsAreIsolated) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.ReplayEntries = 2;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  std::string Err;
  JobRequest Keyed = quickJob();
  Keyed.TenantId = "alice";
  Keyed.IdempotencyKey = 111;
  {
    service::Client C;
    C.Tenant = "alice";
    ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
    JobReply R;
    ASSERT_TRUE(C.submit(Keyed, R, Err, 300 * timeoutScale())) << Err;
    ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
    EXPECT_FALSE(R.IdempotentReplay);
  }

  // Bob burns through > ReplayEntries keys of his own.
  {
    service::Client C;
    C.Tenant = "bob";
    ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
    for (uint64_t K = 201; K <= 203; ++K) {
      JobRequest Req = quickJob();
      Req.TenantId = "bob";
      Req.IdempotencyKey = K;
      JobReply R;
      ASSERT_TRUE(C.submit(Req, R, Err, 300 * timeoutScale())) << Err;
      ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
    }
  }

  // Alice's key must still replay; with a shared window Bob's three keys
  // would have evicted it.
  {
    service::Client C;
    C.Tenant = "alice";
    ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
    JobReply R;
    ASSERT_TRUE(C.submit(Keyed, R, Err, 300 * timeoutScale())) << Err;
    ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
    EXPECT_TRUE(R.IdempotentReplay)
        << "alice's replay entry was evicted by bob's keys";
  }

  // Within Bob's own window of 2, his oldest key (201) aged out but the
  // newest (203) replays.
  {
    service::Client C;
    C.Tenant = "bob";
    ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
    JobRequest Req = quickJob();
    Req.TenantId = "bob";
    Req.IdempotencyKey = 203;
    JobReply R;
    ASSERT_TRUE(C.submit(Req, R, Err, 300 * timeoutScale())) << Err;
    EXPECT_TRUE(R.IdempotentReplay);
    Req.IdempotencyKey = 201;
    JobReply R2;
    ASSERT_TRUE(C.submit(Req, R2, Err, 300 * timeoutScale())) << Err;
    EXPECT_FALSE(R2.IdempotentReplay);
  }
}

// Program-cache eviction is LRU keyed by last hit, not FIFO by insertion:
// renewing the oldest entry with a hit redirects the next eviction to
// the stale one.
TEST(ServiceTenant, CacheEvictionIsLruNotFifo) {
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

// Per-tenant stats surface in the status JSON.
TEST(ServiceTenant, StatusReportsPerTenantStats) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  TenantConfig TC;
  TC.Id = "acme";
  TC.Weight = 2.5;
  TC.Priority = 1;
  Opts.Tenants.push_back(TC);
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  service::Client C;
  C.Tenant = "acme";
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
  JobReply R;
  ASSERT_TRUE(C.submit(quickJob(), R, Err, 300 * timeoutScale())) << Err;
  ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  size_t Pos = Json.find("\"acme\"");
  ASSERT_NE(Pos, std::string::npos) << Json;
  std::string TenantBlock = Json.substr(Pos, 256);
  EXPECT_NE(TenantBlock.find("\"submitted\": 1"), std::string::npos)
      << TenantBlock;
  EXPECT_NE(TenantBlock.find("\"completed\": 1"), std::string::npos)
      << TenantBlock;
}

} // namespace
