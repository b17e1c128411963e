//===- perfbench/src/ServiceJobs.cpp - service-warm -----------------------===//
///
/// \file
/// The pooled daemon (2 executives, worker budget 4) serving two
/// closed-loop client connections: each client thread waits for every
/// reply before it submits again.  A job is a speculative W=1 submission of
/// one program from a small seeded pool (redsum, fppricing, histogram,
/// dijkstra, three sizes each); its baseline run is a sequential-mode
/// submission of the same program.  Set-up compiles every program in both
/// modes, so every timed job is a cache hit and runs on a warm executive.
///
/// The daemon is forked from this process after a flush of all stdio
/// buffers (a forked child that later flushes would print them twice),
/// listens on a socket path unique to the run, and is stopped with SIGTERM.
/// Stopping checks that it drained: exit status 0, socket file removed,
/// and no executive left running.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Host.h"

#include "service/Client.h"
#include "service/Server.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;
using namespace privateer;
using namespace privateer::service;

namespace {

const std::vector<std::string> kPrograms = {"redsum", "fppricing",
                                            "histogram", "dijkstra"};
constexpr unsigned kClients = 2;
constexpr double kJobTimeoutSec = 60;

/// The daemon's "service" counters the benchmark reports per submission.
const char *const kStatusCounters[] = {"pool_dispatches", "supervisor_forks",
                                       "retries", "jobs_rejected"};

/// Reads `"<Key>": <number>` from the daemon's status JSON.
double statusCounter(const std::string &Json, const std::string &Key) {
  size_t P = Json.find("\"" + Key + "\": ");
  return P == std::string::npos
             ? 0
             : std::strtod(Json.c_str() + P + Key.size() + 4, nullptr);
}

class ServiceWorkload : public BenchWorkload {
public:
  explicit ServiceWorkload(const Options &O) : O(O) {}

  ~ServiceWorkload() override {
    if (Daemon > 0)
      tearDown();
  }

  void setUp() override {
    Progs = prepareIrPrograms(O, kPrograms, true);
    startDaemon();

    // Warm the program cache in both modes; the executives cache the
    // images on their first dispatch.
    Client C;
    C.Retry.Enabled = false;
    std::string Err;
    if (!C.connect(Socket, Err, 10))
      throw std::runtime_error("cannot reach the daemon: " + Err);
    for (const IrProgram &P : Progs)
      for (bool Spec : {true, false}) {
        JobReply Reply;
        if (!C.submit(request(P, Spec), Reply, Err, kJobTimeoutSec) ||
            Reply.Status != JobStatus::Ok)
          throw std::runtime_error("warm-up of " + P.Name + " failed: " +
                                   (Err.empty() ? Reply.Error : Err));
      }
  }

  std::vector<Record> tearDown() override;

  void runWindow(uint64_t DeadlineNs, uint64_t FirstJob,
                 Channel &Ch) override {
    std::atomic<uint64_t> NextJob{FirstJob};
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < kClients; ++T)
      Threads.emplace_back([&, T] { clientLoop(T, DeadlineNs, NextJob, Ch); });
    for (std::thread &Th : Threads)
      Th.join();
  }

  void windowBegin() override { Before = status(); }

  std::map<std::string, double> windowEnd() override {
    std::string After = status();
    std::map<std::string, double> Out;
    for (const char *K : kStatusCounters)
      Out[std::string("service.") + K] =
          statusCounter(After, K) - statusCounter(Before, K);
    return Out;
  }

  size_t runsPerPass() const override { return 2 * Progs.size() * kClients; }

  std::string describe() const override { return describePrograms(Progs); }

  std::vector<std::string> programTexts() const override {
    return perfbench::programTexts(Progs);
  }

private:
  JobRequest request(const IrProgram &P, bool Spec) const {
    JobRequest Req;
    Req.ModuleText = P.Text;
    Req.Mode = Spec ? JobMode::Speculative : JobMode::Sequential;
    Req.NumWorkers = 1;
    return Req;
  }

  void startDaemon();
  void clientLoop(unsigned T, uint64_t DeadlineNs,
                  std::atomic<uint64_t> &NextJob, Channel &Ch);
  /// One submission; \p Sent is false when the transport failed.
  Record submitOne(Client &C, const IrProgram &P, bool Spec, uint64_t Job,
                   bool &Sent);

  std::string status() {
    Client C;
    C.Retry.Enabled = false;
    std::string Json, Err;
    if (!C.connect(Socket, Err, 10) || !C.status(Json, Err))
      return "";
    return Json;
  }

  Options O;
  std::vector<IrProgram> Progs;
  pid_t Daemon = -1;
  std::string Socket;
  unsigned Started = 0;
  std::string Before;
};

void ServiceWorkload::startDaemon() {
  Socket = O.WorkDir + "/svc-" + std::to_string(::getpid()) + "-" +
           std::to_string(++Started) + ".sock";
  ServerOptions SO;
  SO.SocketPath = Socket;
  SO.Executives = 2;
  SO.WorkerBudget = 4;
  std::fflush(nullptr);
  Daemon = ::fork();
  if (Daemon < 0)
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (Daemon == 0)
    ::_exit(Server::serve(SO));
}

std::vector<Record> ServiceWorkload::tearDown() {
  std::vector<Record> Problems;
  if (Daemon <= 0)
    return Problems;
  auto Problem = [&](const std::string &Why) {
    Record R;
    R.Program = "daemon";
    R.fail(Why);
    Problems.push_back(R);
  };
  std::vector<pid_t> Executives;
  for (pid_t P : descendants())
    if (P != Daemon)
      Executives.push_back(P);

  ::kill(Daemon, SIGTERM);
  int St = 0;
  uint64_t Give = nowNs() + 20'000'000'000ULL;
  pid_t Got = 0;
  while ((Got = ::waitpid(Daemon, &St, WNOHANG)) == 0 && nowNs() < Give)
    ::usleep(5000);
  if (Got != Daemon) {
    Problem("daemon did not drain within 20 s of SIGTERM");
    ::kill(Daemon, SIGKILL);
    ::waitpid(Daemon, &St, 0);
  } else if (!WIFEXITED(St) || WEXITSTATUS(St) != 0) {
    Problem("daemon exited with status " + std::to_string(St));
  }
  Daemon = -1;
  if (::access(Socket.c_str(), F_OK) == 0) {
    Problem("daemon left its socket file behind");
    ::unlink(Socket.c_str());
  }
  // This process is a child subreaper, so an executive the daemon failed
  // to stop is now our child.
  for (pid_t P : Executives)
    if (::waitpid(P, nullptr, WNOHANG) == 0) {
      Problem("executive " + std::to_string(P) + " outlived the daemon");
      ::kill(P, SIGKILL);
      ::waitpid(P, nullptr, 0);
    }
  return Problems;
}

void ServiceWorkload::clientLoop(unsigned T, uint64_t DeadlineNs,
                                 std::atomic<uint64_t> &NextJob, Channel &Ch) {
  Client C;
  C.Retry.Enabled = false;
  std::string Err;
  bool Connected = C.connect(Socket, Err, 10);
  // Client T starts T programs into the pool so the two connections do
  // not submit the same program at the same time.
  size_t N = Progs.size();
  for (size_t K = 0; K % N != 0 || K == 0 || nowNs() < DeadlineNs; ++K) {
    const IrProgram &P = Progs[(K + T) % N];
    uint64_t Pass = K / N;
    for (bool Spec : {true, false}) {
      uint64_t Job = NextJob++;
      bool Traced = tracedRun(O, Spec, Pass, K % N);
      Ch.begin(Job, P.Name, Spec);
      Tracer::begin(Traced, Job, [&](const SpanRec &S) { Ch.span(S); });
      bool Sent = false;
      Record R;
      if (Connected) {
        R = submitOne(C, P, Spec, Job, Sent);
      } else {
        R.Job = Job;
        R.Program = P.Name;
        R.Par = Spec;
        R.fail("cannot connect: " + Err);
      }
      Tracer::begin(false, 0, nullptr);
      R.Traced = Traced;
      Ch.record(R);
      // A lost connection gets one reconnect; a daemon that is gone ends
      // this client instead of failing thousands of submits a second.
      if (!Sent) {
        C.close();
        if (!Connected || !(Connected = C.connect(Socket, Err, 1)))
          return;
      }
    }
  }
}

Record ServiceWorkload::submitOne(Client &C, const IrProgram &P, bool Spec,
                                  uint64_t Job, bool &Sent) {
  Record R;
  R.Job = Job;
  R.Program = P.Name;
  R.Par = Spec;
  JobRequest Req = request(P, Spec);
  JobReply Reply;
  std::string Err;
  uint64_t T0 = nowNs();
  {
    Tracer::Span Root("bench.job");
    Tracer::Span S("service.submit");
    Sent = C.submit(Req, Reply, Err, kJobTimeoutSec);
  }
  R.Ms = static_cast<double>(nowNs() - T0) * 1e-6;
  if (!Sent) {
    R.fail("submit: " + Err);
    return R;
  }
  if (Reply.Status != JobStatus::Ok) {
    R.fail(std::string(jobStatusName(Reply.Status)) + ": " + Reply.Error);
    return R;
  }
  R.Vals["service.cache_hits"] = Reply.CacheHit ? 1 : 0;
  R.Vals["service.cache_misses"] = Reply.CacheHit ? 0 : 1;
  R.Vals["service.queue_ms"] = Reply.QueueSec * 1e3;
  R.Vals["service.exec_ms"] = Reply.ExecSec * 1e3;
  R.Vals["service.daemon_wall_ms"] = Reply.WallSec * 1e3;
  R.Vals["service.transport_ms"] = R.Ms - Reply.WallSec * 1e3;
  R.Vals["runtime.iterations"] = static_cast<double>(Reply.Iterations);
  R.Vals["runtime.checkpoints"] = static_cast<double>(Reply.Checkpoints);
  R.Vals["runtime.misspecs"] = static_cast<double>(Reply.Misspecs);
  R.Vals["runtime.recovered_iters"] =
      static_cast<double>(Reply.RecoveredIterations);
  R.Vals["runtime.com_updates"] = static_cast<double>(Reply.ComUpdates);
  R.Vals["runtime.com_records_committed"] =
      static_cast<double>(Reply.ComRecordsCommitted);
  checkAgainstOracle(P, Reply.Output, Reply.ExitValue, R);
  return R;
}

} // namespace

std::unique_ptr<BenchWorkload>
perfbench::makeServiceWorkload(const Options &O) {
  return std::make_unique<ServiceWorkload>(O);
}
