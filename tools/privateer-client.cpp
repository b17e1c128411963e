//===- tools/privateer-client.cpp - Submit jobs to privateer-served -------===//
//
// The client half of the invocation service:
//
//   privateer-client --socket /tmp/p.sock prog.pir --workers 8
//   privateer-client --socket /tmp/p.sock --demo redsum
//   privateer-client --socket /tmp/p.sock --status | python3 -m json.tool
//   privateer-client --socket /tmp/p.sock --drain
//
// The job's (deferred) output goes to stdout byte-exactly; job statistics
// go to stderr.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"
#include "service/Client.h"
#include "workloads/IrPrograms.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace privateer;
using namespace privateer::service;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket <path> [<program.pir> | --demo <name>] [options]\n"
      "  --socket <path>   daemon socket (required)\n"
      "  --demo <name>     built-in program: dijkstra | redsum\n"
      "  --seq             run the job sequentially (no speculation)\n"
      "  --strategy <s>    scheduling strategy: doall (default) or\n"
      "                    doacross\n"
      "  --workers <n>     speculative workers (default 4)\n"
      "  --period <k>      checkpoint period, 1-252 (default 0: derived\n"
      "                    from the trip count, 64-252)\n"
      "  --inject <rate>   inject misspeculation (fraction)\n"
      "  --seed <s>        misspeculation-injection seed\n"
      "  --deadline <sec>  per-job deadline (daemon scales it by\n"
      "                    PRIVATEER_TIMEOUT_SCALE)\n"
      "  --trace <f>       daemon-side runtime timeline path\n"
      "  --mem-mb <n>      per-job RLIMIT_AS ceiling in MiB (can lower,\n"
      "                    never raise, the daemon's configured limit)\n"
      "  --cpu-sec <n>     per-job RLIMIT_CPU ceiling in seconds\n"
      "  --no-retry        disable transparent reconnect + resubmit\n"
      "  --jobs <n>        submit the job n times over this connection\n"
      "  --status          print the daemon's status JSON and exit\n"
      "  --drain           ask the daemon to finish its queue and exit\n"
      "  --shutdown        ask the daemon to cancel everything and exit\n"
      "  --kill-supervisor fault injection: the job's executive SIGKILLs\n"
      "                    itself\n"
      "  --quiet           suppress the per-job stats line\n",
      Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Socket, Path, Demo;
  bool Status = false, Drain = false, Shutdown = false, Quiet = false;
  bool NoRetry = false;
  unsigned JobsToRun = 1;
  JobRequest Req;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--socket" && I + 1 < Argc)
      Socket = Argv[++I];
    else if (A == "--demo" && I + 1 < Argc)
      Demo = Argv[++I];
    else if (A == "--seq")
      Req.Mode = JobMode::Sequential;
    else if ((A == "--strategy" && I + 1 < Argc) ||
             A.rfind("--strategy=", 0) == 0) {
      Strategy S;
      std::string Name = A == "--strategy"
                             ? std::string(Argv[++I])
                             : A.substr(std::strlen("--strategy="));
      if (!strategyFromName(Name, S)) {
        std::fprintf(stderr, "error: unknown strategy '%s'\n", Name.c_str());
        return 2;
      }
      Req.Strat = static_cast<uint8_t>(S);
    }
    else if (A == "--workers" && I + 1 < Argc)
      Req.NumWorkers = static_cast<uint32_t>(std::atoi(Argv[++I]));
    else if (A == "--period" && I + 1 < Argc)
      Req.CheckpointPeriod = static_cast<uint64_t>(std::atoll(Argv[++I]));
    else if (A == "--inject" && I + 1 < Argc)
      Req.InjectMisspecRate = std::atof(Argv[++I]);
    else if (A == "--seed" && I + 1 < Argc)
      Req.InjectSeed = static_cast<uint64_t>(std::atoll(Argv[++I]));
    else if (A == "--deadline" && I + 1 < Argc)
      Req.DeadlineSec = std::atof(Argv[++I]);
    else if (A == "--trace" && I + 1 < Argc)
      Req.TracePath = Argv[++I];
    else if (A == "--mem-mb" && I + 1 < Argc)
      Req.MaxMemoryBytes = static_cast<uint64_t>(std::atoll(Argv[++I])) << 20;
    else if (A == "--cpu-sec" && I + 1 < Argc)
      Req.MaxCpuSec = static_cast<uint32_t>(std::atoi(Argv[++I]));
    else if (A == "--no-retry")
      NoRetry = true;
    else if (A == "--jobs" && I + 1 < Argc)
      JobsToRun = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (A == "--status")
      Status = true;
    else if (A == "--drain")
      Drain = true;
    else if (A == "--shutdown")
      Shutdown = true;
    else if (A == "--kill-supervisor")
      Req.FaultKillSupervisor = true;
    else if (A == "--quiet")
      Quiet = true;
    else if (A.rfind("--", 0) == 0)
      return usage(Argv[0]);
    else
      Path = A;
  }
  if (Socket.empty())
    return usage(Argv[0]);

  Client C;
  C.Retry.Enabled = !NoRetry;
  std::string Err;
  if (!C.connect(Socket, Err)) {
    std::fprintf(stderr, "privateer-client: %s\n", Err.c_str());
    return 1;
  }

  if (Status) {
    std::string Json;
    if (!C.status(Json, Err)) {
      std::fprintf(stderr, "privateer-client: %s\n", Err.c_str());
      return 1;
    }
    std::printf("%s\n", Json.c_str());
    return 0;
  }
  if (Drain || Shutdown) {
    bool Ok = Drain ? C.drain(Err) : C.shutdownServer(Err);
    if (!Ok) {
      std::fprintf(stderr, "privateer-client: %s\n", Err.c_str());
      return 1;
    }
    std::fprintf(stderr, "privateer-client: daemon %s\n",
                 Drain ? "draining" : "shutting down");
    return 0;
  }

  if (!Demo.empty()) {
    if (Demo == "dijkstra")
      Req.ModuleText = dijkstraIrText(24);
    else if (Demo == "redsum")
      Req.ModuleText = reductionSumIrText(1000);
    else {
      std::fprintf(stderr, "error: unknown demo '%s'\n", Demo.c_str());
      return 2;
    }
  } else if (!Path.empty()) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
      return 2;
    }
    std::stringstream Ss;
    Ss << In.rdbuf();
    Req.ModuleText = Ss.str();
  } else {
    return usage(Argv[0]);
  }

  int Rc = 0;
  for (unsigned J = 0; J < JobsToRun; ++J) {
    JobReply R;
    if (!C.submit(Req, R, Err)) {
      std::fprintf(stderr, "privateer-client: %s\n", Err.c_str());
      return 1;
    }
    std::fwrite(R.Output.data(), 1, R.Output.size(), stdout);
    if (!Quiet)
      std::fprintf(
          stderr,
          "[privateer-client] job %u/%u: %s, cache %s, exit %lld, %llu "
          "iters, %llu misspecs, queue %.1fms, exec %.1fms%s%s\n",
          J + 1, JobsToRun, jobStatusName(R.Status),
          R.CacheHit ? "hit" : "miss", static_cast<long long>(R.ExitValue),
          static_cast<unsigned long long>(R.Iterations),
          static_cast<unsigned long long>(R.Misspecs), R.QueueSec * 1e3,
          R.ExecSec * 1e3, R.Error.empty() ? "" : ", error: ",
          R.Error.c_str());
    if (R.Status != JobStatus::Ok)
      Rc = 1;
  }
  return Rc;
}
