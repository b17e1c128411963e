//===- tools/privateer-served.cpp - Persistent invocation daemon ----------===//
//
// The Privateer invocation service: a long-lived daemon that keeps
// compiled pipelines warm and executes submitted .pir jobs in isolated
// executive processes.
//
//   privateer-served --socket /tmp/p.sock &
//   privateer-client --socket /tmp/p.sock --demo redsum
//   kill -TERM <pid>        # drain: finish the queue, then exit
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace privateer::service;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket <path> [options]\n"
      "  --socket <path>   Unix-domain socket to listen on (required)\n"
      "  --budget <n>      max concurrent processes across jobs, each job\n"
      "                    costing workers+1 (default 16)\n"
      "  --queue <n>       admission queue depth; full -> reject (default "
      "16)\n"
      "  --cache <n>       warm program cache entries (default 32)\n"
      "  --deadline <sec>  default per-job deadline, scaled by\n"
      "                    PRIVATEER_TIMEOUT_SCALE (default: none)\n"
      "  --max-mem-mb <n>  RLIMIT_AS for every executive + worker tree,\n"
      "                    in MiB (default: unlimited)\n"
      "  --max-cpu <sec>   RLIMIT_CPU per executive, scaled by\n"
      "                    PRIVATEER_TIMEOUT_SCALE (default: unlimited)\n"
      "  --max-fds <n>     RLIMIT_NOFILE per executive (default: "
      "unlimited)\n"
      "  --conn-buffer <b> per-connection outbound buffer cap in bytes;\n"
      "                    slower readers are dropped (default 4 MiB)\n"
      "  --write-stall <s> drop a client making no read progress for this\n"
      "                    long while replies are pending (default 10)\n"
      "  --retries <n>     in-daemon retries of infra failures with a\n"
      "                    degraded config (default 2, 0 disables)\n"
      "  --executives <n>  pre-warmed executive processes reused across\n"
      "                    jobs; warm cache hits run with zero fork and\n"
      "                    zero parse (default 4, 0 = a one-shot\n"
      "                    executive forked per job)\n"
      "  --shards <n>      acceptor shards: n independently forked daemon\n"
      "                    processes sharing one listening socket, with\n"
      "                    the kernel load-balancing accepts (default 1)\n"
      "  --tenant-weight <name=w[:prio[:rate[:burst]]]>\n"
      "                    weighted-fair-queuing config for one tenant:\n"
      "                    weight (share of the worker budget), priority\n"
      "                    band (higher preempts), token rate (jobs/sec,\n"
      "                    0 = unmetered) and bucket burst; repeatable\n"
      "  --verbose         log accepts, jobs, and drains to stderr\n"
      "\n"
      "Per-job requests can lower (never raise) the rlimit ceilings.\n"
      "SIGTERM drains (stop accepting, finish the queue, reap\n"
      "executives); SIGINT cancels running jobs and exits.  A stale\n"
      "socket left by a crashed daemon is probed and reclaimed on start.\n",
      Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  ServerOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--socket" && I + 1 < Argc)
      Opts.SocketPath = Argv[++I];
    else if (A == "--budget" && I + 1 < Argc)
      Opts.WorkerBudget = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (A == "--queue" && I + 1 < Argc)
      Opts.QueueDepth = static_cast<size_t>(std::atoll(Argv[++I]));
    else if (A == "--cache" && I + 1 < Argc)
      Opts.CacheEntries = static_cast<size_t>(std::atoll(Argv[++I]));
    else if (A == "--deadline" && I + 1 < Argc)
      Opts.DefaultDeadlineSec = std::atof(Argv[++I]);
    else if (A == "--max-mem-mb" && I + 1 < Argc)
      Opts.MaxMemoryBytes =
          static_cast<uint64_t>(std::atoll(Argv[++I])) << 20;
    else if (A == "--max-cpu" && I + 1 < Argc)
      Opts.MaxCpuSec = static_cast<uint32_t>(std::atoi(Argv[++I]));
    else if (A == "--max-fds" && I + 1 < Argc)
      Opts.MaxOpenFiles = static_cast<uint32_t>(std::atoi(Argv[++I]));
    else if (A == "--conn-buffer" && I + 1 < Argc)
      Opts.MaxConnBufferBytes = static_cast<size_t>(std::atoll(Argv[++I]));
    else if (A == "--write-stall" && I + 1 < Argc)
      Opts.WriteStallSec = std::atof(Argv[++I]);
    else if (A == "--retries" && I + 1 < Argc)
      Opts.MaxRetries = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (A == "--executives" && I + 1 < Argc)
      Opts.Executives = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (A == "--shards" && I + 1 < Argc)
      Opts.Shards = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (A == "--tenant-weight" && I + 1 < Argc) {
      // name=weight[:priority[:rate[:burst]]]
      std::string Spec = Argv[++I];
      size_t Eq = Spec.find('=');
      if (Eq == std::string::npos || Eq == 0) {
        std::fprintf(stderr,
                     "privateer-served: bad --tenant-weight '%s' "
                     "(want name=w[:prio[:rate[:burst]]])\n",
                     Spec.c_str());
        return 2;
      }
      TenantConfig TC;
      TC.Id = Spec.substr(0, Eq);
      std::string Rest = Spec.substr(Eq + 1);
      double Vals[4] = {1.0, 0.0, 0.0, 0.0};
      for (int V = 0; V < 4 && !Rest.empty(); ++V) {
        size_t Colon = Rest.find(':');
        Vals[V] = std::atof(Rest.substr(0, Colon).c_str());
        Rest = Colon == std::string::npos ? "" : Rest.substr(Colon + 1);
      }
      TC.Weight = Vals[0];
      TC.Priority = static_cast<int>(Vals[1]);
      TC.RatePerSec = Vals[2];
      TC.Burst = Vals[3];
      if (TC.Weight <= 0) {
        std::fprintf(stderr,
                     "privateer-served: tenant '%s' weight must be > 0\n",
                     TC.Id.c_str());
        return 2;
      }
      Opts.Tenants.push_back(TC);
    } else if (A == "--verbose")
      Opts.Verbose = true;
    else
      return usage(Argv[0]);
  }
  if (Opts.SocketPath.empty())
    return usage(Argv[0]);
  if (Opts.WorkerBudget == 0 || Opts.QueueDepth == 0) {
    std::fprintf(stderr, "privateer-served: budget and queue must be > 0\n");
    return 2;
  }
  return Server::serve(Opts);
}
