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
      "  --queue <n>       FIFO admission queue depth; full -> reject\n"
      "                    (default 16)\n"
      "  --cache <n>       warm program cache entries (default 32)\n"
      "  --deadline <sec>  default per-job deadline, scaled by\n"
      "                    PRIVATEER_TIMEOUT_SCALE (default: none)\n"
      "  --max-mem-mb <n>  RLIMIT_AS for every job + worker tree, in MiB\n"
      "                    (default: unlimited)\n"
      "  --max-cpu <sec>   RLIMIT_CPU per job, scaled by\n"
      "                    PRIVATEER_TIMEOUT_SCALE (default: unlimited)\n"
      "  --max-fds <n>     RLIMIT_NOFILE per job (default: unlimited)\n"
      "  --conn-buffer <b> per-connection outbound buffer cap in bytes;\n"
      "                    slower readers are dropped (default 4 MiB)\n"
      "  --write-stall <s> drop a client making no read progress for this\n"
      "                    long while replies are pending (default 10)\n"
      "  --retries <n>     in-daemon retries of infra failures with a\n"
      "                    degraded config (default 2, 0 disables)\n"
      "  --executives <n>  pre-warmed executive processes that run every\n"
      "                    job; warm cache hits run with zero fork and\n"
      "                    zero parse, and a job with rlimits runs in a\n"
      "                    disposable child of its executive (default 4,\n"
      "                    must be > 0)\n"
      "  --verbose         log accepts, jobs, and drains to stderr\n"
      "\n"
      "Jobs start in arrival order: the queue head waits until it fits\n"
      "the budget, and no later job overtakes it.  Per-job requests can\n"
      "lower (never raise) the rlimit ceilings.\n"
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
    else if (A == "--verbose")
      Opts.Verbose = true;
    else
      return usage(Argv[0]);
  }
  if (Opts.SocketPath.empty())
    return usage(Argv[0]);
  if (Opts.WorkerBudget == 0 || Opts.QueueDepth == 0 ||
      Opts.Executives == 0) {
    std::fprintf(stderr, "privateer-served: budget, queue and executives "
                         "must be > 0\n");
    return 2;
  }
  return Server::serve(Opts);
}
