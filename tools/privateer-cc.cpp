//===- tools/privateer-cc.cpp - Command-line pipeline driver --------------===//
//
// The command-line face of the Privateer system: reads a textual IR
// program, runs the fully automatic pipeline (profile -> classify ->
// select -> transform), and either prints the transformed module or
// executes it — sequentially or speculatively in parallel.
//
//   privateer-cc prog.pir                      # pipeline, report, run x4
//   privateer-cc prog.pir --emit               # print transformed IR
//   privateer-cc prog.pir --seq                # sequential execution only
//   privateer-cc prog.pir --workers 8 --period 32 --inject 0.01
//   privateer-cc prog.pir --demo dijkstra      # ignore file, use the
//                                              # bundled dijkstra program
//   privateer-cc prog.pir --connect /tmp/p.sock  # submit to a running
//                                                # privateer-served daemon
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "profiling/ProfileSerialization.h"
#include "service/Client.h"
#include "transform/Pipeline.h"
#include "workloads/IrPrograms.h"

#include <cstring>
#include <fstream>
#include <sstream>

using namespace privateer;
using namespace privateer::transform;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <program.pir> [options]\n"
               "  --emit            print the transformed module and stop\n"
               "  --seq             run sequentially (no speculation)\n"
               "  --strategy <s>    scheduling strategy: doall (default) or\n"
               "                    doacross (token-forward provable carried\n"
               "                    dependences)\n"
               "  --workers <n>     speculative workers (default 4)\n"
               "  --period <k>      checkpoint period, 1-252 (default 0:\n"
               "                    derived from the trip count, 64-252)\n"
               "  --inject <rate>   inject misspeculation (fraction)\n"
               "  --trace <f>       write a Chrome-trace/Perfetto event\n"
               "                    timeline of the parallel run to <f>\n"
               "  --demo <name>     built-in program: dijkstra | redsum\n"
               "  --profile-out <f> save the training profile to <f>\n"
               "  --connect <sock>  submit the job to the privateer-served\n"
               "                    daemon on <sock> instead of running the\n"
               "                    pipeline locally\n"
               "  --verbose         print the pipeline log\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Path;
  std::string Demo;
  std::string ProfileOut;
  std::string ConnectSock;
  bool Emit = false, Seq = false, Verbose = false;
  // Knob defaults are ParallelOptions' own (4 workers, derived period), so
  // the usage text, local runs, and service submissions all agree.
  ParallelOptions Par;
  Strategy Strat = Strategy::Doall;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--emit")
      Emit = true;
    else if (A == "--seq")
      Seq = true;
    else if (A == "--verbose")
      Verbose = true;
    else if ((A == "--strategy" && I + 1 < Argc) ||
             A.rfind("--strategy=", 0) == 0) {
      std::string S = A == "--strategy"
                          ? std::string(Argv[++I])
                          : A.substr(std::strlen("--strategy="));
      if (!strategyFromName(S, Strat)) {
        std::fprintf(stderr, "error: unknown strategy '%s'\n", S.c_str());
        return 2;
      }
    }
    else if (A == "--workers" && I + 1 < Argc)
      Par.NumWorkers = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (A == "--period" && I + 1 < Argc)
      Par.CheckpointPeriod = static_cast<uint64_t>(std::atoll(Argv[++I]));
    else if (A == "--inject" && I + 1 < Argc)
      Par.InjectMisspecRate = std::atof(Argv[++I]);
    else if (A == "--trace" && I + 1 < Argc)
      Par.TracePath = Argv[++I];
    else if (A.rfind("--trace=", 0) == 0)
      Par.TracePath = A.substr(std::strlen("--trace="));
    else if (A == "--demo" && I + 1 < Argc)
      Demo = Argv[++I];
    else if (A == "--profile-out" && I + 1 < Argc)
      ProfileOut = Argv[++I];
    else if (A == "--connect" && I + 1 < Argc)
      ConnectSock = Argv[++I];
    else if (A.rfind("--", 0) == 0)
      return usage(Argv[0]);
    else
      Path = A;
  }

  std::string Text;
  if (!Demo.empty()) {
    if (Demo == "dijkstra")
      Text = dijkstraIrText(24);
    else if (Demo == "redsum")
      Text = reductionSumIrText(1000);
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
    Text = Ss.str();
  } else {
    return usage(Argv[0]);
  }

  if (!ConnectSock.empty()) {
    // Remote mode: the daemon owns the pipeline (and its warm cache);
    // this process just ships the module text and prints the result.
    if (Emit) {
      std::fprintf(stderr, "error: --emit is a local-only option\n");
      return 2;
    }
    service::Client C;
    std::string CErr;
    if (!C.connect(ConnectSock, CErr)) {
      std::fprintf(stderr, "privateer-cc: %s\n", CErr.c_str());
      return 1;
    }
    service::JobRequest Req;
    Req.ModuleText = Text;
    Req.Mode = Seq ? service::JobMode::Sequential
                   : service::JobMode::Speculative;
    Req.Strat = static_cast<uint8_t>(Strat);
    Req.NumWorkers = Par.NumWorkers;
    Req.CheckpointPeriod = Par.CheckpointPeriod;
    Req.InjectMisspecRate = Par.InjectMisspecRate;
    Req.TracePath = Par.TracePath;
    service::JobReply R;
    if (!C.submit(Req, R, CErr)) {
      std::fprintf(stderr, "privateer-cc: %s\n", CErr.c_str());
      return 1;
    }
    std::fwrite(R.Output.data(), 1, R.Output.size(), stdout);
    std::fprintf(stderr,
                 "[privateer-cc] served job: %s, cache %s, %llu iterations, "
                 "%llu misspecs (%s), exit value %lld\n",
                 service::jobStatusName(R.Status),
                 R.CacheHit ? "hit" : "miss",
                 static_cast<unsigned long long>(R.Iterations),
                 static_cast<unsigned long long>(R.Misspecs),
                 R.MisspecReason.empty() ? "none" : R.MisspecReason.c_str(),
                 static_cast<long long>(R.ExitValue));
    if (!R.Error.empty())
      std::fprintf(stderr, "[privateer-cc] %s\n", R.Error.c_str());
    return R.Status == service::JobStatus::Ok ? 0 : 1;
  }

  std::string Err;
  auto M = ir::parseModule(Text, Err);
  if (!M) {
    std::fprintf(stderr, "parse error: %s\n", Err.c_str());
    return 1;
  }
  auto Diags = ir::verifyModule(*M);
  if (!Diags.empty()) {
    for (const std::string &D : Diags)
      std::fprintf(stderr, "verifier: %s\n", D.c_str());
    return 1;
  }

  if (Seq) {
    interp::Cell R = executeSequential(*M, PipelineOptions(), stdout);
    std::fprintf(stderr, "[privateer-cc] sequential exit value: %lld\n",
                 static_cast<long long>(R.asInt()));
    return 0;
  }

  analysis::FunctionAnalyses FA(*M);
  PipelineOptions Opt;
  Opt.Strat = Strat;
  PipelineResult R = runPrivateerPipeline(*M, FA, Opt);

  if (Verbose)
    for (const std::string &L : R.Log)
      std::fprintf(stderr, "[pipeline] %s\n", L.c_str());

  if (!R.TrainingTrap.empty()) {
    std::fprintf(stderr, "[privateer-cc] training run trapped: %s\n",
                 R.TrainingTrap.c_str());
    return 1;
  }

  if (!ProfileOut.empty()) {
    std::ofstream PF(ProfileOut);
    PF << profiling::serializeProfile(R.TrainingProfile, *M);
    std::fprintf(stderr, "[privateer-cc] training profile -> %s\n",
                 ProfileOut.c_str());
  }

  if (!R.Transformed) {
    std::fprintf(stderr,
                 "[privateer-cc] no parallelizable loop; run with --seq "
                 "for plain execution\n");
    for (const std::string &L : R.Log)
      std::fprintf(stderr, "  %s\n", L.c_str());
    return 1;
  }

  std::fprintf(stderr, "[privateer-cc] selected loop@%s in @%s\n",
               R.SelectedLoop->header()->name().c_str(),
               R.SelectedLoop->header()->parent()->name().c_str());
  for (const auto &[O, K] : R.Assignment.ObjectHeaps)
    std::fprintf(stderr, "[privateer-cc]   %-40s -> %s\n", O.str().c_str(),
                 heapKindName(K));

  if (Emit) {
    std::fputs(ir::printModule(*M).c_str(), stdout);
    return 0;
  }

  ExecutionResult E = executePrivatized(*M, FA, R.Assignment, Opt, Par,
                                        RuntimeConfig(), stdout);
  std::fprintf(stderr,
               "[privateer-cc] %llu iterations, %u workers, %llu "
               "checkpoints, %llu misspecs (%s), exit value %lld\n",
               static_cast<unsigned long long>(E.Stats.Iterations),
               Par.NumWorkers,
               static_cast<unsigned long long>(E.Stats.Checkpoints),
               static_cast<unsigned long long>(E.Stats.Misspecs),
               E.Stats.FirstMisspecReason.empty()
                   ? "none"
                   : E.Stats.FirstMisspecReason.c_str(),
               static_cast<long long>(E.ReturnValue.asInt()));
  if (!Par.TracePath.empty())
    std::fprintf(stderr,
                 "[privateer-cc] trace -> %s (open in ui.perfetto.dev or "
                 "chrome://tracing)\n",
                 Par.TracePath.c_str());
  return 0;
}
