//===- perfbench/src/Main.cpp - The Privateer end-to-end benchmark --------===//
///
/// \file
/// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Sets the workload up four times, runs its jobs for --seconds in a forked
/// runner process, sets it up four more times (setup_s is the median of
/// all eight) and prints, as the last
/// line of standard output, one JSON object with the keys correct,
/// attempted, failed and metrics.  With --trace 0 the metrics are the
/// end-to-end ones; with --trace 1 they are the per-layer ones, taken from
/// spans the benchmark records around every call it makes into a layer,
/// and the spans are also written as a Chrome-trace file.
///
/// The runner streams each checked run (and each span) to this process as
/// it finishes.  A run that hangs past a minute, or a runner that crashes,
/// is charged to the run in flight as a failure and the window carries on
/// in a fresh runner, so a broken change shows up as failed jobs rather
/// than as a missing result.
///
/// Other flags: --work-dir <dir> (scratch files, sockets, the trace file;
/// default .bench_build/work), --source-id <id> (provenance stamp),
/// --corrupt-oracle (test hook: every check must fail), --print-programs
/// (print the generated program texts' digests and exit).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Host.h"

#include "runtime/Runtime.h"
#include "support/Fnv.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <sstream>

#include <poll.h>
#include <sys/personality.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

const char *const kWorkloads[] = {"paper-doall", "ir-cold", "service-warm"};

/// Every program any workload runs, for the program.<name>.* metrics.
const char *const kAllPrograms[] = {
    "dijkstra",  "blackscholes", "swaptions", "alvinn",
    "enc-md5",   "redsum",       "fppricing", "histogram",
    "degree-count", "dedup",     "array-recurrence"};

/// Set-ups before the window and again after it.  A set-up takes well under
/// a second, and the host's speed drifts over seconds, so the set-ups are
/// split around the window: setup_s, their median, then draws on two
/// moments of the run, not one.
constexpr unsigned kSetUpsEachSide = 4;
constexpr double kRunTimeoutSec = 60;

/// A metric's name and unit.
struct MetricDef {
  std::string Name;
  const char *Unit;
};

/// The per-layer metrics, in BENCHMARK.json order.  Counters are means per
/// job, except the daemon's service.* counters, which are per submission
/// (job or baseline run); timings from spans are means per traced job.
std::vector<MetricDef> perLayerMetrics() {
  std::vector<MetricDef> M = {
      {"failed_frac", "frac"},
      {"job_samples", "count"},
      {"seq_samples", "count"},
      {"compile_ms_p50", "ms"},
      {"speedup_geomean", "x"},
  };
  for (const char *P : kAllPrograms) {
    M.push_back({std::string("program.") + P + ".par_ms", "ms"});
    M.push_back({std::string("program.") + P + ".seq_ms", "ms"});
  }
  const std::vector<MetricDef> Layers = {
      {"transform.pipeline_ms", "ms"},
      {"transform.transformed", "frac"},
      {"transform.separation_checks", "count"},
      {"transform.separation_checks_elided", "count"},
      {"transform.privacy_checks", "count"},
      {"transform.privacy_checks_elided", "count"},
      {"transform.com_updates_installed", "count"},
      {"classify.objects.read-only", "count"},
      {"classify.objects.private", "count"},
      {"classify.objects.redux", "count"},
      {"classify.objects.short-lived", "count"},
      {"classify.objects.unrestricted", "count"},
      {"classify.objects.commutative", "count"},
      {"ir.parse_ms", "ms"},
      {"ir.verify_ms", "ms"},
      {"ir.insts_in", "count"},
      {"ir.insts_out", "count"},
      {"analysis.ms", "ms"},
      {"bytecode.lower_ms", "ms"},
      {"bytecode.image_ser_ms", "ms"},
      {"bytecode.image_load_ms", "ms"},
      {"bytecode.image_bytes", "bytes"},
      {"bytecode.fallbacks", "count"},
      {"runtime.init_ms", "ms"},
      {"runtime.shutdown_ms", "ms"},
      {"runtime.invocations", "count"},
      {"runtime.invocation_ms", "ms"},
      {"runtime.between_ms", "ms"},
      {"runtime.epochs", "count"},
      {"runtime.checkpoints", "count"},
      {"runtime.eager_slots", "count"},
      {"runtime.overlap_s", "s"},
      {"runtime.useful_s", "s"},
      {"runtime.useful_frac", "frac"},
      {"runtime.checkpoint_s", "s"},
      {"runtime.dirty_chunks", "count"},
      {"runtime.bytes_scanned", "bytes"},
      {"runtime.bytes_skipped", "bytes"},
      {"runtime.private_read_calls", "count"},
      {"runtime.private_read_bytes", "bytes"},
      {"runtime.private_read_s", "s"},
      {"runtime.private_write_calls", "count"},
      {"runtime.private_write_bytes", "bytes"},
      {"runtime.private_write_s", "s"},
      {"runtime.separation_checks", "count"},
      {"runtime.misspecs", "count"},
      {"runtime.recovered_iters", "count"},
      {"runtime.recovered_frac", "frac"},
      {"runtime.early_cutoffs", "count"},
      {"runtime.early_cutoff_iters_saved", "count"},
      {"runtime.degraded_epochs", "count"},
      {"runtime.degraded_iters", "count"},
      {"runtime.com_updates", "count"},
      {"runtime.com_records_committed", "count"},
      {"runtime.com_overflows", "count"},
      {"runtime.dep_waits", "count"},
      {"runtime.dep_wait_spins", "count"},
      {"runtime.dep_wait_timeouts", "count"},
      {"runtime.faults", "count"},
      {"service.queue_ms_p50", "ms"},
      {"service.exec_ms_p50", "ms"},
      {"service.exec_ms_p90", "ms"},
      {"service.daemon_wall_ms_p50", "ms"},
      {"service.transport_ms_p50", "ms"},
      {"service.cache_hits", "count"},
      {"service.cache_misses", "count"},
      {"service.pool_dispatches", "count"},
      {"service.supervisor_forks", "count"},
      {"service.retries", "count"},
      {"service.jobs_rejected", "count"},
      {"perfmodel.err_pct", "%"},
      {"host.burn_efficiency", "frac"},
      {"host.steal_frac", "frac"},
      {"trace.overhead_pct", "%"},
      {"trace.unattributed_frac", "frac"},
  };
  M.insert(M.end(), Layers.begin(), Layers.end());
  for (const char *L : {"bench", "ir", "analysis", "transform", "bytecode",
                        "runtime", "workloads", "service"})
    M.push_back({std::string("self_ms.") + L, "ms"});
  return M;
}

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},         {"jobs_per_s", "1/s"},
    {"job_ms_p50", "ms"},     {"job_ms_p90", "ms"},
    {"job_ms_geomean", "ms"}, {"seq_ms_geomean", "ms"},
    {"cpu_ms_per_job", "ms"}, {"peak_rss_mb", "MiB"},
    {"ok_frac", "frac"},
};

/// Spans whose summed time per traced job is a per-layer metric.
const std::pair<const char *, const char *> kSpanMetrics[] = {
    {"transform.pipeline", "transform.pipeline_ms"},
    {"ir.parse", "ir.parse_ms"},
    {"ir.verify", "ir.verify_ms"},
    {"analysis.function_analyses", "analysis.ms"},
    {"bytecode.lower", "bytecode.lower_ms"},
    {"bytecode.image_serialize", "bytecode.image_ser_ms"},
    {"bytecode.image_load", "bytecode.image_load_ms"},
    {"runtime.initialize", "runtime.init_ms"},
    {"runtime.shutdown", "runtime.shutdown_ms"},
};

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out;
}

// --- The supervised window -------------------------------------------------

struct Window {
  std::vector<Record> Recs;
  std::vector<SpanRec> Spans;
  uint64_t StartNs = 0;
  HostTicks StartTicks;
  double Sec = 0;
  /// Share of the host's CPU time stolen by the hypervisor in the window.
  double StealFrac = 0;
};

/// Stamps \p R with the time, and the host's CPU ticks, at which this
/// process received it.
void stampArrival(Record &R) {
  R.EndNs = nowNs();
  HostTicks T = hostTicks();
  R.EndTicks = T.Total;
  R.EndSteal = T.Steal;
}

struct OpenRun {
  std::string Program;
  bool Par = true;
  uint64_t SinceNs = 0;
};

/// Parses one line of the runner's stream into \p W, tracking runs that
/// have begun but not yet reported in \p Open.
void parseLine(const std::string &Line, Window &W,
               std::map<uint64_t, OpenRun> &Open, uint64_t &MaxJob) {
  std::istringstream In(Line);
  std::string Kind;
  In >> Kind;
  if (Kind == "B") {
    uint64_t Job;
    int Par;
    OpenRun R;
    In >> Job >> Par >> R.Program;
    R.Par = Par != 0;
    R.SinceNs = nowNs();
    Open[Job] = R;
    MaxJob = std::max(MaxJob, Job);
  } else if (Kind == "R") {
    Record R;
    int Par, Traced, Ok;
    size_t N;
    In >> R.Job >> Par >> Traced >> Ok >> R.Ms >> R.Program >> N;
    R.Par = Par != 0;
    R.Traced = Traced != 0;
    R.Ok = Ok != 0;
    for (size_t I = 0; I < N; ++I) {
      std::string K;
      double V;
      In >> K >> V;
      R.Vals[K] = V;
    }
    std::getline(In, R.Why);
    if (!R.Why.empty() && R.Why[0] == ' ')
      R.Why.erase(0, 1);
    stampArrival(R);
    Open.erase(R.Job);
    MaxJob = std::max(MaxJob, R.Job);
    W.Recs.push_back(std::move(R));
  } else if (Kind == "S") {
    SpanRec S;
    In >> S.Job >> S.Id >> S.Parent >> S.StartNs >> S.EndNs >> S.Tid >>
        S.Name;
    W.Spans.push_back(std::move(S));
  }
}

/// Job ids of the runner's warm-up pass, kept apart from the window's.
constexpr uint64_t kWarmUpJobs = 1ULL << 40;

/// Runs the workload's window in forked runners, replacing a runner that
/// crashes or hangs.  The first runner warms up with one unrecorded pass
/// (a fresh fork faults in its copy of this process's memory), then says
/// "W" and the window starts (and the workload's windowBegin hook runs).
/// \p CpuSec gets the process tree's CPU time within the window.
Window runWindow(BenchWorkload &WL, const Options &O, double &CpuSec) {
  Window W;
  uint64_t Start = 0;
  double Cpu0 = 0;
  HostTicks Ticks0;
  double Remaining = O.Seconds;
  uint64_t NextJob = 1;
  for (bool First = true;; First = false) {
    int Fds[2], Go[2];
    if (::pipe(Fds) != 0 || ::pipe(Go) != 0)
      throw std::runtime_error("pipe failed");
    std::fflush(nullptr);
    pid_t Runner = ::fork();
    if (Runner < 0)
      throw std::runtime_error("fork failed");
    if (Runner == 0) {
      ::setpgid(0, 0);
      ::close(Fds[0]);
      ::close(Go[1]);
      try {
        if (First) {
          Channel Discard(-1);
          WL.runWindow(0, kWarmUpJobs, Discard);
        }
        Channel Ch(Fds[1]);
        Ch.windowStarts();
        // Wait until the parent has taken its window-start snapshots.
        char Byte;
        if (::read(Go[0], &Byte, 1) != 1)
          ::_exit(3);
        WL.runWindow(nowNs() + static_cast<uint64_t>(Remaining * 1e9),
                     NextJob, Ch);
      } catch (const std::exception &E) {
        std::fprintf(stderr, "perfbench runner: %s\n", E.what());
        std::fflush(stderr);
        ::_exit(3);
      }
      ::_exit(0);
    }
    ::setpgid(Runner, Runner);
    ::close(Fds[1]);
    ::close(Go[0]);

    std::map<uint64_t, OpenRun> Open;
    if (First)
      Open[kWarmUpJobs] = OpenRun{"warm-up", true, nowNs()};
    uint64_t MaxJob = NextJob - 1;
    std::string Buf;
    bool TimedOut = false;
    while (true) {
      pollfd P{Fds[0], POLLIN, 0};
      int Rc = ::poll(&P, 1, 200);
      if (Rc > 0) {
        char Chunk[65536];
        ssize_t N = ::read(Fds[0], Chunk, sizeof(Chunk));
        if (N < 0 && errno == EINTR)
          continue;
        if (N <= 0)
          break;
        Buf.append(Chunk, static_cast<size_t>(N));
        size_t Nl;
        while ((Nl = Buf.find('\n')) != std::string::npos) {
          std::string Line = Buf.substr(0, Nl);
          Buf.erase(0, Nl + 1);
          if (Line != "W") {
            parseLine(Line, W, Open, MaxJob);
            continue;
          }
          Open.erase(kWarmUpJobs);
          if (Start == 0) {
            Start = nowNs();
            Cpu0 = treeCpuSec();
            Ticks0 = hostTicks();
            WL.windowBegin();
          }
          // A runner that died meanwhile is charged below, like any other.
          ssize_t Sent = ::write(Go[1], "g", 1);
          (void)Sent;
        }
      }
      for (const auto &[Job, R] : Open)
        if (nowNs() - R.SinceNs > static_cast<uint64_t>(kRunTimeoutSec * 1e9))
          TimedOut = true;
      if (TimedOut) {
        ::kill(-Runner, SIGKILL);
        break;
      }
    }
    ::close(Fds[0]);
    ::close(Go[1]);
    int St = 0;
    ::waitpid(Runner, &St, 0);
    // Workers of a killed runner are reparented to us (child subreaper).
    ::kill(-Runner, SIGKILL);
    while (::waitpid(-Runner, nullptr, WNOHANG) > 0) {
    }
    if (Start == 0) {
      Start = nowNs();
      Cpu0 = treeCpuSec();
      Ticks0 = hostTicks();
      WL.windowBegin();
    }
    bool Clean = !TimedOut && WIFEXITED(St) && WEXITSTATUS(St) == 0;
    for (const auto &[Job, R] : Open) {
      Record F;
      F.Job = Job;
      F.Program = R.Program;
      F.Par = R.Par;
      stampArrival(F);
      F.Ms = static_cast<double>(F.EndNs - R.SinceNs) * 1e-6;
      F.fail(TimedOut ? "timed out" : "runner died (wait status " +
                                          std::to_string(St) + ")");
      W.Recs.push_back(F);
    }
    if (!Clean && Open.empty()) {
      Record F;
      F.Job = ++MaxJob;
      F.Program = "runner";
      F.Par = false;
      stampArrival(F);
      F.fail("runner exited with wait status " + std::to_string(St));
      W.Recs.push_back(F);
    }
    NextJob = MaxJob + 1;
    Remaining = O.Seconds - static_cast<double>(nowNs() - Start) * 1e-9;
    if (Clean || Remaining <= 0)
      break;
  }
  W.StartNs = Start;
  W.StartTicks = Ticks0;
  W.Sec = static_cast<double>(nowNs() - Start) * 1e-9;
  CpuSec = treeCpuSec() - Cpu0;
  HostTicks Ticks1 = hostTicks();
  if (Ticks1.Total > Ticks0.Total)
    W.StealFrac = static_cast<double>(Ticks1.Steal - Ticks0.Steal) /
                  static_cast<double>(Ticks1.Total - Ticks0.Total);
  return W;
}

// --- Metrics -------------------------------------------------------------

struct RunFacts {
  std::vector<double> SetupSec;
  std::vector<Record> Problems; ///< failures outside the window's runs
  double CpuSec = 0;
  double PeakRssMb = 0;
  double BurnEfficiency = 0;
  std::map<std::string, double> WindowTotals; ///< daemon counters
  std::map<std::string, double> Extra;        ///< model check
};

std::map<std::string, std::vector<double>>
msByProgram(const std::vector<Record> &Recs, bool Par) {
  std::map<std::string, std::vector<double>> Out;
  for (const Record &R : Recs)
    if (R.Par == Par && R.Program != "daemon" && R.Program != "runner")
      Out[R.Program].push_back(R.Ms);
  return Out;
}

/// One pass of the window: its runs, its jobs per second of wall time
/// (from the previous pass's last record to its own), and the share of the
/// host's CPU time the hypervisor stole meanwhile.
struct Pass {
  std::vector<const Record *> Recs;
  double JobsPerSec = 0;
  double Steal = 0;
};

/// Splits the window's records, in arrival order, into passes of
/// \p PassRuns runs.  Runs after the last whole pass (a runner died
/// mid-pass) are left out; a window shorter than one pass is one pass.
std::vector<Pass> splitPasses(const Window &W, size_t PassRuns) {
  std::vector<const Record *> Recs;
  for (const Record &R : W.Recs)
    Recs.push_back(&R);
  std::stable_sort(Recs.begin(), Recs.end(),
                   [](const Record *A, const Record *B) {
                     return A->EndNs < B->EndNs;
                   });
  std::vector<Pass> Out;
  uint64_t FromNs = W.StartNs;
  HostTicks From = W.StartTicks;
  Pass P;
  for (size_t I = 0; I < Recs.size(); ++I) {
    P.Recs.push_back(Recs[I]);
    bool Whole = (I + 1) % PassRuns == 0;
    if (!Whole && !(I + 1 == Recs.size() && Out.empty()))
      continue;
    const Record &E = *Recs[I];
    double Jobs = static_cast<double>(
        std::count_if(P.Recs.begin(), P.Recs.end(),
                      [](const Record *R) { return R->Par; }));
    if (E.EndNs > FromNs)
      P.JobsPerSec = Jobs * 1e9 / static_cast<double>(E.EndNs - FromNs);
    if (E.EndTicks > From.Total)
      P.Steal = static_cast<double>(E.EndSteal - From.Steal) /
                static_cast<double>(E.EndTicks - From.Total);
    FromNs = E.EndNs;
    From.Total = E.EndTicks;
    From.Steal = E.EndSteal;
    Out.push_back(std::move(P));
    P = Pass();
  }
  return Out;
}

/// The half of \p Passes (rounded up) in which the hypervisor stole the
/// least CPU time.  On a shared host, steal comes in bursts of a second or
/// so, and a parallel job hit by one waits for its descheduled worker:
/// at a steal share of 0.09, job times rose by a third.  The end-to-end
/// time metrics come from the quieter half, so that they measure the
/// system rather than its neighbours; host_steal_frac in the provenance
/// line still reports the whole window.
std::vector<const Pass *> quietHalf(const std::vector<Pass> &Passes) {
  std::vector<const Pass *> Out;
  for (const Pass &P : Passes)
    Out.push_back(&P);
  std::stable_sort(Out.begin(), Out.end(), [](const Pass *A, const Pass *B) {
    return A->Steal < B->Steal;
  });
  Out.resize((Out.size() + 1) / 2);
  return Out;
}

std::map<std::string, double> endToEnd(const Window &W, const RunFacts &F,
                                       size_t PassRuns, size_t Attempted,
                                       size_t Failed) {
  std::vector<Pass> Passes = splitPasses(W, std::max<size_t>(1, PassRuns));
  std::vector<Record> Quiet;
  std::vector<double> Par, Rates;
  for (const Pass *P : quietHalf(Passes)) {
    Rates.push_back(P->JobsPerSec);
    for (const Record *R : P->Recs) {
      Quiet.push_back(*R);
      if (R->Par)
        Par.push_back(R->Ms);
    }
  }
  std::vector<double> ParMed, SeqMed;
  for (const auto &[P, V] : msByProgram(Quiet, true))
    ParMed.push_back(quantile(V, 0.5));
  for (const auto &[P, V] : msByProgram(Quiet, false))
    SeqMed.push_back(quantile(V, 0.5));
  return {
      {"setup_s", quantile(F.SetupSec, 0.5)},
      {"jobs_per_s", quantile(Rates, 0.5)},
      {"job_ms_p50", quantile(Par, 0.5)},
      {"job_ms_p90", quantile(Par, 0.9)},
      {"job_ms_geomean", geomean(ParMed)},
      {"seq_ms_geomean", geomean(SeqMed)},
      {"cpu_ms_per_job", F.CpuSec * 1e3 / static_cast<double>(Attempted)},
      {"peak_rss_mb", F.PeakRssMb},
      {"ok_frac", static_cast<double>(Attempted - Failed) /
                      static_cast<double>(Attempted)},
  };
}

std::map<std::string, double> perLayer(const Window &W, const RunFacts &F,
                                       const Options &O, size_t Attempted,
                                       size_t Failed) {
  std::map<std::string, double> M;
  for (const MetricDef &D : perLayerMetrics())
    M[D.Name] = 0;

  std::vector<const Record *> Par;
  std::vector<double> CompileMs;
  std::map<std::string, std::vector<double>> TracedMs, UntracedMs;
  std::set<uint64_t> TracedJobs;
  size_t Seq = 0;
  for (const Record &R : W.Recs) {
    if (!R.Par) {
      ++Seq;
      continue;
    }
    Par.push_back(&R);
    (R.Traced ? TracedMs : UntracedMs)[R.Program].push_back(R.Ms);
    if (R.Traced)
      TracedJobs.insert(R.Job);
    if (R.Vals.count("compile_ms"))
      CompileMs.push_back(R.Vals.at("compile_ms"));
  }
  double Jobs = std::max<double>(1, static_cast<double>(Par.size()));
  M["failed_frac"] =
      static_cast<double>(Failed) / static_cast<double>(Attempted);
  M["job_samples"] = static_cast<double>(Par.size());
  M["seq_samples"] = static_cast<double>(Seq);
  M["compile_ms_p50"] = quantile(CompileMs, 0.5);

  // Counters: the per-job mean of every value the runs reported under a
  // per-layer metric's name.
  std::map<std::string, double> Sum;
  for (const Record *R : Par)
    for (const auto &[K, V] : R->Vals)
      Sum[K] += V;
  for (const auto &[K, V] : Sum)
    if (M.count(K))
      M[K] = V / Jobs;
  if (Sum["runtime.invocations"] > 0)
    M["runtime.invocation_ms"] =
        Sum["runtime.inv_wall_s"] * 1e3 / Sum["runtime.invocations"];
  if (Sum["runtime.inv_wall_s"] > 0)
    M["runtime.useful_frac"] =
        Sum["runtime.useful_s"] / (O.Workers * Sum["runtime.inv_wall_s"]);
  if (Sum["runtime.iterations"] > 0)
    M["runtime.recovered_frac"] =
        Sum["runtime.recovered_iters"] / Sum["runtime.iterations"];
  for (const char *K :
       {"queue_ms", "exec_ms", "daemon_wall_ms", "transport_ms"}) {
    std::vector<double> V;
    for (const Record *R : Par) {
      auto It = R->Vals.find(std::string("service.") + K);
      if (It != R->Vals.end())
        V.push_back(It->second);
    }
    M[std::string("service.") + K + "_p50"] = quantile(V, 0.5);
    if (std::string(K) == "exec_ms")
      M["service.exec_ms_p90"] = quantile(V, 0.9);
  }
  double Runs = std::max<double>(1, static_cast<double>(Par.size() + Seq));
  for (const auto &[K, V] : F.WindowTotals)
    M[K] = V / Runs;

  // Programs.
  auto ParBy = msByProgram(W.Recs, true), SeqBy = msByProgram(W.Recs, false);
  std::vector<double> Speedups;
  for (const auto &[P, V] : ParBy) {
    M["program." + P + ".par_ms"] = quantile(V, 0.5);
    if (SeqBy.count(P)) {
      double S = quantile(SeqBy[P], 0.5);
      M["program." + P + ".seq_ms"] = S;
      Speedups.push_back(S / quantile(V, 0.5));
    }
  }
  M["speedup_geomean"] = geomean(Speedups);

  // Spans of traced jobs.
  std::vector<SpanRec> Spans;
  for (const SpanRec &S : W.Spans)
    if (TracedJobs.count(S.Job))
      Spans.push_back(S);
  SpanSummary Sum2 = summarize(Spans);
  double Traced = std::max<double>(1, static_cast<double>(TracedJobs.size()));
  for (const auto &[Span, Metric] : kSpanMetrics)
    M[Metric] = Sum2.TotalSec[Span] * 1e3 / Traced;
  for (const auto &[Layer, Sec] : Sum2.SelfSec)
    if (M.count("self_ms." + Layer))
      M["self_ms." + Layer] = Sec * 1e3 / Traced;
  if (Sum2.RootSec > 0)
    M["trace.unattributed_frac"] = Sum2.RootUncoveredSec / Sum2.RootSec;
  // Per program, so that which programs happened to be traced does not
  // count as tracing cost.
  std::vector<double> TraceRatios;
  for (const auto &[P, Ms] : TracedMs)
    if (UntracedMs.count(P))
      TraceRatios.push_back(quantile(Ms, 0.5) /
                            quantile(UntracedMs[P], 0.5));
  if (!TraceRatios.empty())
    M["trace.overhead_pct"] = (geomean(TraceRatios) - 1) * 100;

  M["host.burn_efficiency"] = F.BurnEfficiency;
  M["host.steal_frac"] = W.StealFrac;
  for (const auto &[K, V] : F.Extra)
    M[K] = V;
  return M;
}

std::string metricsJson(const std::map<std::string, double> &Vals,
                        const std::vector<MetricDef> &Defs) {
  std::string Out = "{";
  for (size_t I = 0; I < Defs.size(); ++I) {
    char Buf[256];
    double V = Vals.at(Defs[I].Name);
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", Defs[I].Name.c_str(),
                  std::isfinite(V) ? V : 0.0, Defs[I].Unit);
    Out += Buf;
  }
  return Out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper-doall|ir-cold|"
               "service-warm> --seed <n> --seconds <s> --trace "
               "<0|1> [--work-dir <dir>] [--source-id <id>] "
               "[--corrupt-oracle] [--print-programs]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  // Address-space randomization moves the heap, stacks and mappings on
  // every start, and that alone shifts memory-bound phases (the pipeline's
  // interpreter run) by several percent from one run to the next.  Re-exec
  // once with a fixed layout; workers and the daemon inherit it.
  int Persona = ::personality(0xffffffff);
  if (Persona != -1 && !(Persona & ADDR_NO_RANDOMIZE) &&
      ::personality(static_cast<unsigned long>(Persona) | ADDR_NO_RANDOMIZE) !=
          -1)
    ::execv("/proc/self/exe", Argv);

  Options O;
  O.WorkDir = ".bench_build/work";
  std::string SourceId = "unknown";
  bool PrintPrograms = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        throw std::invalid_argument(A + " needs a value");
      return Argv[++I];
    };
    try {
      if (A == "--workload")
        O.Workload = Next();
      else if (A == "--seed")
        O.Seed = std::stoull(Next());
      else if (A == "--seconds")
        O.Seconds = std::stod(Next());
      else if (A == "--trace")
        O.Trace = std::stoi(Next()) != 0;
      else if (A == "--work-dir")
        O.WorkDir = Next();
      else if (A == "--source-id")
        SourceId = Next();
      else if (A == "--corrupt-oracle")
        O.CorruptOracle = true;
      else if (A == "--print-programs")
        PrintPrograms = true;
      else
        return usage();
    } catch (const std::exception &E) {
      std::fprintf(stderr, "perfbench: bad argument: %s\n", E.what());
      return usage();
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), O.Workload) ==
          std::end(kWorkloads) ||
      O.Seconds <= 0)
    return usage();

  ::signal(SIGPIPE, SIG_IGN);
  // Orphans of anything this benchmark starts (killed runners' workers, a
  // daemon's executives) become our children, so none can outlive us.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  long Nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  O.Workers = static_cast<unsigned>(std::clamp<long>(Nproc, 1, 2));
  ::mkdir(O.WorkDir.c_str(), 0755);
  if (!optimizedBuild())
    std::fprintf(stderr, "perfbench: WARNING: built without optimization; "
                         "timings are not representative\n");

  std::unique_ptr<BenchWorkload> WL;
  if (O.Workload == "paper-doall")
    WL = makePaperWorkload(O);
  else if (O.Workload == "ir-cold")
    WL = makeIrColdWorkload(O);
  else
    WL = makeServiceWorkload(O);

  RunFacts F;
  Window W;
  try {
    if (PrintPrograms) {
      WL->setUp();
      for (const std::string &T : WL->programTexts())
        std::printf("%s %zu\n", privateer::fnvHex(privateer::fnv1a(T)).c_str(),
                    T.size());
      WL->tearDown();
      return 0;
    }

    auto TimedSetUp = [&] {
      if (!F.SetupSec.empty())
        for (Record &R : WL->tearDown())
          F.Problems.push_back(R);
      uint64_t T0 = nowNs();
      WL->setUp();
      F.SetupSec.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
    };
    F.BurnEfficiency = burnEfficiency(O.Workers);
    for (unsigned I = 0; I < kSetUpsEachSide; ++I)
      TimedSetUp();

    W = runWindow(*WL, O, F.CpuSec);
    F.PeakRssMb = peakRssMb();
    F.WindowTotals = WL->windowEnd();
    if (O.Trace)
      F.Extra = WL->afterWindow(W.Recs);
    for (unsigned I = 0; I < kSetUpsEachSide; ++I)
      TimedSetUp();
    for (Record &R : WL->tearDown())
      F.Problems.push_back(R);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    WL.reset();
    return 1;
  }
  for (pid_t P : descendants()) {
    Record R;
    R.Program = "runner";
    R.fail("process " + std::to_string(P) + " outlived the run");
    F.Problems.push_back(R);
    ::kill(P, SIGKILL);
    ::waitpid(P, nullptr, 0);
  }

  size_t Attempted = W.Recs.size() + F.Problems.size();
  size_t Failed = F.Problems.size();
  for (const Record &R : W.Recs)
    Failed += R.Ok ? 0 : 1;
  if (Attempted == 0) {
    std::fprintf(stderr, "perfbench: no run finished\n");
    return 1;
  }
  std::vector<std::string> Reasons;
  for (const Record &R : W.Recs)
    if (!R.Ok && Reasons.size() < 5)
      Reasons.push_back(R.Program + ": " + R.Why);
  for (const Record &R : F.Problems)
    if (Reasons.size() < 10)
      Reasons.push_back(R.Program + ": " + R.Why);
  for (const std::string &Why : Reasons)
    std::fprintf(stderr, "perfbench: FAILED %s\n", Why.c_str());

  std::string Setups = "[";
  for (size_t I = 0; I < F.SetupSec.size(); ++I)
    Setups += (I ? ", " : "") + std::to_string(F.SetupSec[I]);
  Setups += "]";
  std::string Prov =
      "{\"workload\": \"" + O.Workload + "\", \"seed\": " +
      std::to_string(O.Seed) + ", \"seconds\": " + std::to_string(O.Seconds) +
      ", \"trace\": " + (O.Trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(Nproc) +
      ", \"workers\": " + std::to_string(O.Workers) +
      ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"optimized\": " +
      (optimizedBuild() ? "true" : "false") + ", \"compiler\": \"" +
      jsonEscape(compilerId()) + "\", \"source\": \"" + jsonEscape(SourceId) +
      "\", \"checkpoint_period\": " +
      std::to_string(privateer::ParallelOptions().CheckpointPeriod) +
      ", \"slots_per_epoch\": " +
      std::to_string(privateer::ParallelOptions().MaxSlotsPerEpoch) +
      ", \"host_burn_efficiency\": " + std::to_string(F.BurnEfficiency) +
      ", \"setup_s_each\": " + Setups +
      ", \"window_s\": " + std::to_string(W.Sec) +
      ", \"host_steal_frac\": " + std::to_string(W.StealFrac) +
      ", \"programs\": " + WL->describe() + "}";

  if (O.Trace) {
    std::string Path =
        O.WorkDir + "/trace-" + O.Workload + "-" + std::to_string(O.Seed) +
        ".json";
    if (writeChromeTrace(Path, W.Spans, Prov))
      std::fprintf(stderr, "perfbench: trace -> %s\n", Path.c_str());
  }

  std::map<std::string, double> Vals;
  std::vector<MetricDef> Defs;
  if (O.Trace) {
    Vals = perLayer(W, F, O, Attempted, Failed);
    Defs = perLayerMetrics();
  } else {
    Vals = endToEnd(W, F, WL->runsPerPass(), Attempted, Failed);
    Defs = kEndToEnd;
  }
  std::printf("{\"provenance\": %s}\n", Prov.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              Failed == 0 ? "true" : "false", Attempted, Failed,
              metricsJson(Vals, Defs).c_str());
  std::fflush(stdout);
  return 0;
}
