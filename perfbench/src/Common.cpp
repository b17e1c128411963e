//===- perfbench/src/Common.cpp - Shared benchmark helpers ----------------===//

#include "Bench.h"

#include "runtime/Runtime.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include <unistd.h>

using namespace perfbench;
using namespace privateer;

// --- Channel ---------------------------------------------------------------

void Channel::send(const std::string &Line) {
  if (Fd < 0)
    return;
  std::lock_guard<std::mutex> G(M);
  const char *P = Line.data();
  size_t Left = Line.size();
  while (Left > 0) {
    ssize_t N = ::write(Fd, P, Left);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return; // the parent is gone; nothing left to report to
    P += N;
    Left -= static_cast<size_t>(N);
  }
}

void Channel::begin(uint64_t Job, const std::string &Program, bool Par) {
  send("B " + std::to_string(Job) + " " + (Par ? "1 " : "0 ") + Program +
       "\n");
}

void Channel::record(const Record &R) {
  char Head[256];
  std::snprintf(Head, sizeof(Head), "R %llu %d %d %d %.17g %s %zu",
                static_cast<unsigned long long>(R.Job), R.Par ? 1 : 0,
                R.Traced ? 1 : 0, R.Ok ? 1 : 0, R.Ms, R.Program.c_str(),
                R.Vals.size());
  std::string Line = Head;
  for (const auto &[K, V] : R.Vals) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), " %s %.17g", K.c_str(), V);
    Line += Buf;
  }
  std::string Why = R.Why;
  for (char &C : Why)
    if (C == '\n' || C == '\r')
      C = ' ';
  Line += " " + Why + "\n";
  send(Line);
}

void Channel::span(const SpanRec &S) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "S %llu %llu %llu %llu %llu %d %s\n",
                static_cast<unsigned long long>(S.Job),
                static_cast<unsigned long long>(S.Id),
                static_cast<unsigned long long>(S.Parent),
                static_cast<unsigned long long>(S.StartNs),
                static_cast<unsigned long long>(S.EndNs), S.Tid,
                S.Name.c_str());
  send(Buf);
}

// --- ScratchFile -----------------------------------------------------------

ScratchFile::ScratchFile(const std::string &Dir) {
  std::string Tmpl = Dir + "/sink-XXXXXX";
  int Fd = ::mkstemp(Tmpl.data());
  if (Fd < 0)
    throw std::runtime_error("cannot create a scratch file in " + Dir);
  ::unlink(Tmpl.c_str());
  F = ::fdopen(Fd, "w+");
  if (!F) {
    ::close(Fd);
    throw std::runtime_error("fdopen failed");
  }
}

ScratchFile::~ScratchFile() { std::fclose(F); }

void ScratchFile::reset() {
  std::fflush(F);
  if (::ftruncate(::fileno(F), 0) != 0)
    throw std::runtime_error("cannot truncate the scratch file");
  std::rewind(F);
}

std::string ScratchFile::contents() {
  std::fflush(F);
  std::string Out;
  std::rewind(F);
  char Buf[8192];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fseek(F, 0, SEEK_END);
  return Out;
}

// --- The batch workloads' window ---------------------------------------------

void perfbench::runPasses(
    const Options &O, size_t Programs, uint64_t DeadlineNs, uint64_t FirstJob,
    Channel &Ch, const std::function<std::string(size_t)> &Name,
    const std::function<Record(size_t, bool, uint64_t)> &Run) {
  uint64_t Job = FirstJob;
  for (uint64_t Pass = 0; Pass == 0 || nowNs() < DeadlineNs; ++Pass)
    for (size_t I = 0; I < Programs; ++I)
      for (bool Par : {true, false}) {
        bool Traced = tracedRun(O, Par, Pass, I);
        Ch.begin(Job, Name(I), Par);
        Tracer::begin(Traced, Job, [&](const SpanRec &S) { Ch.span(S); });
        Record R = Run(I, Par, Job);
        Tracer::begin(false, 0, nullptr);
        R.Traced = Traced;
        Ch.record(R);
        ++Job;
      }
}

// --- Seeds and oracles -------------------------------------------------------

uint64_t perfbench::subSeed(uint64_t Seed, uint64_t Purpose) {
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ULL + Purpose;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

std::string perfbench::maybeCorrupt(const Options &O, std::string Oracle) {
  if (O.CorruptOracle)
    Oracle = "corrupted:" + Oracle;
  return Oracle;
}

void perfbench::checkAgainstOracle(const IrProgram &P,
                                   const std::string &Output, int64_t Ret,
                                   Record &R) {
  if (Output != P.Oracle)
    R.fail("output differs from the interpreter's (" +
           std::to_string(Output.size()) + " vs " +
           std::to_string(P.Oracle.size()) + " bytes)");
  else if (Ret != P.OracleRet)
    R.fail("return value " + std::to_string(Ret) + " differs from " +
           std::to_string(P.OracleRet));
}

std::string perfbench::describePrograms(const std::vector<IrProgram> &Progs) {
  std::string Out = "[";
  for (size_t I = 0; I < Progs.size(); ++I) {
    const IrProgram &P = Progs[I];
    Out += (I ? ", " : "") + std::string("{\"name\": \"") + P.Name +
           "\", \"sizes\": \"" + P.Sizes + "\", \"strategy\": \"" +
           (P.Doacross ? "doacross" : "doall") + "\"}";
  }
  return Out + "]";
}

std::vector<std::string>
perfbench::programTexts(const std::vector<IrProgram> &Progs) {
  std::vector<std::string> Out;
  for (const IrProgram &P : Progs)
    Out.push_back(P.Text);
  return Out;
}

// --- Runtime counters ----------------------------------------------------------

void perfbench::addInvocationStats(const InvocationStats &S, Record &R) {
  auto Add = [&](const char *K, double V) { R.Vals[K] += V; };
  auto U = [](uint64_t V) { return static_cast<double>(V); };
  Add("runtime.invocations", 1);
  Add("runtime.iterations", U(S.Iterations));
  Add("runtime.inv_wall_s", S.WallSec);
  Add("runtime.epochs", U(S.Epochs));
  Add("runtime.checkpoints", U(S.Checkpoints));
  Add("runtime.eager_slots", U(S.EagerSlots));
  Add("runtime.overlap_s", S.OverlapSec);
  Add("runtime.useful_s", S.UsefulSec);
  Add("runtime.checkpoint_s", S.CheckpointSec);
  Add("runtime.dirty_chunks", U(S.CheckpointDirtyChunks));
  Add("runtime.bytes_scanned", U(S.CheckpointBytesScanned));
  Add("runtime.bytes_skipped", U(S.CheckpointBytesSkipped));
  Add("runtime.private_read_calls", U(S.PrivateReadCalls));
  Add("runtime.private_read_bytes", U(S.PrivateReadBytes));
  Add("runtime.private_read_s", S.PrivateReadSec);
  Add("runtime.private_write_calls", U(S.PrivateWriteCalls));
  Add("runtime.private_write_bytes", U(S.PrivateWriteBytes));
  Add("runtime.private_write_s", S.PrivateWriteSec);
  Add("runtime.separation_checks", U(S.SeparationChecks));
  Add("runtime.misspecs", U(S.Misspecs));
  Add("runtime.recovered_iters", U(S.RecoveredIterations));
  Add("runtime.early_cutoffs", U(S.EarlyCutoffs));
  Add("runtime.early_cutoff_iters_saved", U(S.EarlyCutoffItersSaved));
  Add("runtime.degraded_epochs", U(S.DegradedEpochs));
  Add("runtime.degraded_iters", U(S.DegradedIterations));
  Add("runtime.com_updates", U(S.ComUpdates));
  Add("runtime.com_records_committed", U(S.ComRecordsCommitted));
  Add("runtime.com_overflows", U(S.ComOverflows));
  Add("runtime.dep_waits", U(S.DepWaits));
  Add("runtime.dep_wait_spins", U(S.DepWaitSpins));
  Add("runtime.dep_wait_timeouts", U(S.DepWaitTimeouts));
  Add("runtime.faults", U(S.StalledWorkersKilled + S.LocksBroken +
                          S.ForkFailures + S.ResourceFailures));
}
