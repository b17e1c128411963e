//===- perfbench/src/Bench.h - Shared benchmark types -----------*- C++ -*-===//
///
/// \file
/// The pieces every workload of the benchmark shares: run options, the
/// record of one checked program run, the channel that carries records and
/// spans from the job runner to the parent, and the workload interface.
///
/// Vocabulary.  A *job* is one speculative run of a program, from its inputs
/// (or IR text) to checked output bytes.  Every job alternates with a
/// *baseline run*: the same program run sequentially, also checked.  Both
/// count as attempted; only jobs feed the job_ms_* metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Spans.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Speculative workers per job: min(2, nproc).  The runtime's master
  /// merges checkpoints while the workers run, so W = nproc would keep more
  /// processes runnable than there are cores, and job times would then
  /// measure the scheduler (and a shared host's neighbours) instead of the
  /// system.
  unsigned Workers = 2;
  /// Directory (inside the checkout) for scratch files, sockets and the
  /// trace file.
  std::string WorkDir;
  /// Test hook: damage every oracle so that every check must fail.
  bool CorruptOracle = false;
};

/// One checked program run.
struct Record {
  uint64_t Job = 0;
  std::string Program;
  bool Par = true; ///< a job; false = its sequential baseline run
  bool Traced = false;
  bool Ok = true;
  std::string Why; ///< failure reason when !Ok
  double Ms = 0;   ///< wall time of the whole run
  uint64_t EndNs = 0; ///< when the parent received the record
  /// The host's CPU ticks, all and stolen, when the parent received it.
  unsigned long long EndTicks = 0, EndSteal = 0;
  /// Layer counters and timings, keyed by per-layer metric name.
  std::map<std::string, double> Vals;

  void fail(const std::string &Reason) {
    if (Ok)
      Why = Reason;
    Ok = false;
  }
};

/// Carries records and spans from the job runner to the parent process as
/// text lines on a pipe.  Safe to use from several threads.
class Channel {
public:
  /// \p Fd < 0 makes a channel that discards everything (warm-up runs).
  explicit Channel(int Fd) : Fd(Fd) {}
  /// Announces that \p Job starts, so a job that hangs or crashes the
  /// runner can be charged to its program.
  void begin(uint64_t Job, const std::string &Program, bool Par);
  /// Tells the parent that warm-up is over and the timed window starts.
  void windowStarts() { send("W\n"); }
  void record(const Record &R);
  void span(const SpanRec &S);

private:
  void send(const std::string &Line);
  int Fd;
  std::mutex M;
};

/// One workload of the benchmark.
class BenchWorkload {
public:
  virtual ~BenchWorkload() = default;

  /// Everything a run needs before its timed window: generated inputs,
  /// oracles, warm caches and daemons.  Timed as setup_s.
  virtual void setUp() = 0;

  /// Undoes setUp.  Problems found while stopping (a daemon that exits
  /// badly, leaks its socket or orphans executives) are returned as failed
  /// records.
  virtual std::vector<Record> tearDown() = 0;

  /// Runs whole passes over the workload's programs in the runner process
  /// until \p DeadlineNs, and at least one, streaming every record (and,
  /// on traced jobs, every span) through \p Ch.  Job ids start at
  /// \p FirstJob.
  virtual void runWindow(uint64_t DeadlineNs, uint64_t FirstJob,
                         Channel &Ch) = 0;

  /// Runs (jobs and baseline runs) in one pass over the programs, by all
  /// clients together.  The end-to-end time metrics are taken per pass.
  virtual size_t runsPerPass() const = 0;

  /// Parent-side hooks around the window, for counters that live outside
  /// the runner (the daemon's status).  windowEnd returns totals over the
  /// window, keyed by per-layer metric name; they are reported per run.
  virtual void windowBegin() {}
  virtual std::map<std::string, double> windowEnd() { return {}; }

  /// Context measured after the window in traced runs only (the model
  /// check against the window's records), keyed by per-layer metric name.
  virtual std::map<std::string, double>
  afterWindow(const std::vector<Record> &Recs) {
    (void)Recs;
    return {};
  }

  /// Programs and their sizes, for the provenance stamp (a JSON array).
  virtual std::string describe() const = 0;

  /// Texts of the generated programs (empty for compiled-in programs).
  virtual std::vector<std::string> programTexts() const { return {}; }
};

std::unique_ptr<BenchWorkload> makePaperWorkload(const Options &O);
std::unique_ptr<BenchWorkload> makeIrColdWorkload(const Options &O);
std::unique_ptr<BenchWorkload> makeServiceWorkload(const Options &O);

// --- Helpers shared by the workloads -------------------------------------

/// A scratch file in the work directory, unlinked at once: the output sink
/// for program runs (the same kind of sink runWorkloadParallel's tmpfile
/// gives, kept inside the checkout).
class ScratchFile {
public:
  explicit ScratchFile(const std::string &Dir);
  ~ScratchFile();
  ScratchFile(const ScratchFile &) = delete;
  ScratchFile &operator=(const ScratchFile &) = delete;

  std::FILE *file() const { return F; }
  /// Empties the file for the next run.
  void reset();
  /// Everything written since the last reset.
  std::string contents();

private:
  std::FILE *F = nullptr;
};

/// Whether the job at position \p Index of pass \p Pass records spans.  In
/// traced runs every other job is traced, alternating from pass to pass,
/// so that over any two passes each program runs both ways and the traced
/// and untraced p50s can be compared.  Baseline runs are never traced.
inline bool tracedRun(const Options &O, bool Par, uint64_t Pass,
                      uint64_t Index) {
  return O.Trace && Par && (Pass + Index) % 2 == 1;
}

/// The window loop of the batch workloads: whole passes over \p Programs
/// programs until \p DeadlineNs, and at least one, running each program's
/// job and then its baseline run.  Whole passes keep every run's program
/// mix the same, so the job-time percentiles stay comparable.  \p Name
/// gives program I's name; \p Run(I, Par, Job) runs it and returns the
/// checked record.  Streams every record and traced span through \p Ch;
/// job ids start at \p FirstJob.
void runPasses(const Options &O, size_t Programs, uint64_t DeadlineNs,
               uint64_t FirstJob, Channel &Ch,
               const std::function<std::string(size_t)> &Name,
               const std::function<Record(size_t, bool, uint64_t)> &Run);

/// A derived 64-bit stream seed for \p Purpose under the run seed.
uint64_t subSeed(uint64_t Seed, uint64_t Purpose);

/// Damages \p Oracle when the options ask for it (test hook).
std::string maybeCorrupt(const Options &O, std::string Oracle);

/// A generated IR program and its oracle.
struct IrProgram {
  std::string Name;
  std::string Sizes; ///< the generator arguments, for provenance
  std::string Text;
  bool Doacross = false; ///< compile and run under --strategy doacross
  /// The tree-walking interpreter's sequential output of the untransformed
  /// text, and @main's return value.
  std::string Oracle;
  int64_t OracleRet = 0;
};

/// Generates three size variants of each program in \p Names ("dijkstra",
/// "redsum", "fppricing", "histogram", "degree-count", "dedup",
/// "array-recurrence") for the run seed, variant-major, and runs the
/// interpreter on each to fill its oracle.  \p Small picks the service
/// pool's smaller sizes.  Throws when a text does not parse or verify.
std::vector<IrProgram> prepareIrPrograms(const Options &O,
                                         const std::vector<std::string> &Names,
                                         bool Small);

/// Compares a run's output and return value with \p P's oracle.
void checkAgainstOracle(const IrProgram &P, const std::string &Output,
                        int64_t Ret, Record &R);

/// JSON array describing \p Progs (name, sizes, strategy).
std::string describePrograms(const std::vector<IrProgram> &Progs);

/// The texts of \p Progs.
std::vector<std::string> programTexts(const std::vector<IrProgram> &Progs);

} // namespace perfbench

namespace privateer {
struct InvocationStats;
} // namespace privateer

namespace perfbench {

/// Adds one invocation's runtime counters to \p R under their per-layer
/// metric names.
void addInvocationStats(const privateer::InvocationStats &S, Record &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
