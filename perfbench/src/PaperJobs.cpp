//===- perfbench/src/PaperJobs.cpp - paper-doall --------------------------===//
///
/// \file
/// The paper's five hand-privatized programs at Full scale.  Each job
/// brings the runtime up, sets the program's inputs up on the logical
/// heaps, drives every invocation through the public Runtime::runParallel
/// (one call per invocation, so no InvocationStats field is lost), digests
/// live-outs plus deferred output the way runWorkloadParallel does, and
/// checks the digest against Workload::referenceDigest().  Its baseline run
/// does the same with Runtime::runSequential.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "perfmodel/PerfModel.h"
#include "runtime/Runtime.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace perfbench;
using namespace privateer;

namespace {

/// The paper's Table 3 order.
const char *const kPrograms[] = {"dijkstra", "blackscholes", "swaptions",
                                 "alvinn", "enc-md5"};

class PaperWorkload : public BenchWorkload {
public:
  explicit PaperWorkload(const Options &O) : O(O) {}

  void setUp() override {
    Progs.clear();
    Refs.clear();
    Runtime &Rt = Runtime::get();
    for (const char *Name : kPrograms) {
      Progs.push_back(makeWorkload(Name, Workload::Scale::Full));
      Workload &W = *Progs.back();
      Rt.initialize(W.runtimeConfig());
      W.setUp();
      Refs.push_back(maybeCorrupt(O, W.referenceDigest()));
      W.tearDown();
      Rt.shutdown();
    }
  }

  std::vector<Record> tearDown() override { return {}; }

  void runWindow(uint64_t DeadlineNs, uint64_t FirstJob,
                 Channel &Ch) override {
    ScratchFile Sink(O.WorkDir);
    runPasses(
        O, Progs.size(), DeadlineNs, FirstJob, Ch,
        [&](size_t I) { return std::string(Progs[I]->name()); },
        [&](size_t I, bool Par, uint64_t Job) {
          return runOne(I, Par, Job, Sink);
        });
  }

  size_t runsPerPass() const override { return 2 * Progs.size(); }

  std::map<std::string, double>
  afterWindow(const std::vector<Record> &Recs) override;

  std::string describe() const override {
    std::string Out = "[";
    for (size_t I = 0; I < Progs.size(); ++I) {
      const Workload &W = *Progs[I];
      Out += (I ? ", " : "") + std::string("{\"name\": \"") + W.name() +
             "\", \"scale\": \"full\", \"invocations\": " +
             std::to_string(W.invocations()) + ", \"iterations\": " +
             std::to_string(W.iterationsPerInvocation()) + "}";
    }
    return Out + "]";
  }

private:
  Record runOne(size_t I, bool Par, uint64_t Job, ScratchFile &Sink);

  Options O;
  std::vector<std::unique_ptr<Workload>> Progs;
  std::vector<std::string> Refs;
};

Record PaperWorkload::runOne(size_t I, bool Par, uint64_t Job,
                             ScratchFile &Sink) {
  Workload &W = *Progs[I];
  Runtime &Rt = Runtime::get();
  Record R;
  R.Job = Job;
  R.Program = W.name();
  R.Par = Par;

  ParallelOptions Opt;
  Opt.NumWorkers = O.Workers;
  Opt.Out = Sink.file();

  std::string Digest;
  uint64_t T0 = nowNs();
  {
    Tracer::Span Root("bench.job");
    {
      Tracer::Span S("runtime.initialize");
      Rt.initialize(W.runtimeConfig());
    }
    {
      Tracer::Span S("workloads.set_up");
      W.setUp();
    }
    Sink.reset();
    Rt.setSequentialOutput(Sink.file());
    uint64_t FirstStart = 0, LastEnd = 0, InsideNs = 0;
    auto Body = [&](uint64_t It) { W.body(It); };
    for (uint64_t K = 0, E = W.invocations(); K < E; ++K) {
      {
        Tracer::Span S("workloads.begin_invocation");
        W.beginInvocation(K);
      }
      uint64_t A = nowNs();
      if (Par) {
        Tracer::Span S("runtime.run_parallel");
        addInvocationStats(
            Rt.runParallel(W.iterationsPerInvocation(), Opt, Body), R);
      } else {
        Tracer::Span S("runtime.run_sequential");
        Rt.runSequential(0, W.iterationsPerInvocation(), Body);
      }
      uint64_t B = nowNs();
      FirstStart = K == 0 ? A : FirstStart;
      LastEnd = B;
      InsideNs += B - A;
      {
        Tracer::Span S("workloads.end_invocation");
        W.endInvocation(K);
      }
    }
    Rt.setSequentialOutput(nullptr);
    if (Par)
      R.Vals["runtime.between_ms"] =
          static_cast<double>(LastEnd - FirstStart - InsideNs) * 1e-6;
    {
      Tracer::Span S("workloads.digest");
      std::string LiveOut;
      W.appendLiveOut(LiveOut);
      Digest = combineDigest(LiveOut, Sink.contents());
    }
    {
      Tracer::Span S("workloads.tear_down");
      W.tearDown();
    }
    {
      Tracer::Span S("runtime.shutdown");
      Rt.shutdown();
    }
  }
  R.Ms = static_cast<double>(nowNs() - T0) * 1e-6;
  if (Digest != Refs[I])
    R.fail("digest " + Digest + " differs from the reference " + Refs[I]);
  return R;
}

/// Model check: the perfmodel's predicted W-worker parallel-region time
/// next to the measured one, per program.  Calibration runs here, after
/// the timed window, so it never perturbs the measured jobs.
std::map<std::string, double>
PaperWorkload::afterWindow(const std::vector<Record> &Recs) {
  if (!O.Trace)
    return {};
  MachineModel M = MachineModel::calibrate();
  double ErrSum = 0;
  unsigned N = 0;
  for (const auto &W : Progs) {
    std::vector<double> Meas;
    for (const Record &R : Recs)
      if (R.Par && R.Ok && R.Program == W->name())
        Meas.push_back(R.Vals.at("runtime.inv_wall_s"));
    if (Meas.empty())
      continue;
    std::sort(Meas.begin(), Meas.end());
    double Measured = Meas[Meas.size() / 2];
    // TargetHotSec = 0: model the inputs as run, without reference scaling.
    WorkloadModel WM = WorkloadModel::measure(*W, 64, 0.0);
    SimOptions SO;
    SO.Workers = O.Workers;
    SO.CheckpointPeriod = 64;
    double Predicted = simulatePrivateer(M, WM, SO).WallSec;
    double Err = std::fabs(Predicted - Measured) / Measured * 100;
    std::fprintf(stderr,
                 "model check: %-12s W=%u predicted %8.2f ms, measured %8.2f "
                 "ms, error %.0f%%\n",
                 W->name(), O.Workers, Predicted * 1e3, Measured * 1e3, Err);
    ErrSum += Err;
    ++N;
  }
  return {{"perfmodel.err_pct", N ? ErrSum / N : 0}};
}

} // namespace

std::unique_ptr<BenchWorkload> perfbench::makePaperWorkload(const Options &O) {
  return std::make_unique<PaperWorkload>(O);
}
