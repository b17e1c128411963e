//===- perfbench/src/IrJobs.cpp - ir-cold ---------------------------------===//
///
/// \file
/// IR text in, output bytes out: the daemon's cache-miss path without the
/// transport.  Each job parses, verifies, builds the function analyses,
/// runs the Privateer pipeline (profile, classify, select, transform),
/// lowers the selected loop to bytecode, round-trips the program through
/// its serialized image, and executes the loaded image at W workers.  The
/// output must match the tree-walking interpreter's sequential output of
/// the untransformed text, computed in set-up.  Its baseline run parses
/// the text again and executes it sequentially on the bytecode engine.
///
/// Every program comes in three sizes drawn from the run seed, so every
/// job compiles from text and runs with different seeds compile different
/// texts.  This file also generates the programs service-warm submits.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/FunctionAnalyses.h"
#include "bytecode/Image.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "runtime/Runtime.h"
#include "support/DeterministicRng.h"
#include "support/Fnv.h"
#include "transform/Pipeline.h"
#include "workloads/IrPrograms.h"

#include <stdexcept>

using namespace perfbench;
using namespace privateer;

namespace {

const std::vector<std::string> kPrograms = {
    "dijkstra",     "redsum", "fppricing",       "histogram",
    "degree-count", "dedup",  "array-recurrence"};

double instructionCount(const ir::Module &M) {
  size_t N = 0;
  for (const auto &F : M.functions())
    for (const auto &B : F->blocks())
      N += B->instructions().size();
  return static_cast<double>(N);
}

/// Size variant \p Variant (0-2) of program \p Name for run seed \p Seed.
IrProgram generateIrProgram(const std::string &Name, uint64_t Seed,
                            unsigned Variant, bool Small) {
  // Variant v of a program has size band (v + Seed) mod 3: 0.8x, 1x or
  // 1.25x its base size, jittered by up to 2% from the seed.  A window
  // runs every variant equally often, so the work per pass does not
  // depend on the seed while the texts do.
  static const double kBands[] = {0.8, 1.0, 1.25};
  unsigned Band = static_cast<unsigned>((Variant + Seed) % 3);
  DeterministicRng Rng(subSeed(Seed, fnv1a(Name) + Variant));
  auto Size = [&](double Base) {
    double Jitter = 1 + Rng.nextDouble(-0.02, 0.02);
    return static_cast<uint64_t>(Base * kBands[Band] * Jitter);
  };
  IrProgram P;
  P.Name = Name;
  if (Name == "dijkstra") {
    unsigned N = (Small ? 12 : 24) + 2 * Band - 2;
    P.Sizes = "nodes=" + std::to_string(N);
    P.Text = dijkstraIrText(N);
  } else if (Name == "redsum") {
    uint64_t N = Size(Small ? 4000 : 40000);
    P.Sizes = "n=" + std::to_string(N);
    P.Text = reductionSumIrText(N);
  } else if (Name == "fppricing") {
    uint64_t N = Size(Small ? 1000 : 8000);
    P.Sizes = "n=" + std::to_string(N);
    P.Text = fpPricingIrText(N);
  } else if (Name == "histogram") {
    uint64_t N = Size(Small ? 1000 : 8000);
    P.Sizes = "n=" + std::to_string(N) + " buckets=256 rounds=8";
    P.Text = histogramIrText(N, 256, 8);
  } else if (Name == "degree-count") {
    uint64_t Nodes = 2 * Size(128), Edges = Size(8000);
    P.Sizes = "nodes=" + std::to_string(Nodes) +
              " edges=" + std::to_string(Edges) + " rounds=4";
    P.Text = degreeCountIrText(Nodes, Edges, 4);
  } else if (Name == "dedup") {
    uint64_t N = Size(8000);
    P.Sizes = "n=" + std::to_string(N) + " words=64 rounds=4";
    P.Text = dedupIrText(N, 64, 4);
  } else if (Name == "array-recurrence") {
    uint64_t N = Size(6000), Dist = 4 + 2 * Band;
    P.Sizes = "n=" + std::to_string(N) + " dist=" + std::to_string(Dist);
    P.Text = arrayRecurrenceIrText(N, Dist);
    P.Doacross = true;
  } else {
    throw std::invalid_argument("unknown IR program " + Name);
  }
  // A comment makes every text unique to its seed and variant, whatever
  // the sizes came out as.
  P.Text = "; perfbench seed=" + std::to_string(Seed) + " program=" + Name +
           " variant=" + std::to_string(Variant) + "\n" + P.Text;
  return P;
}

class IrColdWorkload : public BenchWorkload {
public:
  explicit IrColdWorkload(const Options &O) : O(O) {}

  void setUp() override { Progs = prepareIrPrograms(O, kPrograms, false); }

  std::vector<Record> tearDown() override { return {}; }

  void runWindow(uint64_t DeadlineNs, uint64_t FirstJob,
                 Channel &Ch) override {
    ScratchFile Sink(O.WorkDir);
    runPasses(
        O, Progs.size(), DeadlineNs, FirstJob, Ch,
        [&](size_t I) { return Progs[I].Name; },
        [&](size_t I, bool Par, uint64_t Job) {
          return Par ? runJob(Progs[I], Job, Sink)
                     : runBaseline(Progs[I], Job, Sink);
        });
  }

  size_t runsPerPass() const override { return 2 * Progs.size(); }

  std::string describe() const override { return describePrograms(Progs); }

  std::vector<std::string> programTexts() const override {
    return perfbench::programTexts(Progs);
  }

private:
  Record runJob(const IrProgram &P, uint64_t Job, ScratchFile &Sink);
  Record runBaseline(const IrProgram &P, uint64_t Job, ScratchFile &Sink);

  Options O;
  std::vector<IrProgram> Progs;
};

Record IrColdWorkload::runJob(const IrProgram &P, uint64_t Job,
                              ScratchFile &Sink) {
  Record R;
  R.Job = Job;
  R.Program = P.Name;
  Runtime &Rt = Runtime::get();
  Strategy Strat = P.Doacross ? Strategy::Doacross : Strategy::Doall;
  std::string Output;
  int64_t Ret = 0;

  uint64_t T0 = nowNs();
  // Every early return is a failed check; the job's time still counts.
  [&] {
    Tracer::Span Root("bench.job");
    std::string Err;
    std::unique_ptr<ir::Module> M;
    {
      Tracer::Span S("ir.parse");
      M = ir::parseModule(P.Text, Err);
    }
    if (!M) {
      R.fail("parse: " + Err);
      return;
    }
    std::vector<std::string> Diags;
    {
      Tracer::Span S("ir.verify");
      Diags = ir::verifyModule(*M);
    }
    if (!Diags.empty()) {
      R.fail("verify: " + Diags.front());
      return;
    }
    R.Vals["ir.insts_in"] = instructionCount(*M);
    std::unique_ptr<analysis::FunctionAnalyses> FA;
    {
      Tracer::Span S("analysis.function_analyses");
      FA = std::make_unique<analysis::FunctionAnalyses>(*M);
    }
    transform::PipelineOptions PO;
    PO.Strat = Strat;
    transform::PipelineResult PR;
    // The training run's output is not the job's output.
    Sink.reset();
    Rt.setSequentialOutput(Sink.file());
    {
      Tracer::Span S("transform.pipeline");
      PR = transform::runPrivateerPipeline(*M, *FA, PO);
    }
    Rt.setSequentialOutput(nullptr);
    R.Vals["ir.insts_out"] = instructionCount(*M);
    R.Vals["transform.transformed"] = PR.Transformed ? 1 : 0;
    R.Vals["transform.separation_checks"] = PR.Stats.SeparationChecks;
    R.Vals["transform.separation_checks_elided"] =
        PR.Stats.SeparationChecksElided;
    R.Vals["transform.privacy_checks"] = PR.Stats.PrivacyChecks;
    R.Vals["transform.privacy_checks_elided"] = PR.Stats.PrivacyChecksElided;
    R.Vals["transform.com_updates_installed"] = PR.Stats.ComUpdatesInstalled;
    for (const auto &[Obj, Heap] : PR.Assignment.ObjectHeaps)
      R.Vals[std::string("classify.objects.") + heapKindName(Heap)] += 1;
    if (!PR.Transformed) {
      R.fail("the pipeline selected no loop");
      return;
    }

    ParallelOptions Par;
    Par.NumWorkers = O.Workers;
    Par.Strat = Strat;
    std::string WhyNot;
    std::shared_ptr<const bytecode::BytecodeProgram> BP;
    {
      Tracer::Span S("bytecode.lower");
      BP = transform::lowerForPrivatized(*M, *FA, PR.Assignment, WhyNot);
    }
    transform::ExecutionResult E;
    if (BP) {
      std::string Image;
      {
        Tracer::Span S("bytecode.image_serialize");
        Image = bytecode::serializeProgram(*BP);
      }
      std::unique_ptr<bytecode::BytecodeProgram> Loaded;
      {
        Tracer::Span S("bytecode.image_load");
        Loaded = bytecode::deserializeProgram(Image.data(), Image.size(), Err);
      }
      if (!Loaded) {
        R.fail("image load: " + Err);
        return;
      }
      R.Vals["bytecode.image_bytes"] = static_cast<double>(Image.size());
      R.Vals["compile_ms"] = static_cast<double>(nowNs() - T0) * 1e-6;
      Sink.reset();
      Tracer::Span S("runtime.execute_loaded_parallel");
      E = transform::executeLoadedParallel(*Loaded, PO, Par, RuntimeConfig(),
                                           Sink.file());
    } else {
      // The lowerer declined: the system falls back to the interpreter
      // without telling its caller, so count it.
      R.Vals["bytecode.fallbacks"] = 1;
      R.Vals["compile_ms"] = static_cast<double>(nowNs() - T0) * 1e-6;
      PO.Engine = transform::ExecEngine::Interp;
      Sink.reset();
      Tracer::Span S("runtime.execute_privatized");
      E = transform::executePrivatized(*M, *FA, PR.Assignment, PO, Par,
                                       RuntimeConfig(), Sink.file());
    }
    addInvocationStats(E.Stats, R);
    Ret = E.ReturnValue.asInt();
    Output = Sink.contents();
  }();
  R.Ms = static_cast<double>(nowNs() - T0) * 1e-6;
  if (R.Ok)
    checkAgainstOracle(P, Output, Ret, R);
  return R;
}

Record IrColdWorkload::runBaseline(const IrProgram &P, uint64_t Job,
                                   ScratchFile &Sink) {
  Record R;
  R.Job = Job;
  R.Program = P.Name;
  R.Par = false;
  uint64_t T0 = nowNs();
  std::string Err;
  auto M = ir::parseModule(P.Text, Err);
  if (!M || !ir::verifyModule(*M).empty()) {
    R.fail("parse or verify failed: " + Err);
    return R;
  }
  Sink.reset();
  int64_t Ret = transform::executeSequential(*M, transform::PipelineOptions(),
                                             Sink.file())
                    .asInt();
  std::string Output = Sink.contents();
  R.Ms = static_cast<double>(nowNs() - T0) * 1e-6;
  checkAgainstOracle(P, Output, Ret, R);
  return R;
}

} // namespace

std::vector<IrProgram>
perfbench::prepareIrPrograms(const Options &O,
                             const std::vector<std::string> &Names,
                             bool Small) {
  std::vector<IrProgram> Progs;
  ScratchFile Sink(O.WorkDir);
  for (unsigned V = 0; V < 3; ++V)
    for (const std::string &Name : Names) {
      IrProgram P = generateIrProgram(Name, O.Seed, V, Small);
      std::string Err;
      auto M = ir::parseModule(P.Text, Err);
      std::vector<std::string> Diags;
      if (M)
        Diags = ir::verifyModule(*M);
      if (!M || !Diags.empty())
        throw std::runtime_error(Name + ": " + (M ? Diags.front() : Err));
      transform::PipelineOptions Interp;
      Interp.Engine = transform::ExecEngine::Interp;
      Sink.reset();
      P.OracleRet =
          transform::executeSequential(*M, Interp, Sink.file()).asInt();
      P.Oracle = maybeCorrupt(O, Sink.contents());
      Progs.push_back(std::move(P));
    }
  return Progs;
}

std::unique_ptr<BenchWorkload> perfbench::makeIrColdWorkload(const Options &O) {
  return std::make_unique<IrColdWorkload>(O);
}
