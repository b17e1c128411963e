//===- transform/Pipeline.cpp ---------------------------------------------===//

#include "transform/Pipeline.h"

#include "analysis/DepDistance.h"
#include "bytecode/Lower.h"
#include "bytecode/VM.h"
#include "ir/Verifier.h"
#include "profiling/ProfileCollector.h"
#include "support/ErrorHandling.h"
#include "transform/Doacross.h"

#include <algorithm>

using namespace privateer;
using namespace privateer::transform;
using namespace privateer::analysis;
using namespace privateer::classify;
using namespace privateer::interp;
using namespace privateer::ir;

PipelineResult transform::runPrivateerPipeline(Module &M,
                                               const FunctionAnalyses &FA,
                                               const PipelineOptions &Opt) {
  PipelineResult R;

  // --- §4.1 Profiling: one instrumented training run. ---------------------
  {
    const std::string &TrainEntry = Opt.TrainingEntryFunction.empty()
                                        ? Opt.EntryFunction
                                        : Opt.TrainingEntryFunction;
    profiling::TrainingRun Run = profiling::runTrainingProfile(
        M, FA, TrainEntry,
        TrainEntry == Opt.EntryFunction ? Opt.EntryArgs
                                        : std::vector<interp::Cell>(),
        Opt.ProfileBudget, Opt.Engine);
    char Ms[32];
    std::snprintf(Ms, sizeof(Ms), "%.2f", Run.WallMs);
    R.Log.push_back("profiled @" + TrainEntry + " on " +
                    execEngineName(Opt.Engine) + ": " +
                    std::to_string(Run.Instructions) + " instructions in " +
                    Ms + " ms, " + std::to_string(Run.Loads) + " loads, " +
                    std::to_string(Run.Stores) + " stores, " +
                    std::to_string(Run.Allocs) + " allocs");
    if (!Run.Trap.empty()) {
      R.TrainingTrap = Run.Trap;
      R.Log.push_back("training run trapped: " + Run.Trap);
      return R;
    }
    R.TrainingProfile = std::move(Run.Prof);
  }

  // --- Hot loops, classification (§4.2), selection (§4.3). ----------------
  std::vector<Loop *> Loops = FA.allLoops();
  std::sort(Loops.begin(), Loops.end(), [&](Loop *A, Loop *B) {
    return R.TrainingProfile.loopStats(A).Weight >
           R.TrainingProfile.loopStats(B).Weight;
  });

  bool Rewritten = false; // M was changed in place: verify it again.
  std::vector<HeapAssignment> Candidates;
  for (Loop *L : Loops) {
    profiling::LoopStats S = R.TrainingProfile.loopStats(L);
    if (S.Iterations == 0)
      continue;
    std::vector<std::string> WhyNot;
    bool Ready = isDoallReady(*L, FA, WhyNot);
    HeapAssignment HA;
    if (Ready)
      HA = classifyLoop(*L, FA, R.TrainingProfile, nullptr,
                        Opt.EnableCommutative);

    // DOACROSS pre-pass: when the strategy allows it and plain DOALL is
    // off the table, try to rewrite the loop's carried dependences into
    // token forwarding.  The trial classification (with the covered deps
    // carved out) runs before the IR is touched, so a loop the tokens
    // cannot fully cover is left unmodified.
    if (Opt.Strat != Strategy::Doall && (!Ready || !HA.Parallelizable)) {
      analysis::DoacrossPlan DP =
          analysis::planDoacross(*L, FA, R.TrainingProfile);
      if (!DP.viable()) {
        R.Log.push_back("loop@" + L->header()->name() + ": no doacross (" +
                        (DP.WhyNot.empty() ? "?" : DP.WhyNot.front()) + ")");
      } else {
        HeapAssignment Trial = classifyLoop(*L, FA, R.TrainingProfile,
                                            &DP.Covered, Opt.EnableCommutative);
        if (!Trial.Parallelizable) {
          R.Log.push_back("loop@" + L->header()->name() +
                          ": doacross tokens cover too little");
        } else {
          DoacrossStats DS = applyDoacross(M, DP);
          Rewritten = true;
          for (const std::string &E : DS.Errors)
            R.Log.push_back("doacross error: " + E);
          WhyNot.clear();
          if (DS.ok() && isDoallReady(*L, FA, WhyNot)) {
            HA = std::move(Trial);
            HA.DoacrossChannels = DP.NumChannels;
            for (const analysis::ArrayCarry &AC : DP.Arrays)
              HA.PrivacyElides.insert(AC.Load);
            Ready = true;
            R.Log.push_back(
                "loop@" + L->header()->name() + ": doacross rewrite, " +
                std::to_string(DS.ScalarCarries) + " scalar + " +
                std::to_string(DS.ArrayCarries) + " array carries over " +
                std::to_string(DP.NumChannels) + " channels, min distance " +
                std::to_string(DP.MinDistance));
          }
        }
      }
    }

    if (!Ready) {
      R.Log.push_back("loop@" + L->header()->name() + ": not DOALL (" +
                      (WhyNot.empty() ? "?" : WhyNot.front()) + ")");
      continue;
    }
    R.Log.push_back("loop@" + L->header()->name() + ": " +
                    (HA.Parallelizable ? "parallelizable"
                                       : "NOT parallelizable") +
                    ", weight=" + std::to_string(S.Weight));
    for (const std::string &N : HA.Notes)
      R.Log.push_back("  " + N);
    Candidates.push_back(std::move(HA));
  }

  std::vector<HeapAssignment> Selected =
      selectLoops(Candidates, FA, R.TrainingProfile);
  if (Selected.empty()) {
    R.Log.push_back("no parallelizable loop selected");
  } else {
    // --- §4.4-4.6 Transformation of the heaviest selected loop. -----------
    R.Assignment = Selected.front();
    R.SelectedLoop = R.Assignment.TheLoop;
    R.Stats = applyPrivatization(M, R.Assignment, FA, R.TrainingProfile);
    for (const std::string &E : R.Stats.Errors)
      R.Log.push_back("transform error: " + E);
    Rewritten = true;
  }
  // The VM lowers only modules that verify, and a rewrite can push a
  // function past a verifier limit (value prediction adds values and
  // constants to the loop's function, which may sit at the register bound).
  if (Rewritten)
    R.ModuleErrors = ir::verifyModule(M);
  for (const std::string &D : R.ModuleErrors)
    R.Log.push_back("rewritten module: " + D);
  R.Transformed = R.SelectedLoop && R.Stats.ok() && R.ModuleErrors.empty();
  if (R.Transformed)
    R.Log.push_back(
        "selected loop@" + R.SelectedLoop->header()->name() + ": " +
        std::to_string(R.Stats.PrivacyChecks) + " privacy checks, " +
        std::to_string(R.Stats.SeparationChecks) + " separation checks (" +
        std::to_string(R.Stats.SeparationChecksElided) + " elided), " +
        std::to_string(R.Stats.PredictionsInstalled) + " value predictions");
  return R;
}

std::shared_ptr<const bytecode::BytecodeProgram>
transform::lowerForPrivatized(const Module &M, const FunctionAnalyses &FA,
                              const HeapAssignment &HA, std::string &WhyNot) {
  const Loop *L = HA.TheLoop;
  if (!L) {
    WhyNot = "no selected loop";
    return nullptr;
  }
  auto Iv = L->canonicalIv(FA.cfg(L->header()->parent()));
  if (!Iv) {
    WhyNot = "selected loop lost its canonical IV";
    return nullptr;
  }
  // Bake the reduction registrations into the program: executing a
  // prelowered program (the service's executive pool ships them as flat
  // images) must not require the classification results at exec time.
  // Every reduction and commutative object registers, or its workers'
  // updates would never reach the master: globals once their storage
  // exists, heap objects as their allocation site creates them.
  std::map<profiling::ObjectKey, std::pair<ReduxElem, ReduxOp>> Reductions =
      HA.ReduxOps;
  for (const auto &[O, OpWidth] : HA.ComOps)
    Reductions[O] = {reduxIntElem(OpWidth.second), OpWidth.first};
  std::map<const Instruction *, std::pair<ReduxElem, ReduxOp>> Sites;
  for (const auto &[O, ElemOp] : Reductions) {
    if (!O.AllocSite)
      continue;
    auto [It, New] = Sites.try_emplace(O.AllocSite, ElemOp);
    if (!New && It->second != ElemOp) {
      WhyNot = "allocation site %" + O.AllocSite->name() +
               " reduces with two operators";
      return nullptr;
    }
  }
  bytecode::LowerOptions LO;
  LO.PlanLoop = L;
  LO.Iv = *Iv;
  LO.SiteReductions = &Sites;
  std::unique_ptr<bytecode::BytecodeProgram> Prog =
      bytecode::lowerModule(M, LO);
  for (const auto &[O, ElemOp] : Reductions)
    if (O.Global)
      Prog->ReduxGlobals.push_back({Prog->GlobalIdx.at(O.Global->name()),
                                    ElemOp.first, ElemOp.second});
  // Same self-containment for token rings: a warm executive sizes them
  // from the image alone.
  Prog->NumDepChannels = HA.DoacrossChannels;
  return Prog;
}

ExecutionResult transform::executePrivatized(
    Module &M, const FunctionAnalyses &FA, const HeapAssignment &HA,
    const PipelineOptions &Opt, const ParallelOptions &ParOpts,
    const RuntimeConfig &Config, std::FILE *Out) {
  std::string WhyNot;
  auto BP = lowerForPrivatized(M, FA, HA, WhyNot);
  if (!BP)
    reportFatalError("privatized execution: " + WhyNot);
  return executeLoadedParallel(*BP, Opt, ParOpts, Config, Out);
}

ExecutionResult transform::executeLoadedParallel(
    const bytecode::BytecodeProgram &BP, const PipelineOptions &Opt,
    const ParallelOptions &ParOpts, const RuntimeConfig &Config,
    std::FILE *Out) {
  Runtime &Rt = Runtime::get();
  Rt.initialize(Config);
  Rt.setSequentialOutput(Out);

  ExecutionResult R;
  {
    PrivateerMemoryManager MM;
    bytecode::VM Vm(BP, MM);
    bytecode::VM::ParallelPlan Plan;
    Plan.Options = ParOpts;
    Plan.Options.Out = Out;
    Plan.Options.NumDepChannels =
        std::max(Plan.Options.NumDepChannels, BP.NumDepChannels);
    Vm.setParallelPlan(&Plan);
    Vm.initializeGlobals();
    for (const bytecode::BcReduxGlobal &RG : BP.ReduxGlobals)
      Rt.registerReduction(
          reinterpret_cast<void *>(Vm.globalAddress(RG.GlobalIdx)),
          BP.Globals[RG.GlobalIdx].SizeBytes, RG.Elem, RG.Op);
    R.ReturnValue = Vm.run(Opt.EntryFunction, Opt.EntryArgs);
    R.Stats = Plan.Stats;
  }

  Rt.setSequentialOutput(nullptr);
  Rt.shutdown();
  return R;
}

Cell transform::executeLoadedSequential(const bytecode::BytecodeProgram &BP,
                                        const PipelineOptions &Opt,
                                        std::FILE *Out) {
  Runtime &Rt = Runtime::get();
  Rt.setSequentialOutput(Out);
  Cell Result;
  {
    PlainMemoryManager MM;
    bytecode::VM Vm(BP, MM);
    Vm.initializeGlobals();
    Result = Vm.run(Opt.EntryFunction, Opt.EntryArgs);
  }
  Rt.setSequentialOutput(nullptr);
  return Result;
}

Cell transform::executeSequential(Module &M, const PipelineOptions &Opt,
                                  std::FILE *Out) {
  if (Opt.Engine == ExecEngine::Bytecode)
    return executeLoadedSequential(*bytecode::lowerModule(M, {}), Opt, Out);

  Runtime &Rt = Runtime::get();
  Rt.setSequentialOutput(Out);
  Cell Result;
  {
    PlainMemoryManager MM;
    Interpreter Interp(M, MM);
    Interp.initializeGlobals();
    Result = Interp.run(Opt.EntryFunction, Opt.EntryArgs);
  }
  Rt.setSequentialOutput(nullptr);
  return Result;
}
