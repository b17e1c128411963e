//===- transform/Pipeline.h - End-to-end Privateer pipeline -----*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fully automatic pipeline of paper Figure 3: profile a training run,
/// classify hot loops into heap assignments, select compatible loops,
/// apply the privatizing transformation, and execute the result
/// speculatively in parallel.  "The compiler system acts fully
/// automatically without any guidance from the programmer."
///
/// The transformed module runs only on the bytecode VM: lowering is total
/// over verified modules, and the pipeline transforms only into a module
/// that verifies (it reports a rewrite that breaks verification in
/// PipelineResult::ModuleErrors).  The interpreter stays the oracle for sequential and
/// training runs (PipelineOptions::Engine).
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_TRANSFORM_PIPELINE_H
#define PRIVATEER_TRANSFORM_PIPELINE_H

#include "interp/Interpreter.h"
#include "runtime/Runtime.h"
#include "transform/Privatizer.h"

#include <memory>

namespace privateer {

namespace bytecode {
struct BytecodeProgram;
} // namespace bytecode

namespace transform {

using privateer::ExecEngine;
using privateer::execEngineName;

struct PipelineOptions {
  std::string EntryFunction = "main";
  std::vector<interp::Cell> EntryArgs;
  /// Entry point for the profiling run (empty = EntryFunction).  The
  /// paper profiles on a *train* input and evaluates on *ref*; programs
  /// model that with a separate entry that feeds the hot loop a training
  /// workload.  When the training input under-approximates production
  /// behavior, classification optimistically picks cheaper heaps and the
  /// runtime's validation pays the difference as misspeculation.
  std::string TrainingEntryFunction;
  /// Training-run instruction budget.
  uint64_t ProfileBudget = 500'000'000;
  /// Engine of the training run and of executeSequential.  Privatized
  /// execution always runs on the VM and ignores it.
  ExecEngine Engine = ExecEngine::Bytecode;
  /// Scheduling strategy.  Doall admits only dependence-free loops (the
  /// seed behavior).  Doacross and Pipeline additionally run the
  /// dependence-distance pre-pass (analysis/DepDistance.h), rewriting
  /// provable carried dependences into token forwarding before
  /// classification judges the loop.
  Strategy Strat = Strategy::Doall;
  /// Stage count hint for Strategy::Pipeline (0 = pick from the worker
  /// count at execution time).
  uint32_t NumStages = 0;
  /// When false, recognized commutative clusters are ignored and their
  /// objects classify as the paper's five heaps would (the fallback arm of
  /// the commutative bench gate).
  bool EnableCommutative = true;
};

struct PipelineResult {
  bool Transformed = false;
  const analysis::Loop *SelectedLoop = nullptr;
  classify::HeapAssignment Assignment;
  TransformStats Stats;
  profiling::Profile TrainingProfile;
  /// Why the training run trapped (empty when it completed); a trapped
  /// run leaves the module untouched and Transformed false.
  std::string TrainingTrap;
  /// ir::verifyModule's diagnostics of the module after the pipeline
  /// rewrote it (doacross pre-pass or privatization).  A rewrite can push a
  /// function past a verifier limit, such as the register bound, and the
  /// module is not rolled back: when non-empty, Transformed is false and
  /// the module must be neither lowered nor run.
  std::vector<std::string> ModuleErrors;
  std::vector<std::string> Log;
};

/// Profiles @EntryFunction on the training input (its arguments), ranks
/// loops by profiled weight, classifies and selects, and transforms the
/// module in place for the heaviest parallelizable DOALL loop.
PipelineResult runPrivateerPipeline(ir::Module &M,
                                    const analysis::FunctionAnalyses &FA,
                                    const PipelineOptions &Options);

struct ExecutionResult {
  interp::Cell ReturnValue;
  InvocationStats Stats;
};

/// Lowers \p M to bytecode for privatized execution: the HA's selected
/// loop is compiled into the program as its parallel-interception site.
/// Null (with \p WhyNot set) only when \p HA has no selected loop with a
/// canonical IV, that is, when the pipeline did not transform \p M.
/// The ProgramCache calls this once per program so warm daemon hits skip
/// both parse and lowering.  The HA's reduction registrations are baked
/// into the program (ReduxGlobals), making it self-contained: the
/// executeLoaded* entry points below run it with no IR or classification
/// state at all — that is what lets the service serialize programs and
/// ship them to pre-forked executive processes.
std::shared_ptr<const bytecode::BytecodeProgram>
lowerForPrivatized(const ir::Module &M, const analysis::FunctionAnalyses &FA,
                   const classify::HeapAssignment &HA, std::string &WhyNot);

/// Executes the transformed module speculatively: logical heaps, tagged
/// allocation, reduction registration, and the selected loop
/// DOALL-parallelized across forked workers.  Initializes and shuts down
/// the runtime internally.  Deferred output goes to \p Out (nullptr =
/// stdout).  The module is lowered and run through executeLoadedParallel
/// on the VM whatever Options.Engine says; a module that does not lower
/// is a fatal error.
ExecutionResult executePrivatized(ir::Module &M,
                                  const analysis::FunctionAnalyses &FA,
                                  const classify::HeapAssignment &HA,
                                  const PipelineOptions &Options,
                                  const ParallelOptions &ParOpts,
                                  const RuntimeConfig &Config,
                                  std::FILE *Out);

/// Plain sequential execution over host memory on Options.Engine.  Output
/// to \p Out.  The VM runs original and transformed modules alike (checks
/// are no-ops outside a worker); the interpreter runs untransformed ones
/// only.
interp::Cell executeSequential(ir::Module &M, const PipelineOptions &Options,
                               std::FILE *Out);

/// Speculative execution of a self-contained prelowered program (from
/// lowerForPrivatized, possibly deserialized from a bytecode::Image): no
/// Module, analyses, or HeapAssignment needed.  Brackets the runtime's
/// initialize/shutdown, so a long-lived executive process can call it for
/// job after job.
ExecutionResult executeLoadedParallel(const bytecode::BytecodeProgram &BP,
                                      const PipelineOptions &Options,
                                      const ParallelOptions &ParOpts,
                                      const RuntimeConfig &Config,
                                      std::FILE *Out);

/// Sequential counterpart of executeLoadedParallel (plain host memory, no
/// runtime bring-up).
interp::Cell executeLoadedSequential(const bytecode::BytecodeProgram &BP,
                                     const PipelineOptions &Options,
                                     std::FILE *Out);

} // namespace transform
} // namespace privateer

#endif // PRIVATEER_TRANSFORM_PIPELINE_H
