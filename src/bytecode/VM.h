//===- bytecode/VM.h - Direct-threaded bytecode VM --------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a lowered BytecodeProgram over real host memory with a flat
/// register file per frame.  Dispatch is direct-threaded (computed goto)
/// on GCC/Clang with a switch fallback.  The VM mirrors the interpreter's
/// observable semantics exactly — same arithmetic edge cases (via
/// interp/Semantics.h), same fatal-error messages, same deferred-output
/// bytes — because the interpreter is its differential oracle.
///
/// The VM is the only engine that runs privatized code: arming a
/// ParallelPlan makes ParLoopEnter instructions hand the planned loop's
/// iterations to Runtime::runParallel; with no plan armed they fall
/// through to ordinary jumps, which is also what recovery and degraded
/// re-execution rely on inside the runtime.
///
/// With a collector set, the VM is the §4.1 training run's event source:
/// a profiling lowering's event opcodes report to a ProfileCollector by
/// site id, in the order the interpreter reports its events by pointer.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_BYTECODE_VM_H
#define PRIVATEER_BYTECODE_VM_H

#include "bytecode/Bytecode.h"
#include "interp/MemoryManager.h"
#include "interp/Interpreter.h"
#include "runtime/Runtime.h"

#include <map>
#include <memory>
#include <vector>

namespace privateer {
namespace profiling {
class ProfileCollector;
} // namespace profiling

namespace bytecode {

class VM {
public:
  /// The parallel run's options; the loop itself is already compiled into
  /// the program's BcParLoopSite.
  struct ParallelPlan {
    ParallelOptions Options;
    /// Accumulated across invocations of the loop.
    InvocationStats Stats;
  };

  VM(const BytecodeProgram &Prog, interp::MemoryManager &MM);

  /// Allocates and zero-fills all globals (module order, matching the
  /// interpreter).  Must run before execution.
  void initializeGlobals();

  /// Runtime address of global \p Idx (see BytecodeProgram::GlobalIdx).
  uint64_t globalAddress(uint32_t Idx) const;

  /// Calls @\p Name with \p Args; the function must exist.
  interp::Cell run(const std::string &Name,
                   const std::vector<interp::Cell> &Args);

  void setParallelPlan(ParallelPlan *P) { Plan = P; }

  /// Hard bound on executed bytecode instructions (runaway-loop guard).
  /// With a collector set, the bound and the count are in IR instructions
  /// instead, added a whole block at a time as each block is entered.
  void setInstructionBudget(uint64_t N) { Budget = N; }
  uint64_t instructionsExecuted() const {
    return Obs ? IrExecuted : Executed;
  }

  /// Runs a profiling lowering (LowerOptions::Profile) with its events
  /// reported to \p Collector, which must have been built from that
  /// lowering's ProfileSites.  Set before initializeGlobals, which reports
  /// the globals.
  void setCollector(profiling::ProfileCollector *Collector) {
    Obs = Collector;
  }

  /// Throw interp::Trap instead of aborting when the program traps, with
  /// the interpreter's reasons.  A VM that threw is not run again.
  void setTrapsThrow(bool On) { TrapsThrow = On; }

private:
  /// A frame is a slice of the preallocated register arena plus the list
  /// of frame allocations to release at return.  The arena never moves,
  /// so nested exec invocations keep raw pointers into it.
  struct Frame {
    uint64_t *R = nullptr;
    std::vector<void *> Allocas;
  };

  /// Register-arena capacity in 64-bit slots (bounds call depth; a frame
  /// costs NumRegs slots, so this allows thousands of nested calls).
  static constexpr size_t kRegStackSlots = 1u << 18;

  enum class ExecStatus : uint8_t {
    Returned, ///< A Ret executed; the return value is valid.
    IterEnded ///< A planned-body run reached its IterEnd.
  };

  uint64_t callFunction(uint32_t FnIdx, const uint64_t *Args, size_t NumArgs);

  /// The dispatch loop.  \p StopAtIterEnd marks a planned-iteration body
  /// run (IterEnd returns instead of jumping back to the header).
  ExecStatus exec(const BcFunction &Fn, Frame &Frm, uint32_t StartPc,
                  bool StopAtIterEnd, uint64_t &RetValue);

  /// ParLoopEnter: run the compiled planned loop through the runtime.
  /// Returns the pc to continue from (the header->exit edge).
  uint32_t runPlannedLoop(const BcFunction &Fn, Frame &Frm,
                          const BcParLoopSite &Site);

  [[noreturn]] void trap(const char *Reason) const;

  const BytecodeProgram &Prog;
  interp::MemoryManager &MM;
  ParallelPlan *Plan = nullptr;
  std::vector<uint64_t> GlobalAddrs; ///< By global index.
  /// Per-function frame-entry images (zeros + materialized constants +
  /// global addresses), built once in initializeGlobals and applied to a
  /// fresh frame with one memcpy instead of per-entry init loops.
  std::vector<std::vector<uint64_t>> FrameInit;
  /// The register arena backing all frames; deliberately uninitialized
  /// storage (frames are fully imaged from FrameInit on entry).
  std::unique_ptr<uint64_t[]> RegStack;
  size_t StackTop = 0; ///< Arena watermark, in slots.
  uint64_t Budget = 2'000'000'000;
  uint64_t Executed = 0;
  bool InParallelBody = false;
  bool TrapsThrow = false;
  profiling::ProfileCollector *Obs = nullptr;
  uint64_t IrExecuted = 0; ///< Observed runs: IR instructions entered.
};

} // namespace bytecode
} // namespace privateer

#endif // PRIVATEER_BYTECODE_VM_H
