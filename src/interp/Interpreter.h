//===- interp/Interpreter.h - IR interpreter --------------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes IR modules over real host memory (pointers in the program are
/// host addresses, so heap-tagged pointers work unchanged).  Three roles:
///
///  1. profiling runs — an InterpObserver receives every allocation,
///     access, block transfer, and call, feeding the §4.1 profilers (the
///     bytecode VM reports the same events in the same order, and is the
///     default training engine; this one is its oracle and fallback);
///  2. plain sequential execution of original or transformed programs
///     (Privateer intrinsics lower onto the runtime, which ignores them
///     outside a speculative worker);
///  3. speculative DOALL execution — a ParallelPlan intercepts a chosen
///     canonical loop and runs its iterations through
///     Runtime::runParallel, each worker interpreting iterations against
///     its copy-on-write heaps.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_INTERP_INTERPRETER_H
#define PRIVATEER_INTERP_INTERPRETER_H

#include "analysis/LoopInfo.h"
#include "interp/MemoryManager.h"
#include "ir/IR.h"
#include "runtime/Runtime.h"

#include <cstring>
#include <map>
#include <unordered_map>

namespace privateer {

/// Which engine executes a module.  Bytecode is the default tier (the
/// direct-threaded VM of src/bytecode); this tree-walking interpreter
/// stays available as the differential oracle and as the automatic
/// fallback for anything the lowerer declines.
enum class ExecEngine : uint8_t {
  Bytecode = 0,
  Interp = 1,
};

inline const char *execEngineName(ExecEngine E) {
  return E == ExecEngine::Bytecode ? "bytecode" : "interp";
}

namespace interp {

/// One 64-bit value slot; typing is by use, as in the untyped-memory IR.
struct Cell {
  uint64_t Raw = 0;

  static Cell fromInt(int64_t V) {
    Cell C;
    std::memcpy(&C.Raw, &V, 8);
    return C;
  }
  static Cell fromFloat(double V) {
    Cell C;
    std::memcpy(&C.Raw, &V, 8);
    return C;
  }
  static Cell fromPtr(uint64_t V) {
    Cell C;
    C.Raw = V;
    return C;
  }
  int64_t asInt() const {
    int64_t V;
    std::memcpy(&V, &Raw, 8);
    return V;
  }
  double asFloat() const {
    double V;
    std::memcpy(&V, &Raw, 8);
    return V;
  }
  uint64_t asPtr() const { return Raw; }
};

/// A trap the interpreted program raised: division or remainder by zero,
/// or the instruction budget running out.  Thrown only by an interpreter
/// with setTrapsThrow(true); otherwise a trap is a fatal error.
struct Trap {
  std::string Reason;
};

class InterpObserver {
public:
  virtual ~InterpObserver() = default;
  virtual void onGlobalAlloc(const ir::GlobalVariable *, uint64_t /*Addr*/,
                             uint64_t /*Bytes*/) {}
  virtual void onAlloc(const ir::Instruction *, uint64_t /*Addr*/,
                       uint64_t /*Bytes*/) {}
  virtual void onFree(const ir::Instruction *, uint64_t /*Addr*/) {}
  virtual void onLoad(const ir::Instruction *, uint64_t /*Addr*/,
                      uint64_t /*Bytes*/) {}
  virtual void onStore(const ir::Instruction *, uint64_t /*Addr*/,
                       uint64_t /*Bytes*/) {}
  /// Control transferred into \p B from \p From (null on function entry).
  virtual void onBlockEnter(const ir::BasicBlock *, const ir::BasicBlock *) {
  }
  virtual void onCall(const ir::Instruction *, const ir::Function *) {}
  virtual void onReturn(const ir::Function *) {}
};

class Interpreter {
public:
  /// Speculative-DOALL intercept: when execution reaches \p TheLoop's
  /// header from outside, its iterations run through
  /// Runtime::runParallel.
  struct ParallelPlan {
    const analysis::Loop *TheLoop = nullptr;
    analysis::Loop::CanonicalIv Iv;
    ParallelOptions Options;
    /// Accumulated across invocations of the loop.
    InvocationStats Stats;
  };

  Interpreter(ir::Module &M, MemoryManager &MM,
              InterpObserver *Obs = nullptr);

  /// Allocates and zero-fills all globals.  Must run before execution.
  void initializeGlobals();

  uint64_t globalAddress(const ir::GlobalVariable *G) const;

  /// Calls @\p Name with \p Args; the function must exist.
  Cell run(const std::string &Name, const std::vector<Cell> &Args);

  Cell callFunction(ir::Function *F, const std::vector<Cell> &Args);

  void setParallelPlan(ParallelPlan *P) { Plan = P; }

  /// Hard bound on interpreted instructions (runaway-loop guard).
  static constexpr uint64_t kDefaultInstructionBudget = 2'000'000'000;
  void setInstructionBudget(uint64_t N) { Budget = N; }
  uint64_t instructionsExecuted() const { return Executed; }

  /// Throw Trap instead of aborting when the program traps (the training
  /// run in a long-lived process must survive its program).
  void setTrapsThrow(bool On) { TrapsThrow = On; }

private:
  struct Frame {
    std::unordered_map<const ir::Value *, Cell> Values;
    std::vector<void *> Allocas;
  };

  Cell eval(const ir::Value *V, Frame &F) const;
  Cell execute(const ir::Instruction &I, Frame &F);

  /// Runs blocks starting at \p Start until a Ret (returns true, value in
  /// RetValue) or until control would enter \p StopAt (returns false).
  /// \p StopAt null means run to Ret.
  bool runBlocks(ir::BasicBlock *Start, const ir::BasicBlock *Prev,
                 const ir::BasicBlock *StopAt, Frame &F, Cell &RetValue);

  /// Executes the planned loop in parallel; frame is left as if the loop
  /// exited normally.  Returns the loop's exit block.
  ir::BasicBlock *runPlannedLoop(Frame &F);

  void formatPrint(const ir::Instruction &I, Frame &F);

  [[noreturn]] void trap(const char *Reason) const;

  ir::Module &M;
  MemoryManager &MM;
  InterpObserver *Obs;
  ParallelPlan *Plan = nullptr;
  std::map<const ir::GlobalVariable *, uint64_t> GlobalAddrs;
  uint64_t Budget = kDefaultInstructionBudget;
  uint64_t Executed = 0;
  bool InParallelBody = false;
  bool TrapsThrow = false;
};

} // namespace interp
} // namespace privateer

#endif // PRIVATEER_INTERP_INTERPRETER_H
