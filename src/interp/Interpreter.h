//===- interp/Interpreter.h - IR interpreter --------------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes untransformed IR modules over plain host memory.  It is the
/// bytecode VM's differential oracle, in two roles:
///
///  1. profiling runs — an InterpObserver receives every allocation,
///     access, block transfer, and call, feeding the §4.1 profilers (the
///     bytecode VM reports the same events in the same order, and is the
///     default training engine);
///  2. plain sequential execution, whose output bytes every VM run
///     (sequential or privatized) must reproduce.
///
/// Privatized code runs only on the VM (bytecode/Lower.h lowers every
/// verified module); the transformed opcodes are fatal here.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_INTERP_INTERPRETER_H
#define PRIVATEER_INTERP_INTERPRETER_H

#include "interp/MemoryManager.h"
#include "ir/IR.h"

#include <cstring>
#include <map>
#include <unordered_map>

namespace privateer {

/// Which engine executes a sequential or training run.  Bytecode is the
/// default tier (the direct-threaded VM of src/bytecode); this
/// tree-walking interpreter is its differential oracle.  Privatized runs
/// always use the VM.
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
  Interpreter(ir::Module &M, PlainMemoryManager &MM,
              InterpObserver *Obs = nullptr);

  /// Allocates and zero-fills all globals.  Must run before execution.
  void initializeGlobals();

  /// Calls @\p Name with \p Args; the function must exist.
  Cell run(const std::string &Name, const std::vector<Cell> &Args);

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

  Cell callFunction(ir::Function *F, const std::vector<Cell> &Args);
  Cell eval(const ir::Value *V, Frame &F) const;
  Cell execute(const ir::Instruction &I, Frame &F);

  /// Runs blocks from the entry of \p Fn until a Ret; returns its value.
  Cell runBlocks(const ir::Function &Fn, Frame &F);

  void formatPrint(const ir::Instruction &I, Frame &F);

  [[noreturn]] void trap(const char *Reason) const;

  ir::Module &M;
  PlainMemoryManager &MM;
  InterpObserver *Obs;
  std::map<const ir::GlobalVariable *, uint64_t> GlobalAddrs;
  uint64_t Budget = kDefaultInstructionBudget;
  uint64_t Executed = 0;
  bool TrapsThrow = false;
};

} // namespace interp
} // namespace privateer

#endif // PRIVATEER_INTERP_INTERPRETER_H
