//===- bytecode/Lower.h - IR -> bytecode lowering ---------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-pass lowering from the verified IR to the register bytecode of
/// Bytecode.h.  The lowering is total: the verifier rejects every module
/// that would exceed the encoding's 16-bit fields (ir/Verifier.h), and
/// Loop::canonicalIv guarantees the planned loop's shape, so every
/// verified module lowers in all three modes (plain, profiling and
/// privatized) and the VM is the only engine that runs transformed code.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_BYTECODE_LOWER_H
#define PRIVATEER_BYTECODE_LOWER_H

#include "analysis/LoopInfo.h"
#include "bytecode/Bytecode.h"

#include <map>
#include <memory>
#include <string>

namespace privateer {
namespace bytecode {

/// The IR entities a profiling lowering's event opcodes name by index.
/// These are pointers into the lowered module, which is why a profiling
/// program is never serialized.
struct ProfileSites {
  /// Block ids start at 1: a frame's predecessor register reads 0, the
  /// null block, at function entry.
  std::vector<const ir::BasicBlock *> Blocks{nullptr};
  std::vector<const ir::Instruction *> Insts;
  std::vector<const ir::GlobalVariable *> Globals; ///< By global index.
};

struct LowerOptions {
  /// The pipeline-selected DOALL loop to compile interception for; null
  /// lowers a plain sequential program (every edge is an ordinary jump).
  const analysis::Loop *PlanLoop = nullptr;
  /// Must be PlanLoop's canonical IV when PlanLoop is set.
  analysis::Loop::CanonicalIv Iv;
  /// Set: lower for the training run.  Every block starts with an EvBlock
  /// event, accesses, allocations, frees and calls are bracketed by their
  /// events (in the interpreter's observer order), pair fusion is skipped,
  /// and the tables the events index are filled in here.  Requires no
  /// PlanLoop.
  ProfileSites *Profile = nullptr;
  /// Alloc sites whose objects the runtime must register as reductions,
  /// with their element type and operator.
  const std::map<const ir::Instruction *, std::pair<ReduxElem, ReduxOp>>
      *SiteReductions = nullptr;
};

/// Lowers the verified module \p M to bytecode.
std::unique_ptr<BytecodeProgram> lowerModule(const ir::Module &M,
                                             const LowerOptions &Opts);

} // namespace bytecode
} // namespace privateer

#endif // PRIVATEER_BYTECODE_LOWER_H
