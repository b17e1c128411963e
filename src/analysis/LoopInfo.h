//===- analysis/LoopInfo.h - Natural loop detection -------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Natural loops from back edges (latch -> dominating header), with
/// nesting, preheaders, exits, and canonical induction-variable
/// recognition.  Privateer keys everything on loops: profiling contexts
/// (§4.1), classification (§4.2), selection (§4.3), and the DOALL
/// transformation all take a Loop.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_ANALYSIS_LOOPINFO_H
#define PRIVATEER_ANALYSIS_LOOPINFO_H

#include "analysis/Dominators.h"

#include <memory>
#include <optional>
#include <set>

namespace privateer {
namespace analysis {

class Loop {
public:
  Loop(ir::BasicBlock *Header, unsigned Id) : Hdr(Header), LoopId(Id) {}

  unsigned id() const { return LoopId; }
  ir::BasicBlock *header() const { return Hdr; }
  const std::set<ir::BasicBlock *> &blocks() const { return Body; }
  bool contains(const ir::BasicBlock *B) const {
    return Body.count(const_cast<ir::BasicBlock *>(B)) != 0;
  }
  bool contains(const ir::Instruction *I) const {
    return contains(I->parent());
  }

  const std::vector<ir::BasicBlock *> &latches() const { return Latches; }

  Loop *parent() const { return ParentLoop; }
  unsigned depth() const {
    unsigned D = 1;
    for (Loop *P = ParentLoop; P; P = P->ParentLoop)
      ++D;
    return D;
  }

  /// The unique out-of-loop predecessor of the header, if any.
  ir::BasicBlock *preheader(const Cfg &C) const;

  /// Blocks outside the loop that a loop block branches to.
  std::vector<ir::BasicBlock *> exitBlocks(const Cfg &C) const;

  /// A canonical counted loop: header phi IV with incoming 0-or-konstant
  /// from the preheader and IV+1 from the latch, and a header condbr on
  /// icmp lt IV, Bound leaving the loop on false.  The header is not the
  /// function entry, and every field is set: the bytecode lowering
  /// compiles the parallel-loop site from these guarantees.
  struct CanonicalIv {
    ir::Instruction *Phi = nullptr;      ///< The IV.
    ir::Value *Begin = nullptr;          ///< Initial value.
    ir::Value *Bound = nullptr;          ///< Exclusive upper bound.
    ir::Instruction *Increment = nullptr;
    ir::BasicBlock *ExitBlock = nullptr;
  };
  /// Recognizes the canonical form; nullopt if this loop is shaped
  /// differently.
  std::optional<CanonicalIv> canonicalIv(const Cfg &C) const;

private:
  friend class LoopInfo;
  ir::BasicBlock *Hdr;
  unsigned LoopId;
  std::set<ir::BasicBlock *> Body;
  std::vector<ir::BasicBlock *> Latches;
  Loop *ParentLoop = nullptr;
  std::vector<Loop *> Children;
};

class LoopInfo {
public:
  LoopInfo(const Cfg &C, const DominatorTree &DT);

  const std::vector<std::unique_ptr<Loop>> &loops() const { return Loops; }

  /// Innermost loop containing \p B, or null.
  Loop *loopFor(const ir::BasicBlock *B) const;

  /// Top-level (outermost) loops.
  std::vector<Loop *> topLevel() const;

private:
  std::vector<std::unique_ptr<Loop>> Loops;
  std::map<const ir::BasicBlock *, Loop *> Innermost;
};

} // namespace analysis
} // namespace privateer

#endif // PRIVATEER_ANALYSIS_LOOPINFO_H
