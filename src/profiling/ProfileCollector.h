//===- profiling/ProfileCollector.h - Profiling observer --------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumented-training-run half of §4.1, as one InterpObserver.
/// The training run feeds it from the bytecode VM (a profiling lowering's
/// event opcodes) or, as the oracle and fallback, from the interpreter;
/// both report the same events in the same order.
/// Maintains "an interval map from ranges of memory addresses to the name
/// of the memory object which occupies that space", tracks loop activations
/// (invocation + iteration counters per dynamic loop entry), object
/// lifetimes, per-byte last writers for memory flow-dependence profiling,
/// branch bias, per-loop execution weight, and first-read-per-iteration
/// value predictability.
///
/// Each event does O(1) work in flat tables (DESIGN.md §17): a byte's
/// last writer is an 8-byte {store, loop context} record in a shadow block
/// made on first write, an iteration's loop context is interned once, and
/// each static load/store caches its object and prediction state.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_PROFILING_PROFILECOLLECTOR_H
#define PRIVATEER_PROFILING_PROFILECOLLECTOR_H

#include "analysis/FunctionAnalyses.h"
#include "interp/Interpreter.h"
#include "profiling/Profile.h"
#include "support/IntervalMap.h"

#include <array>
#include <memory>
#include <unordered_map>

namespace privateer {
namespace profiling {

class ProfileCollector : public interp::InterpObserver {
public:
  explicit ProfileCollector(const analysis::FunctionAnalyses &FA) : FA(FA) {}

  // InterpObserver implementation.
  void onGlobalAlloc(const ir::GlobalVariable *G, uint64_t Addr,
                     uint64_t Bytes) override;
  void onAlloc(const ir::Instruction *Site, uint64_t Addr,
               uint64_t Bytes) override;
  void onFree(const ir::Instruction *I, uint64_t Addr) override;
  void onLoad(const ir::Instruction *I, uint64_t Addr,
              uint64_t Bytes) override;
  void onStore(const ir::Instruction *I, uint64_t Addr,
               uint64_t Bytes) override;
  void onBlockEnter(const ir::BasicBlock *B,
                    const ir::BasicBlock *From) override;
  void onCall(const ir::Instruction *Site, const ir::Function *F) override;
  void onReturn(const ir::Function *F) override;

  /// Finalizes lifetime of still-live objects and value predictability,
  /// and hands over the accumulated profile.
  Profile finish();

  uint64_t Loads = 0, Stores = 0, Allocs = 0; ///< events seen so far
  /// Loop-context nodes ever held at once (recycled nodes are reused).
  size_t contextNodes() const { return Contexts.size(); }

private:
  struct Activation {
    const analysis::Loop *L;
    LoopStats *Stats;
    uint64_t Id;
    uint64_t Iteration;
    /// Interned context of the current iteration; 0 until needed.
    uint32_t Ctx;
  };
  /// One (activation, iteration) of an interned loop context, linked to
  /// the context of the activation below it.  Node 0 is the empty context.
  /// Refs counts the shadow bytes, live allocations, child nodes and live
  /// iteration that refer to a node; one that reaches 0 is recycled, so
  /// the table is bounded by live state, not by iterations run.
  struct CtxNode {
    uint32_t Parent;
    uint32_t Refs;
    const analysis::Loop *L;
    uint64_t ActivationId;
    uint64_t Iteration;
  };
  struct BlockInfo {
    const analysis::Loop *Heads = nullptr; ///< loop this block heads
    std::pair<uint64_t, uint64_t> *Branch = nullptr; ///< its condbr's counts
  };
  struct PredRec {
    const analysis::Loop *L;
    bool Seen = false;
    bool Unpredictable = false;
    uint64_t Addr = 0;
    uint64_t Bytes = 0;
    uint64_t Raw = 0;
    uint64_t MarkerAct = ~0ULL;
    uint64_t MarkerIter = ~0ULL;
  };
  /// Per static load/store: last object touched, store id in the shadow
  /// (0 = none yet), and prediction state per loop.
  struct InstRec {
    const ObjectKey *LastObj = nullptr;
    uint32_t StoreId = 0;
    std::vector<PredRec> Preds;
  };
  /// Last writer of one byte: StoreInsts[Store - 1] in context Ctx.
  struct WriteRec {
    uint32_t Store = 0;
    uint32_t Ctx = 0;
    bool operator==(const WriteRec &) const = default;
  };
  static constexpr uint64_t kShadowMask = 127; ///< 128 B per shadow block
  using ShadowBlock = std::array<WriteRec, kShadowMask + 1>;
  struct LiveAlloc {
    const ObjectKey *Obj = nullptr;
    uint32_t Ctx = 0;
  };

  BlockInfo &blockInfo(const ir::BasicBlock *B);
  const Activation *currentActivation(const analysis::Loop *L) const;
  uint32_t currentContext();
  void retain(uint32_t Ctx, uint32_t N) {
    if (Ctx)
      Contexts[Ctx].Refs += N;
  }
  void release(uint32_t Ctx, uint32_t N);
  const ObjectKey *intern(ObjectKey K);
  void noteObject(const ir::Instruction *I, InstRec &R, uint64_t Addr);
  ShadowBlock *shadowBlock(uint64_t Addr, bool Create);
  void noteFlowDeps(const ir::Instruction *I, WriteRec W, uint64_t Run);
  void countLifetime(const LiveAlloc &A, bool FreedNow);
  std::string contextString() const;

  const analysis::FunctionAnalyses &FA;
  Profile P;

  std::vector<Activation> ActivationStack;
  std::vector<size_t> FrameBases{0};
  std::vector<const ir::Instruction *> CallStack;
  uint64_t NextActivationId = 1;
  std::vector<CtxNode> Contexts{CtxNode{0, 0, nullptr, 0, 0}};
  std::vector<uint32_t> FreeContexts;

  std::unordered_map<const ir::BasicBlock *, BlockInfo> Blocks;
  std::unordered_map<const ir::Instruction *, InstRec> Insts;
  std::vector<const ir::Instruction *> StoreInsts;

  IntervalMap<const ObjectKey *> AddrMap;
  std::unordered_map<uint64_t, LiveAlloc> LiveAllocs;

  std::unordered_map<uint64_t, std::unique_ptr<ShadowBlock>> Shadow;
  uint64_t LastShadowKey = ~0ULL;
  ShadowBlock *LastShadow = nullptr;
};

/// Outcome of one instrumented training run.
struct TrainingRun {
  Profile Prof;
  uint64_t Instructions = 0;
  uint64_t Loads = 0, Stores = 0, Allocs = 0;
  double WallMs = 0;
  /// The engine that ran the program.  When the bytecode engine was asked
  /// for and the lowerer declined, the interpreter ran and EngineNote says
  /// why.
  ExecEngine EngineUsed = ExecEngine::Interp;
  std::string EngineNote;
  /// Why the program trapped (division or remainder by zero, or the
  /// instruction budget); empty when it ran to completion.  A trapped run
  /// leaves Prof empty.
  std::string Trap;
};

/// The §4.1 training run: runs @\p Entry(\p Args) over plain host memory
/// under \p Budget IR instructions with a ProfileCollector attached, on
/// \p Engine: the untransformed module lowered for profiling on the VM,
/// or the interpreter (also when the lowerer declines).  The program's
/// output is discarded (the training run's output is never the job's),
/// and its traps come back in TrainingRun::Trap instead of aborting the
/// process.
TrainingRun runTrainingProfile(ir::Module &M,
                               const analysis::FunctionAnalyses &FA,
                               const std::string &Entry,
                               const std::vector<interp::Cell> &Args,
                               uint64_t Budget,
                               ExecEngine Engine = ExecEngine::Bytecode);

} // namespace profiling
} // namespace privateer

#endif // PRIVATEER_PROFILING_PROFILECOLLECTOR_H
