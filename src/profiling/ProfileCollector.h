//===- profiling/ProfileCollector.h - Profiling observer --------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumented-training-run half of §4.1, as one collector.
/// The training run feeds it from the bytecode VM (a profiling lowering's
/// event opcodes) or, as the oracle, from the interpreter; both report the
/// same events in the same order.
/// Maintains "an interval map from ranges of memory addresses to the name
/// of the memory object which occupies that space", tracks loop activations
/// (invocation + iteration counters per dynamic loop entry), object
/// lifetimes, per-byte last writers for memory flow-dependence profiling,
/// branch bias, per-loop execution weight, and first-read-per-iteration
/// value predictability.
///
/// Events name blocks and instructions by the VM's ProfileSites ids (the
/// interpreter's pointers are numbered on first sight), and each load,
/// store and block entry does O(1) work in flat per-id tables, hashing
/// only on a cache miss (DESIGN.md §17): a byte's last writer is an 8-byte
/// {store, loop context} record in a shadow block made on first write, an
/// iteration's loop context is interned once, each block knows its loops,
/// and each static load/store caches its object, shadow block and flow
/// dependence.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_PROFILING_PROFILECOLLECTOR_H
#define PRIVATEER_PROFILING_PROFILECOLLECTOR_H

#include "analysis/FunctionAnalyses.h"
#include "interp/Interpreter.h"
#include "profiling/Profile.h"
#include "support/IntervalMap.h"

#include <array>
#include <cassert>
#include <memory>
#include <unordered_map>

namespace privateer {
namespace bytecode {
struct ProfileSites;
} // namespace bytecode

namespace profiling {

class ProfileCollector : public interp::InterpObserver {
public:
  /// A collector for the interpreter's events, or with \p Sites for those
  /// of that profiling lowering run on the VM.
  explicit ProfileCollector(const analysis::FunctionAnalyses &FA,
                            const bytecode::ProfileSites *Sites = nullptr);

  // The VM's events, by ProfileSites index.
  void globalEvent(uint32_t Global, uint64_t Addr, uint64_t Bytes) {
    onGlobalAlloc(Globals[Global], Addr, Bytes);
  }
  void blockEvent(uint32_t Block, uint32_t From);
  void loadEvent(uint32_t Site, uint64_t Addr, uint64_t Bytes);
  void storeEvent(uint32_t Site, uint64_t Addr, uint64_t Bytes);
  void allocEvent(uint32_t Site, uint64_t Addr, uint64_t Bytes);
  void freeEvent(uint64_t Addr);
  void callEvent(uint32_t Site) {
    CallStack.push_back(InstRecs[Site].I);
    FrameBases.push_back(ActivationStack.size());
  }
  void returnEvent();

  // InterpObserver implementation: the same events, by pointer.
  void onGlobalAlloc(const ir::GlobalVariable *G, uint64_t Addr,
                     uint64_t Bytes) override;
  void onAlloc(const ir::Instruction *I, uint64_t A, uint64_t N) override {
    allocEvent(siteId(I), A, N);
  }
  void onFree(const ir::Instruction *, uint64_t A) override { freeEvent(A); }
  void onLoad(const ir::Instruction *I, uint64_t A, uint64_t N) override {
    loadEvent(siteId(I), A, N);
  }
  void onStore(const ir::Instruction *I, uint64_t A, uint64_t N) override {
    storeEvent(siteId(I), A, N);
  }
  void onBlockEnter(const ir::BasicBlock *B,
                    const ir::BasicBlock *From) override {
    blockEvent(blockId(B), blockId(From));
  }
  void onCall(const ir::Instruction *I, const ir::Function *) override {
    callEvent(siteId(I));
  }
  void onReturn(const ir::Function *) override { returnEvent(); }

  /// Finalizes lifetime of still-live objects, the weight of still-active
  /// loops and value predictability, and hands over the accumulated
  /// profile.
  Profile finish();

  uint64_t Blocks = 0, Loads = 0, Stores = 0, Allocs = 0; ///< events seen
  /// Loop-context nodes ever held at once (recycled nodes are reused).
  size_t contextNodes() const { return Contexts.size(); }

private:
  static constexpr uint32_t kNoLoop = ~0u;
  struct LoopRec {
    const analysis::Loop *L;
    uint32_t Parent;            ///< enclosing loop's id, or kNoLoop
    int32_t Top = -1;           ///< index of its innermost activation
    LoopStats *Stats = nullptr; ///< made on its first activation
  };
  struct BlockRec {
    const ir::BasicBlock *B = nullptr;
    uint32_t Size = 0;            ///< IR instructions
    uint32_t Innermost = kNoLoop; ///< innermost loop containing it
    uint32_t Heads = kNoLoop;     ///< loop it heads
    const ir::BasicBlock *Taken = nullptr; ///< its condbr's first target
    std::pair<uint64_t, uint64_t> Branch;  ///< the condbr's {taken, runs}
  };
  struct Activation {
    uint32_t Loop;
    int32_t PrevTop; ///< Loop's enclosing activation, or -1
    uint32_t Ctx;    ///< interned context of this iteration; 0 until needed
    uint64_t Id, Iteration;
    uint64_t Start; ///< IR instructions entered before it
  };
  /// One (activation, iteration) of an interned loop context, linked to
  /// the context of the activation below it.  Node 0 is the empty context.
  /// Refs counts the shadow bytes, live allocations, child nodes and live
  /// iteration that refer to a node; one that reaches 0 is recycled, so
  /// the table is bounded by live state, not by iterations run.
  struct CtxNode {
    uint32_t Parent, Refs, Loop;
    uint64_t ActivationId, Iteration;
  };
  struct PredRec {
    uint32_t Loop;
    bool Seen = false, Unpredictable = false;
    uint64_t Addr = 0, Bytes = 0, Raw = 0;
    uint64_t MarkerAct = ~0ULL, MarkerIter = ~0ULL;
  };
  /// Last writer of one byte: InstRecs[Store - 1] in context Ctx.
  struct WriteRec {
    uint32_t Store = 0;
    uint32_t Ctx = 0;
    bool operator==(const WriteRec &) const = default;
  };
  static constexpr uint64_t kShadowMask = 127; ///< 128 B per shadow block
  using ShadowBlock = std::array<WriteRec, kShadowMask + 1>;
  /// Per static instruction, with the caches of a load or store: the
  /// object LastObj filled [ObjLo, ObjHi) at map generation ObjGen, the
  /// last shadow block, the last flow dependence's record, and prediction
  /// state per loop.
  struct InstRec {
    const ir::Instruction *I;
    const ObjectKey *LastObj = nullptr;
    uint64_t ObjLo = 0, ObjHi = 0, ObjGen = 0;
    uint64_t ShadowKey = ~0ULL;
    ShadowBlock *Shadow = nullptr;
    uint32_t DepStore = 0, DepLoop = kNoLoop;
    DepDistance *Dep = nullptr;
    std::vector<PredRec> Preds = {};
  };
  struct LiveAlloc {
    const ObjectKey *Obj = nullptr;
    uint32_t Ctx = 0;
  };

  void addBlock(const ir::BasicBlock *B);
  uint32_t addLoop(const analysis::Loop *L);
  uint32_t blockId(const ir::BasicBlock *B);
  uint32_t siteId(const ir::Instruction *I);
  bool contains(uint32_t Loop, const BlockRec &B) const {
    for (uint32_t L = B.Innermost; L != kNoLoop; L = LoopRecs[L].Parent)
      if (L == Loop)
        return true;
    return false;
  }
  const Activation *currentActivation(uint32_t Loop) const {
    int32_t Top = LoopRecs[Loop].Top;
    return Top < 0 ? nullptr : &ActivationStack[static_cast<size_t>(Top)];
  }
  void popActivation();
  /// The current iteration's interned context (0 outside every loop).
  uint32_t currentContext() {
    if (!ActivationStack.empty() && ActivationStack.back().Ctx)
      return ActivationStack.back().Ctx;
    return internContexts();
  }
  uint32_t internContexts();
  void retain(uint32_t Ctx, uint32_t N) {
    if (Ctx)
      Contexts[Ctx].Refs += N;
  }
  void release(uint32_t Ctx, uint32_t N) {
    assert((!Ctx || Contexts[Ctx].Refs >= N) &&
           "context released more than held");
    if (Ctx && (Contexts[Ctx].Refs -= N) == 0)
      recycle(Ctx);
  }
  void recycle(uint32_t Ctx);
  const ObjectKey *intern(ObjectKey K);
  void noteObject(InstRec &R, uint64_t Addr) {
    // The object cache holds while no interval has changed since.
    if (R.ObjGen != MapGen || Addr - R.ObjLo >= R.ObjHi - R.ObjLo)
      lookupObject(R, Addr);
  }
  void lookupObject(InstRec &R, uint64_t Addr);
  ShadowBlock *shadowBlock(InstRec &R, uint64_t Addr, bool Create) {
    uint64_t Key = Addr / (kShadowMask + 1);
    return Key == R.ShadowKey ? R.Shadow : findShadow(R, Key, Create);
  }
  ShadowBlock *findShadow(InstRec &R, uint64_t Key, bool Create);
  void noteFlowDeps(InstRec &R, WriteRec W, uint64_t Run);
  void countLifetime(const LiveAlloc &A, bool FreedNow);
  std::string contextString() const;

  const analysis::FunctionAnalyses &FA;
  Profile P;

  std::vector<BlockRec> BlockRecs;
  std::vector<InstRec> InstRecs;
  std::vector<LoopRec> LoopRecs;
  std::vector<const ir::GlobalVariable *> Globals;
  /// Ids of entities seen so far: the interpreter's pointer translation,
  /// and loops while the tables are built.
  std::unordered_map<const ir::BasicBlock *, uint32_t> BlockIds{{nullptr, 0}};
  std::unordered_map<const ir::Instruction *, uint32_t> SiteIds;
  std::unordered_map<const analysis::Loop *, uint32_t> LoopIds;

  std::vector<Activation> ActivationStack;
  std::vector<size_t> FrameBases{0};
  std::vector<const ir::Instruction *> CallStack;
  uint64_t NextActivationId = 1;
  uint64_t IrCount = 0; ///< IR instructions of the blocks entered so far
  std::vector<CtxNode> Contexts{CtxNode{0, 0, kNoLoop, 0, 0}};
  std::vector<uint32_t> FreeContexts;

  IntervalMap<const ObjectKey *> AddrMap;
  uint64_t MapGen = 1; ///< bumped on every AddrMap change
  std::unordered_map<uint64_t, LiveAlloc> LiveAllocs;
  /// (object, loop id) -> [0]=instances seen, [1]=instances violating
  /// one-iteration lifetime; Profile::Lifetime at finish().
  std::map<std::pair<const ObjectKey *, uint32_t>,
           std::pair<uint64_t, uint64_t>>
      Lifetimes;

  std::unordered_map<uint64_t, std::unique_ptr<ShadowBlock>> Shadow;
  /// Shadow blocks found lately, by key modulo the table's size.
  std::array<std::pair<uint64_t, ShadowBlock *>, 256> RecentShadow{};
};

/// Outcome of one instrumented training run.
struct TrainingRun {
  Profile Prof;
  uint64_t Instructions = 0;
  uint64_t Blocks = 0, Loads = 0, Stores = 0, Allocs = 0; ///< events
  double WallMs = 0;
  /// Why the program trapped (division or remainder by zero, or the
  /// instruction budget); empty when it ran to completion.  A trapped run
  /// leaves Prof empty.
  std::string Trap;
};

/// The §4.1 training run: runs @\p Entry(\p Args) over plain host memory
/// under \p Budget IR instructions with a ProfileCollector attached, on
/// \p Engine: the untransformed module lowered for profiling on the VM,
/// or the interpreter.  The verified module always lowers.  The program's
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
