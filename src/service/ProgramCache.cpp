//===- service/ProgramCache.cpp -------------------------------------------===//

#include "service/ProgramCache.h"

#include "analysis/FunctionAnalyses.h"
#include "bytecode/Image.h"
#include "bytecode/Lower.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "support/Fnv.h"
#include "support/Statistics.h"
#include "support/Timing.h"
#include "transform/Pipeline.h"

#include <unistd.h>

using namespace privateer;
using namespace privateer::service;

CachedProgram::~CachedProgram() {
  if (Image >= 0)
    ::close(Image);
}

std::shared_ptr<CachedProgram>
ProgramCache::lookup(const std::string &Text, Strategy Strat, std::string &Err,
                     bool &Hit, bool &Transient) {
  Transient = false;
  // The strategy is part of the program's identity: the doacross pre-pass
  // rewrites the module, so the same text compiles to different programs
  // under different strategies and they must not alias in the cache.
  uint64_t Key = fnv1a(Text) ^
                 (0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(Strat) + 1));
  auto It = Entries.find(Key);
  if (It != Entries.end() && It->second.Prog->Text == Text &&
      It->second.Prog->Strat == Strat) {
    Hit = true;
    ++Hits;
    // LRU: a hit renews the entry's lease.
    Lru.splice(Lru.begin(), Lru, It->second.LruIt);
    if (!It->second.Prog->ParseError.empty()) {
      // Cached negative verdict: the text is known not to parse/verify.
      Err = It->second.Prog->ParseError;
      return nullptr;
    }
    return It->second.Prog;
  }
  Hit = false;
  ++Misses;

  // Caches the entry (positive or negative) under LRU eviction.
  auto Insert = [this](std::shared_ptr<CachedProgram> E) {
    while (Entries.size() >= MaxEntries && !Lru.empty()) {
      Entries.erase(Lru.back());
      Lru.pop_back();
      ++Evictions;
      StatisticRegistry::instance().counter("service", "cache_evictions") += 1;
    }
    // A hash collision with different text replaces the older entry (jobs
    // already holding it keep their shared_ptr).
    auto [Pos, Inserted] = Entries.try_emplace(E->Key);
    if (Inserted) {
      Lru.push_front(E->Key);
      Pos->second.LruIt = Lru.begin();
    } else {
      Lru.splice(Lru.begin(), Lru, Pos->second.LruIt);
    }
    Pos->second.Prog = std::move(E);
  };

  double T0 = wallSeconds();
  auto Entry = std::make_shared<CachedProgram>();
  Entry->Key = Key;
  Entry->Generation = NextGeneration++;
  Entry->Text = Text;
  Entry->Strat = Strat;
  auto Negative = [&](std::string Why) {
    Err = std::move(Why);
    Entry->ParseError = Err;
    Insert(Entry);
    return nullptr;
  };

  std::unique_ptr<ir::Module> M = ir::parseModule(Text, Err);
  if (!M)
    return Negative("parse error: " + Err);
  auto Diags = ir::verifyModule(*M);
  if (!Diags.empty())
    return Negative("verifier: " + Diags.front());

  analysis::FunctionAnalyses FA(*M);
  transform::PipelineOptions PipeOpts;
  PipeOpts.Strat = Strat;
  transform::PipelineResult PR =
      transform::runPrivateerPipeline(*M, FA, PipeOpts);
  // A trap is a property of the text, like a verifier failure, and so is
  // a rewrite that left the module failing the verifier (the module no
  // longer lowers, for sequential jobs either): cache the verdict so
  // resubmits do not rerun the training run.
  if (!PR.TrainingTrap.empty())
    return Negative("training run trapped: " + PR.TrainingTrap);
  if (!PR.ModuleErrors.empty())
    return Negative("rewritten module: " + PR.ModuleErrors.front());
  Entry->Transformed = PR.Transformed;
  if (!PR.Log.empty())
    Entry->LastLog = PR.Log.back();

  // Lower once per program (a verified module always lowers) and seal the
  // lowered program into a memfd.  A failed seal is transient, so the
  // entry is not cached and the next submit tries again.
  std::shared_ptr<const bytecode::BytecodeProgram> BP;
  if (PR.Transformed) {
    std::string LowerWhy;
    BP = transform::lowerForPrivatized(*M, FA, PR.Assignment, LowerWhy);
    if (!BP)
      return Negative("lowering: " + LowerWhy);
  } else {
    BP = bytecode::lowerModule(*M, {});
  }
  std::string Img = bytecode::serializeProgram(*BP), Why;
  Entry->Image = sealedMemfd("privateer-img", Img.data(), Img.size(), Why);
  if (Entry->Image < 0) {
    Err = "program image: " + Why;
    Transient = true;
    return nullptr;
  }
  Err.clear();

  Entry->PipelineSec = wallSeconds() - T0;
  StatisticRegistry::instance().real("service", "pipeline_sec") +=
      Entry->PipelineSec;

  Insert(Entry);
  return Entry;
}
