//===- service/ProgramCache.cpp -------------------------------------------===//

#include "service/ProgramCache.h"

#include "bytecode/Image.h"
#include "bytecode/Lower.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "support/Fnv.h"
#include "support/Statistics.h"
#include "support/Timing.h"

#include <unistd.h>

using namespace privateer;
using namespace privateer::service;

CachedProgram::~CachedProgram() {
  if (ImagePar >= 0)
    ::close(ImagePar);
  if (ImageSeq >= 0)
    ::close(ImageSeq);
}

std::shared_ptr<CachedProgram>
ProgramCache::lookup(const std::string &Text, Strategy Strat, std::string &Err,
                     bool &Hit) {
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
  Entry->M = ir::parseModule(Text, Err);
  if (!Entry->M) {
    Err = "parse error: " + Err;
    Entry->ParseError = Err;
    Insert(Entry);
    return nullptr;
  }
  auto Diags = ir::verifyModule(*Entry->M);
  if (!Diags.empty()) {
    Err = "verifier: " + Diags.front();
    Entry->ParseError = Err;
    Entry->M.reset();
    Insert(Entry);
    return nullptr;
  }

  Entry->FA = std::make_unique<analysis::FunctionAnalyses>(*Entry->M);

  transform::PipelineOptions PipeOpts;
  PipeOpts.Strat = Strat;
  Entry->Pipeline =
      transform::runPrivateerPipeline(*Entry->M, *Entry->FA, PipeOpts);
  const transform::PipelineResult &PR = Entry->Pipeline;
  if (!PR.TrainingTrap.empty() || !PR.ModuleErrors.empty()) {
    // A trap is a property of the text, like a verifier failure, and so
    // is a rewrite that left the module failing the verifier (the module
    // no longer lowers, for sequential jobs either): cache the verdict so
    // resubmits do not rerun the training run.
    Err = !PR.TrainingTrap.empty()
              ? "training run trapped: " + PR.TrainingTrap
              : "rewritten module: " + PR.ModuleErrors.front();
    Entry->ParseError = Err;
    Entry->FA.reset();
    Entry->M.reset();
    Insert(Entry);
    return nullptr;
  }
  // Lower to bytecode once per program; every warm hit reuses the
  // programs.  A verified module always lowers.
  std::string LowerWhy;
  if (Entry->Pipeline.Transformed)
    Entry->LoweredPar = transform::lowerForPrivatized(
        *Entry->M, *Entry->FA, Entry->Pipeline.Assignment, LowerWhy);
  Entry->LoweredSeq = bytecode::lowerModule(*Entry->M, {});

  // Serialize each lowered program into a sealed memfd for the executive
  // pool.  Failure (no memfd support) silently disables pooled dispatch
  // for this entry; one-shot executives still serve it.
  std::string MemfdErr;
  if (Entry->LoweredPar) {
    std::string Img = bytecode::serializeProgram(*Entry->LoweredPar);
    Entry->ImagePar =
        sealedMemfd("privateer-img-par", Img.data(), Img.size(), MemfdErr);
  }
  std::string Img = bytecode::serializeProgram(*Entry->LoweredSeq);
  Entry->ImageSeq =
      sealedMemfd("privateer-img-seq", Img.data(), Img.size(), MemfdErr);

  Entry->PipelineSec = wallSeconds() - T0;
  StatisticRegistry::instance().real("service", "pipeline_sec") +=
      Entry->PipelineSec;

  Insert(Entry);
  return Entry;
}
