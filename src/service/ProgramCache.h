//===- service/ProgramCache.h - Warm compiled-program cache -----*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's warm program cache: module text is hashed with FNV-1a and
/// the expensive front half of a Privateer run — parse, verify, training
/// profile, classification, transformation — executes at most once per
/// distinct program, and so does lowering it to bytecode (the VM runs
/// every job).  The cached lowered programs are then reused by every
/// subsequent job: a one-shot executive inherits them read-only across
/// fork(), so a warm submit pays only fork + execution.
///
/// Entries are handed out as shared_ptr: eviction (bounded LRU, keyed by
/// last hit) drops the cache's reference, while jobs still queued against
/// the entry keep it alive until dispatch.
///
/// For the pre-warmed executive pool the cache also serializes each
/// lowered program into a sealed memfd (bytecode/Image.h): dispatching a
/// warm job to an executive is then one SCM_RIGHTS hand-off, with no
/// fork, no parse, and no lowering anywhere on the path.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_SERVICE_PROGRAMCACHE_H
#define PRIVATEER_SERVICE_PROGRAMCACHE_H

#include "analysis/FunctionAnalyses.h"
#include "ir/IR.h"
#include "service/Protocol.h"
#include "transform/Pipeline.h"

#include <list>
#include <map>
#include <memory>
#include <string>

namespace privateer {
namespace service {

/// One fully prepared program.  The PipelineResult's loop / global
/// pointers point into *M, and FA holds analyses over *M, so the three
/// must live and die together.
struct CachedProgram {
  uint64_t Key = 0;
  std::string Text; ///< verbatim module text (collision check)
  /// Strategy the pipeline ran under.  A doacross-rewritten module is a
  /// different program from the doall compilation of the same text, so the
  /// strategy participates in both the key and the collision check.
  Strategy Strat = Strategy::Doall;
  std::unique_ptr<ir::Module> M;
  std::unique_ptr<analysis::FunctionAnalyses> FA;
  transform::PipelineResult Pipeline;
  /// Bytecode programs lowered once at cache-fill time (borrowing *M), so
  /// warm submits skip parse, pipeline, AND lowering: one-shot executives
  /// inherit them read-only across fork().  Only a verified module is
  /// lowered, and lowering never declines: a pipeline rewrite that left
  /// *M failing the verifier is cached as a negative verdict instead.
  /// LoweredPar is null only when the pipeline transformed nothing (the
  /// daemon rejects speculative submits of such a program).
  std::shared_ptr<const bytecode::BytecodeProgram> LoweredPar;
  std::shared_ptr<const bytecode::BytecodeProgram> LoweredSeq;
  /// Sealed memfds holding the serialized lowered programs (-1 = no
  /// program, or no memfd support).  The daemon hands these to executives
  /// via SCM_RIGHTS; the seals let the executive trust size and contents
  /// without copying.
  int ImagePar = -1;
  int ImageSeq = -1;
  /// Monotonic fill ordinal: executives key their local caches by
  /// (Key, Generation), so a rebuilt entry (evicted, or a hash collision
  /// replacing different text) never aliases a stale cached program.
  uint64_t Generation = 0;
  double PipelineSec = 0; ///< cost of the cold half, paid once

  CachedProgram() = default;
  CachedProgram(const CachedProgram &) = delete;
  CachedProgram &operator=(const CachedProgram &) = delete;
  ~CachedProgram();

  /// Negative verdict: set when an executive running this exact text died
  /// on a deterministic program-class signal (SIGSEGV/SIGBUS/SIGABRT/
  /// SIGFPE/SIGILL).  Later submits answer from PoisonReply instead of
  /// crashing another executive.  M is null for entries caching a parse,
  /// verifier, trap or rewrite error (ParseError holds the message).
  bool Poisoned = false;
  JobReply PoisonReply;
  std::string ParseError;
};

class ProgramCache {
public:
  explicit ProgramCache(size_t MaxEntries = 32) : MaxEntries(MaxEntries) {}

  /// Looks up (or builds) the prepared program for \p Text compiled under
  /// \p Strat.  On a miss this runs the full pipeline in the calling
  /// process — the training run's output is swallowed.  Returns nullptr
  /// with \p Err set when the text does not parse or verify, when its
  /// training run traps (division by zero, instruction budget), or when a
  /// pipeline rewrite leaves the module failing the verifier; a program
  /// whose pipeline finds no parallelizable loop is still cached
  /// (Pipeline.Transformed == false) so repeated submits stay cheap.
  std::shared_ptr<CachedProgram> lookup(const std::string &Text,
                                        Strategy Strat, std::string &Err,
                                        bool &Hit);

  size_t size() const { return Entries.size(); }
  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t evictions() const { return Evictions; }

private:
  size_t MaxEntries;
  struct Entry {
    std::shared_ptr<CachedProgram> Prog;
    std::list<uint64_t>::iterator LruIt;
  };
  std::map<uint64_t, Entry> Entries;
  std::list<uint64_t> Lru; ///< front = most recently hit, back = evict next
  uint64_t Hits = 0, Misses = 0, Evictions = 0, NextGeneration = 1;
};

} // namespace service
} // namespace privateer

#endif // PRIVATEER_SERVICE_PROGRAMCACHE_H
