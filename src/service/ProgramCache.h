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
/// profile, classification, transformation, lowering to bytecode —
/// executes at most once per distinct program.  What the cache keeps is
/// only what the daemon reads afterwards: the lowered program serialized
/// into a sealed memfd (bytecode/Image.h), so dispatching a warm job to an
/// executive is one SCM_RIGHTS hand-off, with no fork, no parse, and no
/// lowering anywhere on the path.  The module, its analyses and the
/// lowered program die with the miss that built them.
///
/// Entries are handed out as shared_ptr: eviction (bounded LRU, keyed by
/// last hit) drops the cache's reference, while jobs still queued against
/// the entry keep it alive until dispatch.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_SERVICE_PROGRAMCACHE_H
#define PRIVATEER_SERVICE_PROGRAMCACHE_H

#include "runtime/Runtime.h"
#include "service/Protocol.h"

#include <list>
#include <map>
#include <memory>
#include <string>

namespace privateer {
namespace service {

/// One fully prepared program, reduced to its sealed images.
struct CachedProgram {
  uint64_t Key = 0;
  std::string Text; ///< verbatim module text (collision check)
  /// Strategy the pipeline ran under.  A doacross-rewritten module is a
  /// different program from the doall compilation of the same text, so the
  /// strategy participates in both the key and the collision check.
  Strategy Strat = Strategy::Doall;
  /// Sealed memfd holding the serialized lowered program.  The daemon
  /// hands it to executives via SCM_RIGHTS; the seals let the executive
  /// trust size and contents without copying.  A transformed program is
  /// lowered with its loop plan, which sequential jobs run as plain jumps
  /// (the VM intercepts the loop only when a plan is armed); an
  /// untransformed one is lowered plain, and the daemon rejects its
  /// speculative submits.
  int Image = -1;
  /// Monotonic fill ordinal: executives key their local caches by
  /// (Key, Generation), so a rebuilt entry (evicted, or a hash collision
  /// replacing different text) never aliases a stale cached program.
  uint64_t Generation = 0;
  double PipelineSec = 0; ///< cost of the cold half, paid once
  /// Whether the pipeline transformed a loop, and its last log line (the
  /// reason a speculative submit of an untransformed program is refused).
  bool Transformed = false;
  std::string LastLog;

  CachedProgram() = default;
  CachedProgram(const CachedProgram &) = delete;
  CachedProgram &operator=(const CachedProgram &) = delete;
  ~CachedProgram();

  /// Negative verdict: set when an executive running this exact text died
  /// on a deterministic program-class signal (SIGSEGV/SIGBUS/SIGABRT/
  /// SIGFPE/SIGILL).  Later submits answer from PoisonReply instead of
  /// crashing another executive.  ParseError is set for entries caching a
  /// parse, verifier, trap or rewrite error, which have no images.
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
  /// pipeline rewrite leaves the module failing the verifier; these
  /// verdicts are cached.  It also returns nullptr, with \p Transient set
  /// and nothing cached, when an image cannot be sealed (EMFILE and ENOMEM
  /// pass).  A program whose pipeline finds no parallelizable loop is
  /// still cached (Transformed == false) so repeated submits stay cheap.
  std::shared_ptr<CachedProgram> lookup(const std::string &Text,
                                        Strategy Strat, std::string &Err,
                                        bool &Hit, bool &Transient);

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
