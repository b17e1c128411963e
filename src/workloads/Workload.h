//===- workloads/Workload.h - Evaluation program interface ------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five programs of the paper's evaluation (Table 3), reimplemented
/// from scratch.  Each workload exists in two semantically identical forms:
///
///  - `body(i)`: the *speculatively privatized* iteration, written against
///    the runtime API exactly as the Privateer compiler would emit it
///    (h_alloc with heap kinds, check_heap / private_read / private_write,
///    value-prediction sites, deferred I/O) — the Figure 2b form; and
///  - `referenceDigest()`: an independent plain-C++ computation of the
///    same outputs, used to validate both sequential and parallel runs.
///
/// A workload may span several parallel invocations (alvinn runs one per
/// training epoch) with sequential work between them.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_WORKLOADS_WORKLOAD_H
#define PRIVATEER_WORKLOADS_WORKLOAD_H

#include "runtime/Runtime.h"

#include <memory>
#include <string>
#include <vector>

namespace privateer {

/// Static allocation-site counts per logical heap (Table 3 columns).
struct HeapSites {
  unsigned Private = 0;
  unsigned ShortLived = 0;
  unsigned ReadOnly = 0;
  unsigned Redux = 0;
  unsigned Unrestricted = 0;
};

/// The paper's Table 3 row for side-by-side reporting.
struct PaperRow {
  uint64_t Invocations;
  uint64_t Checkpoints;
  const char *PrivR;
  const char *PrivW;
  HeapSites Sites;
  const char *Extras;
};

/// How the non-speculative DOALL baseline (Figure 7) treats this program.
struct DoallOnlyShape {
  /// Whether plain DOALL finds any loop at all.
  bool Parallelizable = false;
  /// Fraction of total work inside the loop DOALL-only parallelizes (the
  /// rest stays sequential; Privateer parallelizes a hotter loop).
  double ParallelFraction = 0.0;
  /// Parallel-region invocations DOALL-only pays spawn/join for (e.g. a
  /// deeply nested inner loop spawns once per outer iteration).
  uint64_t Invocations = 0;
};

class Workload {
public:
  /// Problem sizes: Small keeps unit tests fast; Full drives benches.
  enum class Scale { Small, Full };

  virtual ~Workload() = default;

  virtual const char *name() const = 0;
  virtual PaperRow paperRow() const = 0;
  virtual HeapSites ourSites() const = 0;
  virtual const char *extras() const = 0;
  virtual DoallOnlyShape doallOnly() const = 0;
  virtual RuntimeConfig runtimeConfig() const { return RuntimeConfig(); }

  virtual uint64_t invocations() const { return 1; }
  virtual uint64_t iterationsPerInvocation() const = 0;

  /// Allocates and initializes all program state from the logical heaps
  /// (the runtime must already be initialized).
  virtual void setUp() = 0;
  virtual void tearDown() = 0;

  /// Sequential work before/after parallel invocation \p K (e.g. alvinn's
  /// weight update between epochs).
  virtual void beginInvocation(uint64_t K) { (void)K; }
  virtual void endInvocation(uint64_t K) { (void)K; }

  /// One privatized iteration of the hot loop.
  virtual void body(uint64_t I) = 0;

  /// Serializes the live-out state (results the program keeps in memory).
  virtual void appendLiveOut(std::string &Out) const = 0;

  /// Digest of live-outs plus deferred output computed by an independent
  /// plain-C++ implementation of the same program.
  virtual std::string referenceDigest() const = 0;
};

/// Drives all invocations of \p W sequentially (checks become no-ops);
/// deferred output goes to \p Io (may be nullptr for a temp file).
/// Returns the combined live-out + output digest.
std::string runWorkloadSequential(Workload &W, double *ElapsedSec = nullptr);

/// Drives all invocations speculatively in parallel; accumulates stats
/// across invocations into \p Total when non-null.
std::string runWorkloadParallel(Workload &W, const ParallelOptions &Options,
                                InvocationStats *Total = nullptr);

/// Combines a live-out blob and the deferred-output text the same way
/// referenceDigest() must.
std::string combineDigest(const std::string &LiveOut, const std::string &Io);

/// All five paper workloads at the given scale.
std::vector<std::unique_ptr<Workload>> allWorkloads(Workload::Scale S);

/// The irregular commutative-update workloads (histogram, degree-count,
/// dedup) — beyond the paper's evaluation set, so kept out of
/// allWorkloads() and the paper-figure geomeans.
std::vector<std::unique_ptr<Workload>> commutativeWorkloads(Workload::Scale S);

/// One workload by name ("dijkstra", "blackscholes", "swaptions",
/// "alvinn", "enc-md5", "histogram", "degree-count", "dedup"); null if
/// unknown.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       Workload::Scale S);

} // namespace privateer

#endif // PRIVATEER_WORKLOADS_WORKLOAD_H
