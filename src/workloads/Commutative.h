//===- workloads/Commutative.h - Irregular commutative workloads -*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three irregular update kernels that sit beyond the paper's five
/// programs: a hashed histogram (counter bumps + a min map), graph degree
/// counting over a fixed edge list, and duplicate detection through a
/// shared bitmap.  Each hot iteration read-modify-writes a data-dependent
/// cell of a shared table.  The cells collide across iterations, so the
/// tables are not privatizable, but every update folds in with one
/// associative operator and the old value never escapes: each table is a
/// reduction object.  The privatized body updates it with plain loads and
/// stores into the worker's identity-initialized copy, and the checkpoint
/// commit combines the copies, so the collisions never misspeculate.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_WORKLOADS_COMMUTATIVE_H
#define PRIVATEER_WORKLOADS_COMMUTATIVE_H

#include "workloads/Workload.h"

namespace privateer {

class CommutativeWorkload : public Workload {
public:
  enum class Kind { Histogram, Degree, Dedup };

  CommutativeWorkload(Kind K, Scale S);

  const char *name() const override;
  PaperRow paperRow() const override {
    // Not one of the paper's Table 3 programs; the row marks the gap.
    return PaperRow{1, 0, "n/a", "n/a", {0, 0, 0, 0, 0}, "Com"};
  }
  HeapSites ourSites() const override;
  const char *extras() const override { return "Com"; }
  DoallOnlyShape doallOnly() const override {
    // Static analysis sees loop-carried read-modify-writes through
    // data-dependent addresses: DOALL finds nothing.
    return DoallOnlyShape{false, 0.0, 0};
  }

  uint64_t iterationsPerInvocation() const override { return Iterations; }

  void setUp() override;
  void tearDown() override;
  void body(uint64_t I) override;
  void appendLiveOut(std::string &Out) const override;
  std::string referenceDigest() const override;

private:
  Kind K;
  uint64_t Iterations;
  uint64_t Rounds;
  // Histogram: counter and min tables, one hot cell per hashed key.
  uint64_t Buckets = 0;
  int64_t *Hist = nullptr;
  int64_t *HMin = nullptr;
  // Degree: read-only edge endpoints, per-node counters.
  uint64_t Nodes = 0;
  int64_t *Src = nullptr;
  int64_t *Dst = nullptr;
  int64_t *Deg = nullptr;
  // Dedup: shared bitmap of seen keys.
  uint64_t Words = 0;
  int64_t *Seen = nullptr;
};

} // namespace privateer

#endif // PRIVATEER_WORKLOADS_COMMUTATIVE_H
