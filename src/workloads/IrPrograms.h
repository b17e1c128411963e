//===- workloads/IrPrograms.h - IR programs for the pipeline ----*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Textual IR programs exercising the fully automatic compiler pipeline.
/// `dijkstraIrText` is the paper's Figure 2a, written in this repo's IR:
/// a hot loop whose iterations reuse a global linked-list work queue and a
/// global pathcost array — unparallelizable without speculative
/// privatization, value prediction, and short-lived object speculation.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_WORKLOADS_IRPROGRAMS_H
#define PRIVATEER_WORKLOADS_IRPROGRAMS_H

#include <cstdint>
#include <string>

namespace privateer {

/// Figure 2a in IR form with \p NumNodes graph nodes.  @main fills the
/// adjacency matrix, then runs the hot loop over all sources; each
/// iteration prints "src <s> cost <sum>".
std::string dijkstraIrText(unsigned NumNodes);

/// A small reduction kernel: sums f(i) for i in [0, N) into a global
/// accumulator via a load-add-store — reduction-privatizable.
std::string reductionSumIrText(uint64_t N);

/// A loop with a genuine cross-iteration recurrence through memory (not
/// privatizable); classification must mark the object unrestricted.
std::string recurrenceIrText(uint64_t N);

/// A blackscholes-flavored floating-point kernel: per-iteration pricing
/// of one instrument from read-only f64 parameter arrays into a private
/// result array.  Exercises f64 arithmetic, conversions, and compares
/// through the whole pipeline.
std::string fpPricingIrText(uint64_t N);

/// An array recurrence a[i] = f(a[i - Dist], i) over N elements, with the
/// first Dist elements seeded before the loop.  Not DOALL-parallelizable;
/// the DOACROSS pre-pass proves the fixed distance and forwards the
/// carried values through token rings.  Requires 1 <= Dist < N.
std::string arrayRecurrenceIrText(uint64_t N, uint64_t Dist);

/// A loop-carried scalar recurrence acc = f(acc, i) whose running value
/// is stored to b[i] each iteration.  The extra header phi defeats plain
/// DOALL readiness; DOACROSS rewrites it into distance-one token
/// forwarding.
std::string scalarCarryIrText(uint64_t N);

/// Irregular histogram: each iteration hashes its index for \p Rounds
/// mixing steps, bumps a data-dependent counter in @hist (load-add-store
/// through a recomputed gep), and folds a min into the same bucket of
/// @hmin (load-icmp-select-store).  The reduction recognizer claims both
/// objects (Add and Min updates through recomputed geps) and
/// classification assigns the reduction heap.  The key stream drifts: the
/// first Buckets iterations touch distinct buckets, the rest hammer a hot
/// quarter of the table.  @train profiles only the warmup, so with
/// reductions off the arrays classify private and the drift surfaces as
/// privacy misspeculation — the A/B arm of the commutative bench gate.
std::string histogramIrText(uint64_t N, uint64_t Buckets, uint64_t Rounds);

/// Graph degree counting: edge endpoints come from read-only @src/@dst
/// arrays; the hot loop bumps @deg at both endpoints (two Add updates of
/// one object).  The first Nodes/2 edges pair distinct endpoints (the
/// warmup @train profiles); later edges concentrate on a hot quarter of
/// the nodes, so with reductions off privacy validation
/// misspeculates on the hub collisions.  Requires an even \p Nodes.
std::string degreeCountIrText(uint64_t Nodes, uint64_t Edges,
                              uint64_t Rounds);

/// Duplicate detection via a shared bitmap: each iteration ORs one bit
/// into a data-dependent word of @seen (load-or-store).  The bitmap is
/// summed sequentially after the loop, so the hot loop's only accesses to
/// @seen are Or updates.
std::string dedupIrText(uint64_t N, uint64_t Words, uint64_t Rounds);

} // namespace privateer

#endif // PRIVATEER_WORKLOADS_IRPROGRAMS_H
