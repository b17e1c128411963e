//===- workloads/Swaptions.h - PARSEC-style swaptions -----------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PARSEC-style swaptions: each hot-loop iteration prices one swaption
/// with an HJM-style Monte-Carlo simulation.  "It parallelizes the hot
/// loop in the function worker by privatizing 17 memory objects, 15 of
/// which are short-lived.  The short-lived objects include a large number
/// of vectors and matrices (arrays of pointers to row vectors) which are
/// dynamically allocated at various points within worker and its callees,
/// and passed around indirectly through other data structures.  The
/// LRPD-family techniques are inapplicable to this benchmark because of
/// the linked matrix data structures." (§6.1)
///
/// The matrices here are genuine arrays-of-row-pointers allocated from the
/// short-lived heap, so separation checks chase real pointer indirection.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_WORKLOADS_SWAPTIONS_H
#define PRIVATEER_WORKLOADS_SWAPTIONS_H

#include "workloads/Workload.h"

namespace privateer {

class SwaptionsWorkload : public Workload {
public:
  explicit SwaptionsWorkload(Scale S);

  const char *name() const override { return "swaptions"; }
  PaperRow paperRow() const override {
    return PaperRow{1, 17, "288 KB", "169 KB", {2, 15, 5, 0, 0},
                    "Value, Control"};
  }
  HeapSites ourSites() const override { return {2, 4, 4, 0, 0}; }
  const char *extras() const override { return "Value, Control"; }
  DoallOnlyShape doallOnly() const override {
    // "The hot loop in swaptions is parallelizable but could not be proved
    // parallelizable by our static analysis" (§6.1): DOALL-only gets 1x.
    return DoallOnlyShape{false, 0.0, 0};
  }

  uint64_t iterationsPerInvocation() const override { return NumSwaptions; }

  void setUp() override;
  void tearDown() override;
  void body(uint64_t I) override;
  void appendLiveOut(std::string &Out) const override;
  std::string referenceDigest() const override;

private:
  uint64_t NumSwaptions;
  unsigned Trials;
  static constexpr unsigned kSteps = 12;
  static constexpr unsigned kTenors = 12;

  // Read-only swaption parameters.
  double *Strike = nullptr;
  double *Maturity = nullptr;
  double *InitialRate = nullptr;
  double *Volatility = nullptr;
  // Private: per-iteration scratch descriptor (reused) and results.
  struct SimDescriptor {
    double Strike;
    double Maturity;
    double Rate;
    double Vol;
    unsigned Trials;
  };
  SimDescriptor *Desc = nullptr;
  double *Results = nullptr;
};

} // namespace privateer

#endif // PRIVATEER_WORKLOADS_SWAPTIONS_H
