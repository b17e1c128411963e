//===- tests/GoldenProfile.h - Golden training profiles ---------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The programs whose serialized training profiles are committed under
/// tests/golden/, in the address-normalized form of
/// profiling::normalizedProfile: the workload generators, and a few seeds
/// of each randomized-sweep generator.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_TESTS_GOLDENPROFILE_H
#define PRIVATEER_TESTS_GOLDENPROFILE_H

#include "RandomIrPrograms.h"
#include "workloads/IrPrograms.h"

#include <string>
#include <utility>
#include <vector>

namespace privateer {
namespace golden {

struct GoldenProgram {
  std::string Name; ///< file stem under tests/golden/
  std::string Text;
  std::string Entry; ///< the training entry the profile comes from
};

/// Every generator of workloads/IrPrograms.h at a small size, plus the
/// separate training entries of dijkstra, histogram and degree-count
/// (dedup has none), plus seeds 1-3 of each RandomIrPrograms.h generator.
inline std::vector<GoldenProgram> goldenPrograms() {
  std::vector<GoldenProgram> Programs = {
      {"dijkstra", dijkstraIrText(8), "main"},
      {"dijkstra.main_train", dijkstraIrText(8), "main_train"},
      {"redsum", reductionSumIrText(200), "main"},
      {"recurrence", recurrenceIrText(64), "main"},
      {"fppricing", fpPricingIrText(64), "main"},
      {"array-recurrence", arrayRecurrenceIrText(64, 4), "main"},
      {"scalar-carry", scalarCarryIrText(64), "main"},
      {"histogram", histogramIrText(128, 32, 2), "main"},
      {"histogram.train", histogramIrText(128, 32, 2), "train"},
      {"degree-count", degreeCountIrText(32, 256, 2), "main"},
      {"degree-count.train", degreeCountIrText(32, 256, 2), "train"},
      {"dedup", dedupIrText(128, 8, 2), "main"},
  };
  using Generator = std::string (*)(uint64_t, uint64_t &);
  const std::pair<const char *, Generator> Generators[] = {
      {"random-privatization", randomIrProgram},
      {"random-dependence", randomDepLoopProgram},
      {"random-commutative", randomComLoopProgram}};
  for (const auto &[Name, Gen] : Generators)
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      uint64_t Iterations = 0;
      Programs.push_back({std::string(Name) + ".seed" + std::to_string(Seed),
                          Gen(Seed, Iterations), "main"});
    }
  return Programs;
}

} // namespace golden
} // namespace privateer

#endif // PRIVATEER_TESTS_GOLDENPROFILE_H
