//===- tests/RandomIrPrograms.h - Seeded IR program generators --*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The randomized sweeps' program generators.  Each returns the IR text of
/// a whole module whose @main runs one generated loop, and sets
/// \p IterationsOut to that loop's trip count.  The same seed always gives
/// the same text, so a seed names a program (tests/golden/ keeps the
/// training profiles of a few).
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_TESTS_RANDOMIRPROGRAMS_H
#define PRIVATEER_TESTS_RANDOMIRPROGRAMS_H

#include <cstdint>
#include <string>

namespace privateer {

/// A privatizable DOALL kernel: private scratch, a read-only table,
/// live-out stores and a sum reduction.
std::string randomIrProgram(uint64_t Seed, uint64_t &IterationsOut);

/// A loop carrying a scalar recurrence, an array recurrence, or both.
std::string randomDepLoopProgram(uint64_t Seed, uint64_t &IterationsOut);

/// A loop of commutative read-modify-writes on hashed table cells.
std::string randomComLoopProgram(uint64_t Seed, uint64_t &IterationsOut);

} // namespace privateer

#endif // PRIVATEER_TESTS_RANDOMIRPROGRAMS_H
