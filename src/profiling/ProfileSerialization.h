//===- profiling/ProfileSerialization.h - Profile save/load -----*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text rendering of training profiles, written by `privateer-cc
/// --profile-out` and compared by the golden-profile tests.  Entities are
/// identified by stable names — functions and blocks by name, instructions
/// by their index within a block, loops by their header — so the text is
/// the same for every parse of the same module.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_PROFILING_PROFILESERIALIZATION_H
#define PRIVATEER_PROFILING_PROFILESERIALIZATION_H

#include "profiling/Profile.h"

#include <string>

namespace privateer {
namespace profiling {

/// Renders \p P as text.  Instruction and loop references use stable
/// coordinates within \p M.
std::string serializeProfile(const Profile &P, const ir::Module &M);

/// serializeProfile(\p P, \p M) in a form that compares across processes
/// and engines: the absolute addresses (global bases, predicted-load
/// addresses, pointer values) are rewritten, an address inside a global as
/// "@name+offset" and any other as "heap", and the lines are sorted.
std::string normalizedProfile(const Profile &P, const ir::Module &M);

} // namespace profiling
} // namespace privateer

#endif // PRIVATEER_PROFILING_PROFILESERIALIZATION_H
