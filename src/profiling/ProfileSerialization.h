//===- profiling/ProfileSerialization.h - Profile save/load -----*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text serialization of training profiles, enabling the paper's workflow
/// of profiling once on a training input and compiling later ("Each
/// benchmark is profiled with a training input (train)", §6).  Entities
/// are identified by stable names — functions and blocks by name,
/// instructions by their index within a block, loops by their header —
/// so a profile saved against a module can be re-attached to a freshly
/// parsed copy of the same module.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_PROFILING_PROFILESERIALIZATION_H
#define PRIVATEER_PROFILING_PROFILESERIALIZATION_H

#include "analysis/FunctionAnalyses.h"
#include "profiling/Profile.h"

#include <optional>
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

/// Parses a serialized profile against \p M / \p FA.  Returns nullopt and
/// sets \p Error if any reference fails to resolve (the module changed).
std::optional<Profile> deserializeProfile(const std::string &Text,
                                          const ir::Module &M,
                                          const analysis::FunctionAnalyses &FA,
                                          std::string &Error);

} // namespace profiling
} // namespace privateer

#endif // PRIVATEER_PROFILING_PROFILESERIALIZATION_H
