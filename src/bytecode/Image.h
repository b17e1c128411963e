//===- bytecode/Image.h - Relocatable lowered-program images ----*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Position-independent serialization of a lowered BytecodeProgram.  A
/// BytecodeProgram holds no pointers into other objects (alloc sites,
/// globals, and reduction registrations are plain data), so it flattens
/// into a single byte image and round-trips losslessly.
///
/// The invocation service uses this to decouple program lowering from
/// program execution across processes: the daemon lowers once per cache
/// miss, serializes the result into a sealed memfd, and hands the fd to
/// pre-warmed executive processes over SCM_RIGHTS — a warm-hit job then
/// pays neither fork, nor parse, nor lowering.
///
/// Deserialization is fully bounds-checked (images cross a process
/// boundary; a truncated or corrupt image must fail loudly, never read
/// out of bounds).
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_BYTECODE_IMAGE_H
#define PRIVATEER_BYTECODE_IMAGE_H

#include "bytecode/Bytecode.h"

#include <memory>
#include <string>

namespace privateer {
namespace bytecode {

/// Flattens \p Prog into a self-contained byte image.
std::string serializeProgram(const BytecodeProgram &Prog);

/// Rebuilds a program from \p Image (as produced by serializeProgram).
/// Returns null with \p Err set on any malformed input; never reads past
/// the image or trusts embedded lengths.  An image carrying a training-run
/// event opcode is malformed: a profiling lowering never leaves its
/// process.
std::unique_ptr<BytecodeProgram> deserializeProgram(const void *Image,
                                                    size_t Bytes,
                                                    std::string &Err);

} // namespace bytecode
} // namespace privateer

#endif // PRIVATEER_BYTECODE_IMAGE_H
