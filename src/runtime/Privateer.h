//===- runtime/Privateer.h - Public runtime facade --------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing runtime API in the paper's own vocabulary (Figure 2b).
/// Transformed programs — and hand-privatized programs standing in for
/// compiler output — call these thin wrappers over the process-wide
/// Runtime instance.
///
/// \code
///   privateer::Runtime::get().initialize();
///   auto *Costs = static_cast<int *>(
///       privateer::h_alloc(N * sizeof(int), HeapKind::Private));
///   ...
///   privateer::private_write(&Costs[Src], sizeof(int));
///   Costs[Src] = 0;
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_RUNTIME_PRIVATEER_H
#define PRIVATEER_RUNTIME_PRIVATEER_H

#include "runtime/Runtime.h"

namespace privateer {

/// Allocates \p Bytes from logical heap \p K (paper: h_alloc).
inline void *h_alloc(size_t Bytes, HeapKind K) {
  return Runtime::get().heapAlloc(Bytes, K);
}

/// Frees \p P back to logical heap \p K (paper: h_dealloc).
inline void h_dealloc(void *P, HeapKind K) {
  Runtime::get().heapDealloc(P, K);
}

/// Separation check (paper: check_heap, §4.5).
inline void check_heap(const void *P, HeapKind Expected) {
  Runtime::get().checkHeap(P, Expected);
}

/// Privacy check before a load (paper: private_read, §4.6).
inline void private_read(const void *P, size_t Bytes) {
  Runtime::get().privateRead(P, Bytes);
}

/// Privacy check before a store (paper: private_write, §4.6).
inline void private_write(const void *P, size_t Bytes) {
  Runtime::get().privateWrite(P, Bytes);
}

/// Value-prediction misspeculation site (paper Figure 2b lines 79-80).
inline void speculate(bool Cond, const char *What) {
  Runtime::get().speculateTrue(Cond, What);
}

} // namespace privateer

#endif // PRIVATEER_RUNTIME_PRIVATEER_H
