//===- runtime/Runtime.cpp - Heap management and validation --------------===//

#include "runtime/Runtime.h"

#include "runtime/ShadowMetadata.h"
#include "support/ErrorHandling.h"
#include "support/Statistics.h"
#include "support/Timing.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include <unistd.h>

using namespace privateer;

InvocationStats &InvocationStats::operator+=(const InvocationStats &S) {
#define PRIVATEER_STAT_FOLD(Name, Combine, Group, Key, Who)                    \
  stats::combine##Combine(Name, S.Name);
  PRIVATEER_STATS_COUNTERS(PRIVATEER_STAT_FOLD)
  PRIVATEER_STATS_SECONDS(PRIVATEER_STAT_FOLD)
#undef PRIVATEER_STAT_FOLD
  if (FirstMisspecReason.empty())
    FirstMisspecReason = S.FirstMisspecReason;
  if (FirstDegradeReason.empty())
    FirstDegradeReason = S.FirstDegradeReason;
  std::copy(std::begin(S.HeapLiveObjects), std::end(S.HeapLiveObjects),
            HeapLiveObjects);
  std::copy(std::begin(S.HeapHighWaterBytes), std::end(S.HeapHighWaterBytes),
            HeapHighWaterBytes);
  return *this;
}

void InvocationStats::addWorker(const WorkerStats &W) {
#define PRIVATEER_STAT_FOLD(Name, Combine, Group, Key, Who)                    \
  PRIVATEER_STAT_IF_##Who(stats::combine##Combine(Name, W.Name);)
  PRIVATEER_STATS_COUNTERS(PRIVATEER_STAT_FOLD)
  PRIVATEER_STATS_SECONDS(PRIVATEER_STAT_FOLD)
#undef PRIVATEER_STAT_FOLD
}

void privateer::mirrorCounters(const RuntimeCounters &C) {
  StatisticRegistry &Reg = StatisticRegistry::instance();
#define PRIVATEER_STAT_MIRROR(Name, Combine, Group, Key, Who)                  \
  stats::combine##Combine(Reg.counter(Group, Key), C.Name);
  PRIVATEER_STATS_COUNTERS(PRIVATEER_STAT_MIRROR)
#undef PRIVATEER_STAT_MIRROR
}

void privateer::mirrorStats(const InvocationStats &S) {
  mirrorCounters(S);
  StatisticRegistry &Reg = StatisticRegistry::instance();
#define PRIVATEER_STAT_MIRROR(Name, Combine, Group, Key, Who)                  \
  stats::combine##Combine(Reg.real(Group, Key), S.Name);
  PRIVATEER_STATS_SECONDS(PRIVATEER_STAT_MIRROR)
#undef PRIVATEER_STAT_MIRROR
}

Runtime &Runtime::get() {
  static Runtime TheRuntime;
  return TheRuntime;
}

Runtime::~Runtime() {
  shutdown();
  delete[] LocalDepRings;
  LocalDepRings = nullptr;
  LocalDepChanCount = 0;
  DepRings = nullptr;
  DepChanCount = 0;
}

void Runtime::initialize(const RuntimeConfig &C) {
  assert(!Initialized && "runtime already initialized");
  Config = C;
  // Covering switch, no default: adding a HeapKind without a size here is
  // a compile error (-Wswitch), not a silently zero-byte heap.
  auto SizeOf = [&](HeapKind K) -> size_t {
    switch (K) {
    case HeapKind::ReadOnly:
      return C.ReadOnlyBytes;
    case HeapKind::Private:
      return C.PrivateBytes;
    case HeapKind::Redux:
      return C.ReduxBytes;
    case HeapKind::ShortLived:
      return C.ShortLivedBytes;
    case HeapKind::Unrestricted:
      return C.UnrestrictedBytes;
    }
    reportFatalError("unknown heap kind in initialize()");
  };
  // Heaps parked by an earlier shutdown are reused (SharedHeap::open).  The
  // shadow is only written below the private heap's high water; read it
  // before the private allocator starts over.
  SharedHeap &Priv = heap(HeapKind::Private);
  size_t ShadowDirty = Priv.isCreated() ? Priv.highWater() : 0;
  for (unsigned I = 0; I < kNumHeapKinds; ++I) {
    HeapKind K = static_cast<HeapKind>(I);
    Heaps[I].open(heapBase(K), SizeOf(K), /*WithAllocator=*/true,
                  Heaps[I].isCreated() ? Heaps[I].highWater() : 0);
  }
  // "the runtime also creates a shadow heap ... which has the same size as
  // the private heap" (§5.1).
  Shadow.open(shadowHeapBase(), C.PrivateBytes, /*WithAllocator=*/false,
              ShadowDirty);
  Mode = ExecMode::Sequential;
  Initialized = true;
}

void Runtime::shutdown() {
  if (!Initialized)
    return;
  // A traced session gets one final serialization, so events recorded
  // after the last invocation's own flush are not lost.
  if (trace::Collector::instance().enabled()) {
    std::string Err;
    trace::Collector::instance().flush(Err);
  }
  // The heaps stay mapped (parked): the next initialize in this process
  // reuses them instead of paying for six memfds, mmaps and munmaps.
  // Their pages are freed there, not here; freeing them here measured as
  // slow as unmapping (DESIGN.md §7).
  Redux.clear();
  Initialized = false;
}

SharedHeap &Runtime::heap(HeapKind K) {
  return Heaps[static_cast<unsigned>(K)];
}

void *Runtime::heapAlloc(size_t Bytes, HeapKind K) {
  assert(Initialized && "runtime not initialized");
  ++StatisticRegistry::instance().counter("heap-alloc", heapKindName(K));
  void *P = heap(K).allocate(Bytes);
  if (!P)
    reportFatalError(std::string("logical heap exhausted: ") +
                     heapKindName(K));
  assert(addressInHeap(reinterpret_cast<uint64_t>(P), K) &&
         "allocated pointer lost its heap tag");
  return P;
}

void Runtime::heapDealloc(void *P, HeapKind K) {
  assert(Initialized && "runtime not initialized");
  assert(addressInHeap(reinterpret_cast<uint64_t>(P), K) &&
         "pointer freed into the wrong logical heap");
  // A worker's slot partials are laid out by the registry it forked with.
  if (K == HeapKind::Redux && Redux.unregisterObject(P) &&
      Mode == ExecMode::SpeculativeWorker)
    misspecAbort("reduction object freed inside the parallel loop");
  heap(K).deallocate(P);
}

void Runtime::registerReduction(void *P, size_t Bytes, ReduxElem Elem,
                                ReduxOp Op) {
  assert(heap(HeapKind::Redux).contains(P) &&
         "reduction object outside the redux heap");
  // Merges lay out slot partials by the registry the workers forked with.
  if (Mode == ExecMode::SpeculativeWorker)
    misspecAbort("reduction object allocated inside the parallel loop");
  Redux.registerObject(P, Bytes, Elem, Op);
}

void Runtime::checkHeap(const void *P, HeapKind Expected) {
  if (Mode != ExecMode::SpeculativeWorker)
    return;
  ++LocalStats.SeparationChecks;
  if (!addressInHeap(reinterpret_cast<uint64_t>(P), Expected))
    misspecAbort("separation check failed: pointer outside assumed heap");
}

void Runtime::privateRead(const void *P, size_t Bytes) {
  if (Mode != ExecMode::SpeculativeWorker)
    return;
  uint64_t Addr = reinterpret_cast<uint64_t>(P);
  if (!addressInHeap(Addr, HeapKind::Private))
    misspecAbort("private_read of a pointer outside the private heap");
  privateReadTagged(Addr, Bytes);
}

void Runtime::privateReadTagged(uint64_t Addr, size_t Bytes) {
  // No per-call timing here: the check must stay a handful of
  // instructions, as in the paper.  Costs are attributed through call and
  // byte counters priced by perfmodel calibration (Figure 8).
  ++LocalStats.PrivateReadCalls;
  LocalStats.PrivateReadBytes += Bytes;
  // Dirty-range tracking: one shift+OR on the already-computed heap
  // offset; checkpoint merges fold only the chunks marked here.
  markDirtyChunks(DirtyMask.data(), DirtyChunkLimit,
                  Addr - heap(HeapKind::Private).base(), Bytes);
  uint8_t *Meta = reinterpret_cast<uint8_t *>(shadowAddress(Addr));
  if (!shadow::applyReadRange(Meta, Bytes, CurTs))
    misspecAbort("privacy violation: read of a value written in an "
                 "earlier iteration");
}

void Runtime::privateWrite(const void *P, size_t Bytes) {
  if (Mode != ExecMode::SpeculativeWorker)
    return;
  uint64_t Addr = reinterpret_cast<uint64_t>(P);
  if (!addressInHeap(Addr, HeapKind::Private))
    misspecAbort("private_write of a pointer outside the private heap");
  privateWriteTagged(Addr, Bytes);
}

void Runtime::privateWriteTagged(uint64_t Addr, size_t Bytes) {
  ++LocalStats.PrivateWriteCalls;
  LocalStats.PrivateWriteBytes += Bytes;
  markDirtyChunks(DirtyMask.data(), DirtyChunkLimit,
                  Addr - heap(HeapKind::Private).base(), Bytes);
  uint8_t *Meta = reinterpret_cast<uint8_t *>(shadowAddress(Addr));
  if (!shadow::applyWriteRange(Meta, Bytes, CurTs))
    misspecAbort("privacy violation: overwrite of a byte previously read "
                 "as live-in (conservative)");
}

void Runtime::speculateTrue(bool Cond, const char *What) {
  if (Mode != ExecMode::SpeculativeWorker)
    return;
  if (!Cond)
    misspecAbort(What);
}

void Runtime::deferPrintf(const char *Fmt, ...) {
  char Buf[4096];
  va_list Args;
  va_start(Args, Fmt);
  int Len = std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  if (Len < 0)
    return;
  size_t N = std::min(static_cast<size_t>(Len), sizeof(Buf) - 1);
  if (Mode == ExecMode::SpeculativeWorker) {
    PendingIo.push_back(IoRecord{CurIter, IoSequence++, std::string(Buf, N)});
    return;
  }
  if (Mode == ExecMode::NonSpeculativeWorker) {
    // DOALL-only workers bypass stdio buffering: the process exits with
    // _exit() and must not lose or duplicate buffered output.
    [[maybe_unused]] ssize_t Rc =
        write(fileno(SeqOut ? SeqOut : stdout), Buf, N);
    return;
  }
  std::FILE *Out = SeqOut ? SeqOut : stdout;
  std::fwrite(Buf, 1, N, Out);
}

void Runtime::runSequential(uint64_t Begin, uint64_t End,
                            const IterationFn &Body) {
  assert(Mode == ExecMode::Sequential && "nested execution modes");
  for (uint64_t I = Begin; I < End; ++I) {
    Body(I);
    // Recycle the short-lived arena exactly as the sequential program's
    // allocator would once everything allocated this iteration was freed.
    SharedHeap &SL = heap(HeapKind::ShortLived);
    if (SL.liveCount() == 0)
      SL.resetAllocations();
  }
}

void Runtime::flushIo(std::vector<IoRecord> &Records, std::FILE *Out) {
  sortIoRecords(Records);
  std::FILE *Sink = Out ? Out : stdout;
  for (const IoRecord &R : Records)
    std::fwrite(R.Text.data(), 1, R.Text.size(), Sink);
  Records.clear();
}
