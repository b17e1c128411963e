//===- bench/bench_runtime_micro.cpp - Runtime primitive costs -----------===//
//
// Google-benchmark microbenchmarks of the validation primitives whose
// costs drive the paper's overhead story: Table 2 shadow transitions,
// separation checks (one AND + compare), shadow-address computation (one
// OR), logical-heap allocation, checkpoint-merge scanning, and reduction
// combining.  These are the constants the perfmodel consumes indirectly
// through measured workload runs.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Lower.h"
#include "ir/IRParser.h"
#include "profiling/ProfileCollector.h"
#include "profiling/ProfileSerialization.h"
#include "runtime/Checkpoint.h"
#include "runtime/Privateer.h"
#include "runtime/ShadowMetadata.h"
#include "support/Timing.h"
#include "support/Trace.h"
#include "transform/Pipeline.h"
#include "workloads/IrPrograms.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include <unistd.h>

using namespace privateer;

namespace {

void BM_ShadowReadTransition(benchmark::State &State) {
  std::vector<uint8_t> Meta(4096, shadow::kLiveIn);
  uint8_t Ts = shadow::timestampFor(5, 0);
  for (auto _ : State) {
    for (uint8_t &M : Meta) {
      shadow::Transition T = shadow::applyRead(M, Ts);
      M = T.After;
      benchmark::DoNotOptimize(T.Misspec);
    }
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Meta.size()));
}
BENCHMARK(BM_ShadowReadTransition);

void BM_ShadowWriteTransition(benchmark::State &State) {
  std::vector<uint8_t> Meta(4096, shadow::kLiveIn);
  uint8_t Ts = shadow::timestampFor(5, 0);
  for (auto _ : State) {
    for (uint8_t &M : Meta) {
      shadow::Transition T = shadow::applyWrite(M, Ts);
      M = T.After;
      benchmark::DoNotOptimize(T.Misspec);
    }
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Meta.size()));
}
BENCHMARK(BM_ShadowWriteTransition);

void BM_SeparationCheck(benchmark::State &State) {
  uint64_t Addr = heapBase(HeapKind::Private) + 0x1000;
  for (auto _ : State) {
    for (int I = 0; I < 1024; ++I) {
      bool Ok = addressInHeap(Addr + I, HeapKind::Private);
      benchmark::DoNotOptimize(Ok);
    }
  }
  State.SetItemsProcessed(State.iterations() * 1024);
}
BENCHMARK(BM_SeparationCheck);

void BM_ShadowAddressComputation(benchmark::State &State) {
  uint64_t Addr = heapBase(HeapKind::Private) + 0x1000;
  for (auto _ : State) {
    for (int I = 0; I < 1024; ++I) {
      uint64_t S = shadowAddress(Addr + I);
      benchmark::DoNotOptimize(S);
    }
  }
  State.SetItemsProcessed(State.iterations() * 1024);
}
BENCHMARK(BM_ShadowAddressComputation);

void BM_HeapAllocFree(benchmark::State &State) {
  Runtime &Rt = Runtime::get();
  for (auto _ : State) {
    void *P = Rt.heapAlloc(64, HeapKind::ShortLived);
    benchmark::DoNotOptimize(P);
    Rt.heapDealloc(P, HeapKind::ShortLived);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_HeapAllocFree);

// A check site outside any invocation, as a hand-privatized body runs
// sequentially: the facade's inline mode test and nothing else.
void BM_PrivateReadSequential(benchmark::State &State) {
  void *P = h_alloc(64, HeapKind::Private);
  for (auto _ : State) {
    private_read(P, sizeof(int));
    benchmark::ClobberMemory(); // Reload the mode, as a body's stores would.
  }
  h_dealloc(P, HeapKind::Private);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_PrivateReadSequential);

// dijkstra's relaxation scan in a speculative worker: a 512-byte
// private_read of bytes the iteration already wrote, so every shadow byte
// holds the current timestamp.  Each benchmark iteration forks one W=1
// invocation whose body times kReads such reads and commits their mean to
// the private heap; the reported time is nanoseconds per private_read.
void BM_PrivateRead512Current(benchmark::State &State) {
  constexpr int kReads = 4096;
  constexpr size_t kBytes = 512;
  void *Buf = h_alloc(kBytes, HeapKind::Private);
  auto *MeanNs =
      static_cast<double *>(h_alloc(sizeof(double), HeapKind::Private));
  ParallelOptions Opt;
  Opt.NumWorkers = 1;
  for (auto _ : State) {
    Runtime::get().runParallel(1, Opt, [&](uint64_t) {
      private_write(Buf, kBytes);
      uint64_t T0 = monotonicNanos();
      for (int R = 0; R < kReads; ++R) {
        private_read(Buf, kBytes);
        benchmark::ClobberMemory();
      }
      double Ns = static_cast<double>(monotonicNanos() - T0) / kReads;
      private_write(MeanNs, sizeof(double));
      *MeanNs = Ns;
    });
    State.SetIterationTime(*MeanNs * 1e-9);
  }
  h_dealloc(MeanNs, HeapKind::Private);
  h_dealloc(Buf, HeapKind::Private);
  State.SetBytesProcessed(State.iterations() * static_cast<int64_t>(kBytes));
}
// Fixed iterations: one fork each, far longer than the time it reports.
BENCHMARK(BM_PrivateRead512Current)->Iterations(40)->UseManualTime();

void BM_CheckpointMetaScan(benchmark::State &State) {
  // The worker-merge scan over shadow bytes (codes >= 2 are interesting).
  std::vector<uint8_t> Meta(1u << 20, shadow::kLiveIn);
  for (size_t I = 0; I < Meta.size(); I += 97)
    Meta[I] = shadow::timestampFor(3, 0);
  for (auto _ : State) {
    uint64_t Hot = 0;
    for (uint8_t M : Meta)
      Hot += M >= shadow::kReadLiveIn;
    benchmark::DoNotOptimize(Hot);
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Meta.size()));
}
BENCHMARK(BM_CheckpointMetaScan);

void BM_ReductionCombine(benchmark::State &State) {
  Runtime &Rt = Runtime::get();
  constexpr size_t N = 4096;
  auto *A = static_cast<int64_t *>(
      Rt.heapAlloc(N * sizeof(int64_t), HeapKind::Redux));
  std::vector<int64_t> B(N, 3);
  ReductionRegistry Reg;
  Reg.registerObject(A, N * sizeof(int64_t), ReduxElem::I64, ReduxOp::Add);
  for (auto _ : State)
    Reg.commitFrom(reinterpret_cast<const uint8_t *>(B.data()));
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(N * sizeof(int64_t)));
  Rt.heapDealloc(A, HeapKind::Redux);
}
BENCHMARK(BM_ReductionCombine);

void BM_TraceRingPush(benchmark::State &State) {
  // The cost a worker pays per traced event on its fast path: one bounds
  // check, one 32-byte POD store, one release cursor bump.  Drain in
  // capacity-sized batches outside the timed pushes' steady state so the
  // ring never saturates into the drop path.
  static trace::Ring R; // 64 KiB of ring: keep it off the stack.
  trace::Event E = trace::makeEvent(trace::Kind::Heartbeat, 1, 123456789, 42,
                                    7, 3);
  uint64_t Pushed = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(R.push(E));
    if (++Pushed % trace::kRingCapacity == 0)
      R.drain([](const trace::Event &) {});
  }
  R.drain([](const trace::Event &) {});
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_TraceRingPush);

void BM_TraceRingPushOverflow(benchmark::State &State) {
  // The saturated path — a worker far ahead of the consumer: the push
  // degenerates to one failed bounds check plus a relaxed drop count,
  // which is why tracing can never stall a worker.
  static trace::Ring R;
  trace::Event E = trace::makeEvent(trace::Kind::Heartbeat, 1, 123456789, 42,
                                    7, 3);
  while (R.push(E))
    ;
  for (auto _ : State)
    benchmark::DoNotOptimize(R.push(E));
  R.drain([](const trace::Event &) {});
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_TraceRingPushOverflow);

// ---- Sparse vs dense checkpoint merge+commit ---------------------------
//
// The acceptance scenario of the sparse-slot re-layout: a 16 MiB private
// heap of which only a fraction of the 4 KiB chunks is touched per period.
// The sparse path runs the shipping workerMerge + commitSlot over a real
// CheckpointRegion; the dense baseline replicates the pre-sparse code's
// full-footprint byte loops (two dense planes, three footprint walks).

constexpr uint64_t kCkptFootprint = 16u << 20;

struct CkptBuffers {
  std::vector<uint8_t> LocalShadow, LocalPriv, MasterShadow, MasterPriv;
  uint64_t Chunks;
  std::vector<uint64_t> Mask;
  std::vector<uint64_t> DirtyOffsets;
  CkptBuffers()
      : LocalShadow(kCkptFootprint, shadow::kLiveIn),
        LocalPriv(kCkptFootprint, 0x5a),
        MasterShadow(kCkptFootprint, shadow::kLiveIn),
        MasterPriv(kCkptFootprint, 0), Chunks(dirtyChunkCount(kCkptFootprint)),
        Mask(dirtyMaskWords(dirtyChunkCount(kCkptFootprint)), 0) {}

  /// Marks \p Dirty chunks fully written, spread evenly over the footprint.
  void setDirty(uint64_t Dirty) {
    std::fill(LocalShadow.begin(), LocalShadow.end(), shadow::kLiveIn);
    std::fill(Mask.begin(), Mask.end(), 0);
    DirtyOffsets.clear();
    uint64_t Step = std::max<uint64_t>(1, Chunks / std::max<uint64_t>(1, Dirty));
    for (uint64_t C = 0; C < Chunks && DirtyOffsets.size() < Dirty; C += Step)
      DirtyOffsets.push_back(C * kDirtyChunkBytes);
    reseed();
  }

  /// Rewrites the dirty chunks and their mask bits.  A merge ages the
  /// shadow it folds and clears the mask, so every timed merge needs this
  /// first; it touches only the dirty chunks.
  void reseed() {
    uint8_t Ts = shadow::timestampFor(3, 0);
    for (uint64_t Off : DirtyOffsets) {
      std::memset(LocalShadow.data() + Off, Ts, kDirtyChunkBytes);
      markDirtyChunks(Mask.data(), Chunks, Off, kDirtyChunkBytes);
    }
  }
};

/// One sparse merge+commit over a real region, in nanoseconds.  Region
/// create/destroy and the re-seed of the dirty chunks stay untimed: the
/// first happens once per epoch, not per period, and the second stands in
/// for the period's own accesses.
uint64_t sparseMergeCommitNs(CkptBuffers &B) {
  B.reseed();
  CheckpointRegion::Config C;
  C.Plan = {0, 64, 64, 1}; // One slot, one worker.
  C.PrivateBytes = kCkptFootprint;
  C.ReduxBytes = 0;
  C.IoCapacity = 4096;
  CheckpointRegion R;
  if (!R.create(C))
    return 0;
  MergeContext Ctx;
  Ctx.SelfPid = static_cast<uint32_t>(getpid());
  std::vector<IoRecord> Io;
  ReductionRegistry NoRedux;
  uint64_t T0 = monotonicNanos();
  R.workerMerge(0, B.LocalShadow.data(), B.LocalPriv.data(), B.Mask.data(),
                NoRedux, Io, true, Ctx);
  R.commitSlot(0, B.MasterShadow.data(), B.MasterPriv.data(), NoRedux, Io);
  uint64_t Ns = monotonicNanos() - T0;
  R.destroy();
  return Ns;
}

struct DenseSlot {
  std::vector<uint8_t> Meta, Values;
  DenseSlot() : Meta(kCkptFootprint, 0), Values(kCkptFootprint, 0) {}
};

/// The pre-sparse merge + two-pass commit, byte loops copied from the old
/// Checkpoint.cpp.  Slot zeroing stays untimed (slots were pre-zeroed when
/// the epoch's region was created).
uint64_t denseMergeCommitNs(CkptBuffers &B, DenseSlot &S) {
  B.reseed(); // A sparse merge before this one aged the shadow.
  std::memset(S.Meta.data(), 0, S.Meta.size());
  const uint8_t *LocalShadow = B.LocalShadow.data();
  const uint8_t *LocalPrivate = B.LocalPriv.data();
  uint8_t *Meta = S.Meta.data();
  uint8_t *Values = S.Values.data();
  uint8_t *MasterShadow = B.MasterShadow.data();
  uint8_t *MasterPrivate = B.MasterPriv.data();
  bool MisspecFlag = false;
  uint64_t T0 = monotonicNanos();
  for (uint64_t I = 0; I < kCkptFootprint; ++I) {
    uint8_t Local = LocalShadow[I];
    if (Local < shadow::kReadLiveIn)
      continue;
    uint8_t &SlotCode = Meta[I];
    if (Local == shadow::kReadLiveIn) {
      if (SlotCode == 0 || SlotCode == shadow::kReadLiveIn)
        SlotCode = shadow::kReadLiveIn;
      else
        SlotCode = kSlotConflict;
    } else {
      if (SlotCode == 0) {
        SlotCode = Local;
        Values[I] = LocalPrivate[I];
      } else if (SlotCode == shadow::kReadLiveIn ||
                 SlotCode == kSlotConflict) {
        SlotCode = kSlotConflict;
      } else if (Local >= SlotCode) {
        SlotCode = Local;
        Values[I] = LocalPrivate[I];
      }
    }
  }
  for (uint64_t I = 0; I < kCkptFootprint && !MisspecFlag; ++I) {
    uint8_t Code = Meta[I];
    if (Code == kSlotConflict)
      MisspecFlag = true;
    else if (Code == shadow::kReadLiveIn &&
             MasterShadow[I] == shadow::kOldWrite)
      MisspecFlag = true;
  }
  if (!MisspecFlag)
    for (uint64_t I = 0; I < kCkptFootprint; ++I)
      if (shadow::isTimestamp(Meta[I]) && Meta[I] != kSlotConflict) {
        MasterPrivate[I] = Values[I];
        MasterShadow[I] = shadow::kOldWrite;
      }
  uint64_t Ns = monotonicNanos() - T0;
  volatile bool Sink = MisspecFlag;
  (void)Sink;
  return Ns;
}

void BM_CheckpointSparseMergeCommit(benchmark::State &State) {
  static CkptBuffers B;
  B.setDirty(static_cast<uint64_t>(State.range(0)));
  for (auto _ : State)
    State.SetIterationTime(static_cast<double>(sparseMergeCommitNs(B)) * 1e-9);
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(State.range(0)) *
                          static_cast<int64_t>(kDirtyChunkBytes));
}
BENCHMARK(BM_CheckpointSparseMergeCommit)
    ->Arg(4)
    ->Arg(41)
    ->Arg(410)
    ->Arg(4096)
    ->UseManualTime();

void BM_CheckpointDenseMergeCommit(benchmark::State &State) {
  static CkptBuffers B;
  static DenseSlot S;
  B.setDirty(static_cast<uint64_t>(State.range(0)));
  for (auto _ : State)
    State.SetIterationTime(static_cast<double>(denseMergeCommitNs(B, S)) *
                           1e-9);
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(kCkptFootprint));
}
BENCHMARK(BM_CheckpointDenseMergeCommit)->Arg(41)->Arg(4096)->UseManualTime();

// ---- --checkpoint-report: machine-readable dirty-fraction sweep --------
//
// CI runs this mode; the exit code enforces the acceptance criterion that
// at 1% of chunks dirty the sparse merge+commit beats the dense baseline
// by at least 10x on the 16 MiB footprint.

int runCheckpointReport(const std::string &Path) {
  CkptBuffers B;
  DenseSlot S;
  struct Point {
    double Fraction;
    uint64_t Dirty;
    uint64_t SparseNs;
    uint64_t DenseNs;
  };
  const double Fractions[] = {0.0025, 0.01, 0.04, 0.16, 0.64, 1.0};
  std::vector<Point> Points;
  double Speedup1Pct = 0;
  for (double F : Fractions) {
    uint64_t Dirty = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(F * static_cast<double>(B.Chunks))));
    B.setDirty(Dirty);
    uint64_t SparseBest = ~0ULL, DenseBest = ~0ULL;
    for (int Rep = 0; Rep < 5; ++Rep) {
      SparseBest = std::min(SparseBest, sparseMergeCommitNs(B));
      DenseBest = std::min(DenseBest, denseMergeCommitNs(B, S));
    }
    double Speedup =
        static_cast<double>(DenseBest) / static_cast<double>(SparseBest);
    if (F == 0.01)
      Speedup1Pct = Speedup;
    std::printf("dirty %.4f (%llu/%llu chunks): sparse %.1f us, dense %.1f "
                "us, speedup %.1fx\n",
                F, static_cast<unsigned long long>(Dirty),
                static_cast<unsigned long long>(B.Chunks),
                static_cast<double>(SparseBest) * 1e-3,
                static_cast<double>(DenseBest) * 1e-3, Speedup);
    Points.push_back({F, Dirty, SparseBest, DenseBest});
  }
  bool Pass = Speedup1Pct >= 10.0;
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return 1;
  }
  std::fprintf(Out,
               "{\n  \"footprint_bytes\": %llu,\n  \"chunk_bytes\": %llu,\n"
               "  \"points\": [\n",
               static_cast<unsigned long long>(kCkptFootprint),
               static_cast<unsigned long long>(kDirtyChunkBytes));
  for (size_t I = 0; I < Points.size(); ++I) {
    const Point &P = Points[I];
    std::fprintf(
        Out,
        "    {\"dirty_fraction\": %.4f, \"dirty_chunks\": %llu, "
        "\"sparse_ns\": %llu, \"dense_ns\": %llu, \"speedup\": %.2f}%s\n",
        P.Fraction, static_cast<unsigned long long>(P.Dirty),
        static_cast<unsigned long long>(P.SparseNs),
        static_cast<unsigned long long>(P.DenseNs),
        static_cast<double>(P.DenseNs) / static_cast<double>(P.SparseNs),
        I + 1 < Points.size() ? "," : "");
  }
  std::fprintf(Out, "  ],\n  \"check_1pct_speedup_ge_10x\": %s\n}\n",
               Pass ? "true" : "false");
  std::fclose(Out);
  std::printf("checkpoint report written to %s; 1%% dirty speedup %.1fx "
              "(need >=10x): %s\n",
              Path.c_str(), Speedup1Pct, Pass ? "PASS" : "FAIL");
  return Pass ? 0 : 1;
}

// ---- --overlap-report: the commit pump, full runtime --------------------
//
// Measures whole invocations of the real runtime, sweeping checkpoint
// slots x workers.  The iteration body sleeps ~1.2 ms and dirties a
// private 96 KiB region, so commits have real work to do and the pump's
// commit walks hide inside the workers' sleep gaps.  CI runs this mode;
// the exit code enforces, at every point, a clean run (no misspeculation,
// one checkpoint per slot) in which the pump committed every slot but at
// most the final one while workers were still alive.

constexpr uint64_t kOvPeriod = 8;
constexpr uint64_t kOvRegionBytes = 96u << 10;
constexpr long kOvSleepUs = 1200;
/// Iteration I dirties region I % kOvRegions: every period dirties all
/// eight regions (so each slot commits the full working set), while the
/// copy-on-write faults happen only on each worker's first touch instead
/// of once per iteration.
constexpr uint64_t kOvRegions = 8;

/// One timed invocation: its stats, with the wall seconds in \p Sec.
InvocationStats overlapRun(unsigned Workers, uint64_t Slots, uint8_t *Buf,
                           double &Sec) {
  ParallelOptions Opt;
  Opt.NumWorkers = Workers;
  Opt.CheckpointPeriod = kOvPeriod;
  auto Body = [Buf](uint64_t I) {
    timespec Ts{0, kOvSleepUs * 1000};
    nanosleep(&Ts, nullptr);
    uint8_t *R = Buf + (I % kOvRegions) * kOvRegionBytes;
    private_write(R, kOvRegionBytes);
    std::memset(R, static_cast<int>(I + 1), kOvRegionBytes);
  };
  uint64_t T0 = monotonicNanos();
  InvocationStats S = Runtime::get().runParallel(Slots * kOvPeriod, Opt, Body);
  Sec = static_cast<double>(monotonicNanos() - T0) * 1e-9;
  return S;
}

int runOverlapReport(const std::string &Path) {
  RuntimeConfig C;
  C.PrivateBytes = 24u << 20;
  C.ReadOnlyBytes = 1u << 16;
  C.ReduxBytes = 1u << 16;
  C.ShortLivedBytes = 1u << 16;
  C.UnrestrictedBytes = 1u << 16;
  Runtime::get().initialize(C);
  auto *Buf = static_cast<uint8_t *>(
      h_alloc(kOvRegions * kOvRegionBytes, HeapKind::Private));

  struct Point {
    unsigned Workers;
    uint64_t Slots;
    double WallSec;
    uint64_t EagerSlots;
    double OverlapSec;
    bool Pass;
  };
  const unsigned WorkerList[] = {2, 4};
  // At most ParallelOptions::MaxSlotsPerEpoch: one epoch per invocation.
  const uint64_t SlotList[] = {2, 4, 8, 16};
  std::vector<Point> Points;
  bool Pass = true;
  for (unsigned W : WorkerList)
    for (uint64_t Slots : SlotList) {
      // Warm-up faults in the region's pages and the checkpoint mapping.
      double Sec;
      overlapRun(W, Slots, Buf, Sec);
      // Five reps; the point reports the median wall time and the rep
      // with the most pump commits.  Every rep must run clean, while one
      // rep suffices to show the pump keeping up: a descheduled main
      // process can leave a slot to the join without anything being wrong.
      std::vector<double> Secs;
      Point P{W, Slots, 0, 0, 0, true};
      for (int Rep = 0; Rep < 5; ++Rep) {
        InvocationStats S = overlapRun(W, Slots, Buf, Sec);
        if (S.Misspecs != 0 || S.Checkpoints != Slots) {
          std::fprintf(stderr,
                       "%u workers, %llu slots: %llu misspecs (%s), %llu "
                       "checkpoints\n",
                       W, static_cast<unsigned long long>(Slots),
                       static_cast<unsigned long long>(S.Misspecs),
                       S.FirstMisspecReason.c_str(),
                       static_cast<unsigned long long>(S.Checkpoints));
          P.Pass = false;
        }
        if (S.EagerSlots >= P.EagerSlots) {
          P.EagerSlots = S.EagerSlots;
          P.OverlapSec = S.OverlapSec;
        }
        Secs.push_back(Sec);
      }
      std::sort(Secs.begin(), Secs.end());
      P.WallSec = Secs[Secs.size() / 2];
      P.Pass = P.Pass && P.EagerSlots + 1 >= Slots;
      Pass = Pass && P.Pass;
      std::printf("%u workers, %2llu slots: %7.2f ms (%llu eager slots, "
                  "%.2f ms overlapped): %s\n",
                  W, static_cast<unsigned long long>(Slots), P.WallSec * 1e3,
                  static_cast<unsigned long long>(P.EagerSlots),
                  P.OverlapSec * 1e3, P.Pass ? "ok" : "FAIL");
      Points.push_back(P);
    }
  Runtime::get().shutdown();

  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return 1;
  }
  std::fprintf(Out,
               "{\n  \"period\": %llu,\n  \"region_bytes\": %llu,\n"
               "  \"iter_sleep_us\": %ld,\n  \"points\": [\n",
               static_cast<unsigned long long>(kOvPeriod),
               static_cast<unsigned long long>(kOvRegionBytes), kOvSleepUs);
  for (size_t I = 0; I < Points.size(); ++I) {
    const Point &P = Points[I];
    std::fprintf(Out,
                 "    {\"workers\": %u, \"slots\": %llu, \"wall_ms\": %.3f, "
                 "\"eager_slots\": %llu, \"overlap_ms\": %.3f, "
                 "\"pass\": %s}%s\n",
                 P.Workers, static_cast<unsigned long long>(P.Slots),
                 P.WallSec * 1e3, static_cast<unsigned long long>(P.EagerSlots),
                 P.OverlapSec * 1e3, P.Pass ? "true" : "false",
                 I + 1 < Points.size() ? "," : "");
  }
  std::fprintf(Out,
               "  ],\n  \"check_clean_and_at_most_last_slot_after_join\": "
               "%s\n}\n",
               Pass ? "true" : "false");
  std::fclose(Out);
  std::printf("overlap report written to %s: every point clean, with at "
              "most the final slot committed after join: %s\n",
              Path.c_str(), Pass ? "PASS" : "FAIL");
  return Pass ? 0 : 1;
}

// ---- --jit-report: bytecode VM vs. interpreter on Figure 6 kernels ----
//
// Measures single-worker iteration throughput of the direct-threaded
// bytecode engine against the tree-walking interpreter on the paper's
// Figure 6 IR kernels as plain sequential runs (pure engine cost: medians
// of seven runs alternating the engines, the VM's program lowered before
// the clock starts), and
// the privatized single-worker run on the VM over the sequential VM run:
// the cost of validation (checks, shadow, checkpoints) at W=1.  CI runs
// this mode; the exit code enforces the acceptance criterion that the
// geometric-mean sequential speedup is at least 10x.
//
// A second table times the §4.1 training run on both event sources, the
// interpreter and the VM, over the seven ir-cold programs at their base
// sizes, with the VM run's event counts and its cost per event over a plain
// sequential VM run of the same program (the collector plus the event
// opcodes).  Its speed is reported only; the exit code fails when the two
// profiles of a program differ after address normalization.

/// Runs behind each sequential median of the jit report.
constexpr int kJitMedianReps = 7;

double medianOf(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

struct JitKernel {
  const char *Name;
  std::string Text;
  uint64_t Iterations; ///< Hot-loop trip count, for iters/sec.
};

/// Wall seconds of one sequential run of @main (output swallowed): on
/// the VM a program lowered once beforehand, as a warm service job runs
/// it; on the interpreter the module itself.
double jitRunSec(ir::Module &M, const bytecode::BytecodeProgram *BP) {
  transform::PipelineOptions Opt;
  Opt.Engine = transform::ExecEngine::Interp;
  std::FILE *Out = std::tmpfile();
  uint64_t T0 = monotonicNanos();
  if (BP)
    transform::executeLoadedSequential(*BP, Opt, Out);
  else
    transform::executeSequential(M, Opt, Out);
  double Sec = static_cast<double>(monotonicNanos() - T0) * 1e-9;
  std::fclose(Out);
  return Sec;
}

struct TrainingPoint {
  const char *Name;
  double InterpMs = 0, VmMs = 0, SeqVmMs = 0;
  uint64_t Blocks = 0, Loads = 0, Stores = 0, Allocs = 0;
  bool Equal = false;
  uint64_t events() const { return Blocks + Loads + Stores + Allocs; }
  double nsPerEvent() const {
    return (VmMs - SeqVmMs) * 1e6 / static_cast<double>(events());
  }
};

/// Best-of-reps training runs of @main on both engines and plain VM runs,
/// the VM run's event counts, and whether the two engines' normalized
/// profiles agree.  Null name on a trap.
TrainingPoint jitTrainingPoint(const char *Name, const std::string &Text,
                               int Reps) {
  TrainingPoint P{Name};
  std::string Err;
  auto M = ir::parseModule(Text, Err);
  if (!M) {
    std::fprintf(stderr, "jit report: %s does not parse: %s\n", Name,
                 Err.c_str());
    return TrainingPoint{nullptr};
  }
  analysis::FunctionAnalyses FA(*M);
  std::string Profiles[2];
  for (ExecEngine Engine : {ExecEngine::Interp, ExecEngine::Bytecode}) {
    double Best = 1e18;
    for (int R = 0; R < Reps; ++R) {
      profiling::TrainingRun Run = profiling::runTrainingProfile(
          *M, FA, "main", {}, transform::PipelineOptions().ProfileBudget,
          Engine);
      if (!Run.Trap.empty()) {
        std::fprintf(stderr, "jit report: training %s on %s: %s\n", Name,
                     execEngineName(Engine), Run.Trap.c_str());
        return TrainingPoint{nullptr};
      }
      Best = std::min(Best, Run.WallMs);
      Profiles[Engine == ExecEngine::Bytecode] =
          profiling::normalizedProfile(Run.Prof, *M);
      P.Blocks = Run.Blocks;
      P.Loads = Run.Loads;
      P.Stores = Run.Stores;
      P.Allocs = Run.Allocs;
    }
    (Engine == ExecEngine::Interp ? P.InterpMs : P.VmMs) = Best;
  }
  auto BP = bytecode::lowerModule(*M, {});
  std::vector<double> VmSecs;
  for (int R = 0; R < kJitMedianReps; ++R)
    VmSecs.push_back(jitRunSec(*M, BP.get()));
  P.SeqVmMs = medianOf(VmSecs) * 1e3;
  P.Equal = Profiles[0] == Profiles[1];
  return P;
}

int runJitReport(const std::string &Path) {
  JitKernel Kernels[] = {
      {"dijkstra", dijkstraIrText(40), 40},
      {"redsum", reductionSumIrText(40000), 40000},
      {"fppricing", fpPricingIrText(12000), 12000},
  };
  const int Reps = 3;

  struct Point {
    const char *Name;
    uint64_t Iterations;
    /// Medians of kJitMedianReps alternating runs.
    double InterpSec, BytecodeSec;
    double PrivBytecodeSec; ///< privatized W=1 on the VM
  };
  std::vector<Point> Points;
  double LogSum = 0;
  for (JitKernel &K : Kernels) {
    std::string Err;
    auto M = ir::parseModule(K.Text, Err);
    if (!M) {
      std::fprintf(stderr, "jit report: %s does not parse: %s\n", K.Name,
                   Err.c_str());
      return 1;
    }

    Point P{K.Name, K.Iterations, 0, 0, 0};
    // Alternate the engines rep by rep so host drift hits both alike.
    auto BP = bytecode::lowerModule(*M, {});
    std::vector<double> InterpSecs, VmSecs;
    for (int Rep = 0; Rep < kJitMedianReps; ++Rep) {
      InterpSecs.push_back(jitRunSec(*M, nullptr));
      VmSecs.push_back(jitRunSec(*M, BP.get()));
    }
    P.InterpSec = medianOf(InterpSecs);
    P.BytecodeSec = medianOf(VmSecs);

    // Privatized single-worker runs of a transformed copy on the VM: over
    // the sequential VM run, this is what validation (checks, shadow,
    // checkpoints) costs at W=1.
    auto MP = ir::parseModule(K.Text, Err);
    analysis::FunctionAnalyses FA(*MP);
    transform::PipelineOptions POpt;
    std::FILE *Sink = std::tmpfile();
    Runtime::get().setSequentialOutput(Sink);
    transform::PipelineResult R =
        transform::runPrivateerPipeline(*MP, FA, POpt);
    Runtime::get().setSequentialOutput(nullptr);
    std::fclose(Sink);
    if (!R.Transformed) {
      std::fprintf(stderr, "jit report: %s not parallelizable\n", K.Name);
      return 1;
    }
    P.PrivBytecodeSec = 1e18;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      ParallelOptions Par;
      Par.NumWorkers = 1;
      std::FILE *Out = std::tmpfile();
      uint64_t T0 = monotonicNanos();
      transform::executePrivatized(*MP, FA, R.Assignment, POpt, Par,
                                   RuntimeConfig(), Out);
      double Sec = static_cast<double>(monotonicNanos() - T0) * 1e-9;
      std::fclose(Out);
      P.PrivBytecodeSec = std::min(P.PrivBytecodeSec, Sec);
    }

    double Speedup = P.InterpSec / P.BytecodeSec;
    LogSum += std::log(Speedup);
    std::printf("%-10s seq: interp %8.2f ms (%8.0f it/s), bytecode %7.2f ms "
                "(%9.0f it/s), speedup %5.1fx | privatized w1 on the VM: "
                "%.2f ms, %.2fx of sequential\n",
                K.Name, P.InterpSec * 1e3,
                static_cast<double>(K.Iterations) / P.InterpSec,
                P.BytecodeSec * 1e3,
                static_cast<double>(K.Iterations) / P.BytecodeSec, Speedup,
                P.PrivBytecodeSec * 1e3, P.PrivBytecodeSec / P.BytecodeSec);
    Points.push_back(P);
  }

  double Geomean = std::exp(LogSum / static_cast<double>(std::size(Kernels)));

  const std::pair<const char *, std::string> TrainingPrograms[] = {
      {"dijkstra", dijkstraIrText(24)},
      {"redsum", reductionSumIrText(40000)},
      {"fppricing", fpPricingIrText(8000)},
      {"histogram", histogramIrText(8000, 256, 8)},
      {"degree-count", degreeCountIrText(256, 8000, 4)},
      {"dedup", dedupIrText(8000, 64, 4)},
      {"array-recurrence", arrayRecurrenceIrText(6000, 6)},
  };
  std::vector<TrainingPoint> Training;
  double TrainInterpMs = 0, TrainVmMs = 0;
  bool ProfilesEqual = true;
  for (const auto &[Name, Text] : TrainingPrograms) {
    TrainingPoint T = jitTrainingPoint(Name, Text, Reps);
    if (!T.Name)
      return 1;
    ProfilesEqual &= T.Equal;
    std::printf("%-16s training run: interp %7.2f ms, bytecode %7.2f ms "
                "(%.2fx), profiles %s; %llu blocks, %llu loads, %llu "
                "stores, %llu allocs, %.1f ns/event over a %.2f ms VM run\n",
                T.Name, T.InterpMs, T.VmMs, T.InterpMs / T.VmMs,
                T.Equal ? "equal" : "DIFFER",
                static_cast<unsigned long long>(T.Blocks),
                static_cast<unsigned long long>(T.Loads),
                static_cast<unsigned long long>(T.Stores),
                static_cast<unsigned long long>(T.Allocs), T.nsPerEvent(),
                T.SeqVmMs);
    Training.push_back(T);
    TrainInterpMs += T.InterpMs;
    TrainVmMs += T.VmMs;
  }
  std::printf("training runs total: interp %.2f ms, bytecode %.2f ms\n",
              TrainInterpMs, TrainVmMs);

  bool Pass = Geomean >= 10.0 && ProfilesEqual;
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return 1;
  }
  std::fprintf(Out, "{\n  \"kernels\": [\n");
  for (size_t I = 0; I < Points.size(); ++I) {
    const Point &P = Points[I];
    std::fprintf(
        Out,
        "    {\"name\": \"%s\", \"iterations\": %llu, "
        "\"interp_sec\": %.6f, \"bytecode_sec\": %.6f, \"speedup\": %.2f, "
        "\"interp_iters_per_sec\": %.0f, \"bytecode_iters_per_sec\": %.0f, "
        "\"privatized_w1_bytecode_sec\": %.6f, "
        "\"privatized_w1_over_sequential\": %.3f}%s\n",
        P.Name, static_cast<unsigned long long>(P.Iterations), P.InterpSec,
        P.BytecodeSec, P.InterpSec / P.BytecodeSec,
        static_cast<double>(P.Iterations) / P.InterpSec,
        static_cast<double>(P.Iterations) / P.BytecodeSec, P.PrivBytecodeSec,
        P.PrivBytecodeSec / P.BytecodeSec, I + 1 < Points.size() ? "," : "");
  }
  std::fprintf(Out, "  ],\n  \"training_runs\": [\n");
  for (size_t I = 0; I < Training.size(); ++I) {
    const TrainingPoint &T = Training[I];
    std::fprintf(Out,
                 "    {\"name\": \"%s\", \"interp_ms\": %.3f, "
                 "\"bytecode_ms\": %.3f, \"speedup\": %.2f, "
                 "\"profiles_equal\": %s, \"blocks\": %llu, "
                 "\"loads\": %llu, \"stores\": %llu, \"allocs\": %llu, "
                 "\"plain_vm_ms\": %.3f, \"ns_per_event\": %.2f}%s\n",
                 T.Name, T.InterpMs, T.VmMs, T.InterpMs / T.VmMs,
                 T.Equal ? "true" : "false",
                 static_cast<unsigned long long>(T.Blocks),
                 static_cast<unsigned long long>(T.Loads),
                 static_cast<unsigned long long>(T.Stores),
                 static_cast<unsigned long long>(T.Allocs), T.SeqVmMs,
                 T.nsPerEvent(), I + 1 < Training.size() ? "," : "");
  }
  std::fprintf(Out,
               "  ],\n  \"geomean_speedup\": %.2f,\n"
               "  \"check_geomean_speedup_ge_10x\": %s,\n"
               "  \"check_training_profiles_equal\": %s\n}\n",
               Geomean, Geomean >= 10.0 ? "true" : "false",
               ProfilesEqual ? "true" : "false");
  std::fclose(Out);
  std::printf("jit report written to %s; geomean sequential speedup %.1fx "
              "(need >=10x), training profiles %s: %s\n",
              Path.c_str(), Geomean, ProfilesEqual ? "equal" : "DIFFER",
              Pass ? "PASS" : "FAIL");
  return Pass ? 0 : 1;
}

// ---- --doacross-report: token-chain speedup over sequential -----------
//
// The DOACROSS acceptance bench: a native distance-1 dependence chain on
// runParallel.  Every iteration sleeps ~400 us of independent work, then
// waits for its predecessor's token, folds it into a cheap nonlinear value
// and posts the result.  The report is sleep-dominated: it measures
// scheduling (how much of the independent work the token hand-offs let
// overlap), not compute, so it says nothing about core count.  Sequential
// execution pays every sleep in turn; W cyclic workers sleep side by side
// and serialize only on the chain.  CI runs this mode; the exit code
// enforces the acceptance criterion that 4 workers reach at least a 1.5x
// speedup, with zero misspeculations and output identical to the
// sequential chain.

constexpr uint64_t kDoIters = 256;
constexpr long kIterSleepUs = 400;

/// The carried computation: cheap, nonlinear, and dependent on every
/// earlier iteration so a scheduling bug cannot cancel out.
uint64_t doChainValue(uint64_t Prev, uint64_t I) {
  return (Prev * 2862933555777941757ULL + I * 3 + 1) ^ (Prev >> 7);
}

void doIterSleep() {
  timespec Ts{0, kIterSleepUs * 1000};
  nanosleep(&Ts, nullptr);
}

int runDoacrossReport(const std::string &Path) {
  RuntimeConfig C;
  C.PrivateBytes = 1u << 20;
  C.ReadOnlyBytes = 1u << 16;
  C.ReduxBytes = 1u << 16;
  C.ShortLivedBytes = 1u << 16;
  C.UnrestrictedBytes = 1u << 16;
  Runtime &Rt = Runtime::get();
  Rt.initialize(C);
  auto *Out = static_cast<uint64_t *>(
      h_alloc(kDoIters * sizeof(uint64_t), HeapKind::Private));
  const long NProc = sysconf(_SC_NPROCESSORS_ONLN);

  // Sequential baseline, also the ground truth the committed output of
  // every parallel run must match.
  std::vector<uint64_t> Expected(kDoIters);
  std::vector<double> SeqSecs;
  const int Reps = 3;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    uint64_t T0 = monotonicNanos();
    uint64_t V = 0;
    for (uint64_t I = 0; I < kDoIters; ++I) {
      doIterSleep();
      Expected[I] = V = doChainValue(V, I);
    }
    SeqSecs.push_back(static_cast<double>(monotonicNanos() - T0) * 1e-9);
  }
  const double SeqSec = medianOf(SeqSecs);

  IterationFn Body = [&Rt, Out](uint64_t I) {
    doIterSleep();
    uint64_t V = doChainValue(I ? Rt.waitDep(I - 1, 0) : 0, I);
    Rt.postDep(I, 0, V);
    private_write(&Out[I], sizeof(uint64_t));
    Out[I] = V;
  };

  struct Point {
    unsigned Workers;
    double ParSec;
    InvocationStats Best;
  };
  std::vector<Point> Points;
  double KeySpeedup = 0;
  for (unsigned W : {2u, 4u}) {
    ParallelOptions Opt;
    Opt.NumWorkers = W;
    Opt.CheckpointPeriod = 8;
    Opt.NumDepChannels = 1;
    std::vector<double> ParSecs;
    InvocationStats Best;
    double ParMin = 1e18;
    // One untimed warm-up run faults in the heaps and control block.
    Rt.runParallel(kDoIters, Opt, Body);
    for (int Rep = 0; Rep < Reps; ++Rep) {
      std::fill(Out, Out + kDoIters, 0);
      uint64_t T0 = monotonicNanos();
      InvocationStats St = Rt.runParallel(kDoIters, Opt, Body);
      double Sec = static_cast<double>(monotonicNanos() - T0) * 1e-9;
      if (St.Misspecs != 0) {
        std::fprintf(stderr, "doacross bench misspeculated (%u workers): %s\n",
                     W, St.FirstMisspecReason.c_str());
        return 1;
      }
      for (uint64_t I = 0; I < kDoIters; ++I)
        if (Out[I] != Expected[I]) {
          std::fprintf(stderr,
                       "doacross bench diverged at iteration %llu "
                       "(%u workers)\n",
                       static_cast<unsigned long long>(I), W);
          return 1;
        }
      if (Sec < ParMin) {
        ParMin = Sec;
        Best = St;
      }
      ParSecs.push_back(Sec);
    }
    double ParSec = medianOf(ParSecs);
    double Speedup = SeqSec / ParSec;
    if (W == 4)
      KeySpeedup = Speedup;
    std::printf("W=%u (nproc %ld, sleep-dominated): sequential %7.2f ms, "
                "doacross %7.2f ms, speedup %.2fx (%llu epochs, %llu posts, "
                "%llu waits)\n",
                W, NProc, SeqSec * 1e3, ParSec * 1e3, Speedup,
                static_cast<unsigned long long>(Best.Epochs),
                static_cast<unsigned long long>(Best.DepPosts),
                static_cast<unsigned long long>(Best.DepWaits));
    Points.push_back({W, ParSec, Best});
  }
  Rt.shutdown();

  bool Pass = KeySpeedup >= 1.5;
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return 1;
  }
  std::fprintf(F,
               "{\n  \"iterations\": %llu,\n  \"iter_sleep_us\": %ld,\n"
               "  \"sleep_dominated\": true,\n  \"nproc\": %ld,\n"
               "  \"seq_sec\": %.6f,\n  \"points\": [\n",
               static_cast<unsigned long long>(kDoIters), kIterSleepUs, NProc,
               SeqSec);
  for (size_t I = 0; I < Points.size(); ++I) {
    const Point &P = Points[I];
    std::fprintf(F,
                 "    {\"workers\": %u, \"doacross_sec\": %.6f, "
                 "\"speedup\": %.3f, \"epochs\": %llu, \"misspecs\": %llu, "
                 "\"dep_posts\": %llu, \"dep_waits\": %llu}%s\n",
                 P.Workers, P.ParSec, SeqSec / P.ParSec,
                 static_cast<unsigned long long>(P.Best.Epochs),
                 static_cast<unsigned long long>(P.Best.Misspecs),
                 static_cast<unsigned long long>(P.Best.DepPosts),
                 static_cast<unsigned long long>(P.Best.DepWaits),
                 I + 1 < Points.size() ? "," : "");
  }
  std::fprintf(F, "  ],\n  \"check_4worker_speedup_ge_1_5\": %s\n}\n",
               Pass ? "true" : "false");
  std::fclose(F);
  std::printf("doacross report written to %s; 4-worker doacross speedup "
              "%.2fx (need >=1.5x): %s\n",
              Path.c_str(), KeySpeedup, Pass ? "PASS" : "FAIL");
  return Pass ? 0 : 1;
}

// ---- --commutative-report: reduction-heap A/B gate on irregular updates --
//
// The acceptance bench for commutative updates, in two halves.
//
// Classification half: the irregular histogram and degree-count programs
// run through the full pipeline twice, once with reduction recognition on
// (the tables go to the reduction heap, each worker updates its own copy,
// combined at commit) and once with it off (the tables privatize off the
// warmup-only training profile and pay privacy misspeculation for every
// colliding epoch).  Both arms profile the same @train entry, so the only
// difference is the recognizer.  The reduction arm's time over the
// sequential run is printed, not gated.
//
// Wall-clock half: the same A/B on the real forked runtime with native
// bodies.  As in the DOACROSS and overlap reports, each iteration sleeps a
// few hundred microseconds, so the measured win is scheduling, not
// compute, and means the same on a host of any core count (4 vCPUs where
// the figures in CHANGES.md were taken): four workers overlap their
// sleeps, while every colliding period of the fallback arm misspeculates
// and re-pays its sleeps in sequential recovery.
//
// CI runs this mode; the exit code enforces the acceptance criteria:
// zero misspeculation and byte-exact output with reductions on, nonzero
// misspeculation and no combined copy under the fallback, and at least a
// 2x wall-clock win at 4 workers.

// Wall-clock A/B parameters.  64 iterations per checkpoint period land on
// kComWallHot cells, so every period of the private-heap fallback contains
// a cross-iteration read-after-write collision by pigeonhole and
// misspeculates deterministically; the reduction arm's updates touch only
// each worker's copy and never misspeculate.
constexpr uint64_t kComWallIters = 512;
constexpr long kComWallSleepUs = 300;
constexpr uint64_t kComWallCells = 64;
constexpr uint64_t kComWallHot = 16;
constexpr int kComWallReps = 3;

/// Same LCG the IR twins hash keys with.
uint64_t comMix(uint64_t X) {
  for (int R = 0; R < 6; ++R)
    X = (X * 1103515245 + 12345) % 1000003;
  return X;
}

uint64_t comWallCell(uint64_t I, unsigned Touch) {
  return comMix(I + Touch * kComWallIters) % kComWallHot;
}

/// Sequential baseline with the same sleeps; fills \p Expected with the
/// ground-truth counter table.
double comWallSequential(unsigned Touches, std::vector<int64_t> &Expected) {
  std::vector<double> Secs;
  for (int Rep = 0; Rep < kComWallReps; ++Rep) {
    std::fill(Expected.begin(), Expected.end(), 0);
    uint64_t T0 = monotonicNanos();
    for (uint64_t I = 0; I < kComWallIters; ++I) {
      timespec Ts{0, kComWallSleepUs * 1000};
      nanosleep(&Ts, nullptr);
      for (unsigned T = 0; T < Touches; ++T)
        ++Expected[comWallCell(I, T)];
    }
    Secs.push_back(static_cast<double>(monotonicNanos() - T0) * 1e-9);
  }
  return medianOf(Secs);
}

struct ComWallArm {
  double Sec = 0;          ///< Median wall time of one run.
  uint64_t Misspecs = 0;   ///< Summed across reps (gate: 0 vs >0).
  uint64_t Folded = 0;     ///< Reduction copies combined, summed.
  bool Exact = true;       ///< Table matched the baseline in every rep.
};

/// One arm of the native A/B: the counter table is a registered reduction
/// object updated with a plain read-modify-write or, for the fallback,
/// lives in the private heap with the privacy-checked RMW the classifier
/// emits when reductions are off.
ComWallArm comWallArm(bool Reduce, unsigned Touches,
                      const std::vector<int64_t> &Expected) {
  RuntimeConfig C;
  C.PrivateBytes = 1u << 20;
  C.ReadOnlyBytes = 1u << 16;
  C.ReduxBytes = 1u << 16;
  C.ShortLivedBytes = 1u << 16;
  C.UnrestrictedBytes = 1u << 16;
  Runtime::get().initialize(C);
  auto *Tab = static_cast<int64_t *>(
      h_alloc(kComWallCells * sizeof(int64_t),
              Reduce ? HeapKind::Redux : HeapKind::Private));
  if (Reduce)
    Runtime::get().registerReduction(Tab, kComWallCells * sizeof(int64_t),
                                     ReduxElem::I64, ReduxOp::Add);
  ParallelOptions Opt;
  Opt.NumWorkers = 4;
  Opt.CheckpointPeriod = 64;
  auto Body = [Tab, Reduce, Touches](uint64_t I) {
    timespec Ts{0, kComWallSleepUs * 1000};
    nanosleep(&Ts, nullptr);
    if (Reduce)
      check_heap(Tab, HeapKind::Redux);
    for (unsigned T = 0; T < Touches; ++T) {
      int64_t *P = &Tab[comWallCell(I, T)];
      if (Reduce) {
        *P += 1;
      } else {
        private_read(P, sizeof(int64_t));
        int64_t V = *P;
        private_write(P, sizeof(int64_t));
        *P = V + 1;
      }
    }
  };
  ComWallArm A;
  std::vector<double> Secs;
  for (int Rep = 0; Rep < kComWallReps; ++Rep) {
    std::memset(Tab, 0, kComWallCells * sizeof(int64_t));
    uint64_t T0 = monotonicNanos();
    InvocationStats S = Runtime::get().runParallel(kComWallIters, Opt, Body);
    Secs.push_back(static_cast<double>(monotonicNanos() - T0) * 1e-9);
    A.Misspecs += S.Misspecs;
    A.Folded += S.ComRecordsCommitted;
    A.Exact &= std::memcmp(Tab, Expected.data(),
                           kComWallCells * sizeof(int64_t)) == 0;
  }
  Runtime::get().shutdown();
  A.Sec = medianOf(Secs);
  return A;
}

std::string readStream(std::FILE *F) {
  std::string Out;
  std::rewind(F);
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  return Out;
}

int runCommutativeReport(const std::string &Path) {
  struct Job {
    const char *Name;
    std::string Text;
  } Jobs[] = {
      {"histogram", histogramIrText(150000, 4096, 24)},
      {"degree-count", degreeCountIrText(4096, 150000, 24)},
  };

  struct Arm {
    double WallSec = 0;
    uint64_t Misspecs = 0;
    uint64_t ComRecordsCommitted = 0;
    bool Exact = false;
  };
  struct Point {
    const char *Name;
    double SeqSec = 0;
    Arm Com, Fallback;
  };
  std::vector<Point> Points;

  for (const Job &J : Jobs) {
    std::string Err;
    auto MRef = ir::parseModule(J.Text, Err);
    if (!MRef) {
      std::fprintf(stderr, "commutative report: %s does not parse: %s\n",
                   J.Name, Err.c_str());
      return 1;
    }
    Point P{J.Name};
    std::string Expected;
    {
      std::FILE *Out = std::tmpfile();
      uint64_t T0 = monotonicNanos();
      transform::executeSequential(*MRef, transform::PipelineOptions(), Out);
      P.SeqSec = static_cast<double>(monotonicNanos() - T0) * 1e-9;
      Expected = readStream(Out);
      std::fclose(Out);
    }

    for (bool Enable : {true, false}) {
      auto M = ir::parseModule(J.Text, Err);
      analysis::FunctionAnalyses FA(*M);
      transform::PipelineOptions Opt;
      Opt.EnableReductions = Enable;
      // Paper §6: profile train, evaluate ref.  The warmup-only training
      // entry keeps both arms honest: the fallback arm classifies the
      // tables private (no collision in training) and production pays.
      Opt.TrainingEntryFunction = "train";
      std::FILE *Sink = std::tmpfile();
      Runtime::get().setSequentialOutput(Sink);
      transform::PipelineResult R =
          transform::runPrivateerPipeline(*M, FA, Opt);
      Runtime::get().setSequentialOutput(nullptr);
      std::fclose(Sink);
      if (!R.Transformed) {
        std::fprintf(stderr, "commutative report: %s (%s arm) not "
                             "parallelizable: %s\n",
                     J.Name, Enable ? "commutative" : "fallback",
                     R.Log.empty() ? "" : R.Log.back().c_str());
        return 1;
      }

      ParallelOptions Par;
      Par.NumWorkers = 4;
      Par.CheckpointPeriod = 64;
      std::FILE *Out = std::tmpfile();
      uint64_t T0 = monotonicNanos();
      transform::ExecutionResult E = transform::executePrivatized(
          *M, FA, R.Assignment, Opt, Par, RuntimeConfig(), Out);
      double Sec = static_cast<double>(monotonicNanos() - T0) * 1e-9;
      std::string Got = readStream(Out);
      std::fclose(Out);

      Arm &A = Enable ? P.Com : P.Fallback;
      A.WallSec = Sec;
      A.Misspecs = E.Stats.Misspecs;
      A.ComRecordsCommitted = E.Stats.ComRecordsCommitted;
      A.Exact = Got == Expected;
    }
    Points.push_back(P);
  }

  // Wall-clock half: native bodies on the real forked runtime,
  // sleep-dominated so scheduling (not core count) decides the outcome.
  struct WallPoint {
    const char *Name;
    unsigned Touches;
    double SeqSec = 0;
    ComWallArm Com, Fallback;
  };
  WallPoint WallPoints[] = {{"histogram", 1}, {"degree-count", 2}};
  for (WallPoint &W : WallPoints) {
    std::vector<int64_t> Expected(kComWallCells, 0);
    W.SeqSec = comWallSequential(W.Touches, Expected);
    W.Com = comWallArm(true, W.Touches, Expected);
    W.Fallback = comWallArm(false, W.Touches, Expected);
  }

  bool Pass = true;
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return 1;
  }
  std::fprintf(F, "{\n  \"classification\": [\n");
  for (size_t I = 0; I < Points.size(); ++I) {
    const Point &P = Points[I];
    bool Ok = P.Com.Exact && P.Fallback.Exact && P.Com.Misspecs == 0 &&
              P.Com.ComRecordsCommitted > 0 && P.Fallback.Misspecs > 0 &&
              P.Fallback.ComRecordsCommitted == 0;
    Pass &= Ok;
    std::printf("%-13s pipeline: seq %.2f ms | commutative %.2f ms "
                "(%.2fx of seq), misspecs=%llu, combined=%llu copies | "
                "fallback %.2f ms, misspecs=%llu: %s\n",
                P.Name, P.SeqSec * 1e3, P.Com.WallSec * 1e3,
                P.SeqSec > 0 ? P.Com.WallSec / P.SeqSec : 0,
                static_cast<unsigned long long>(P.Com.Misspecs),
                static_cast<unsigned long long>(P.Com.ComRecordsCommitted),
                P.Fallback.WallSec * 1e3,
                static_cast<unsigned long long>(P.Fallback.Misspecs),
                Ok ? "ok" : "FAIL");
    std::fprintf(
        F,
        "    {\"name\": \"%s\", \"sequential_sec\": %.6f,\n"
        "     \"commutative\": {\"wall_sec\": %.6f, \"misspecs\": %llu, "
        "\"com_records_committed\": %llu, "
        "\"exact\": %s},\n"
        "     \"fallback\": {\"wall_sec\": %.6f, \"misspecs\": %llu, "
        "\"exact\": %s}}%s\n",
        P.Name, P.SeqSec, P.Com.WallSec,
        static_cast<unsigned long long>(P.Com.Misspecs),
        static_cast<unsigned long long>(P.Com.ComRecordsCommitted),
        P.Com.Exact ? "true" : "false", P.Fallback.WallSec,
        static_cast<unsigned long long>(P.Fallback.Misspecs),
        P.Fallback.Exact ? "true" : "false",
        I + 1 < Points.size() ? "," : "");
  }
  std::fprintf(F,
               "  ],\n  \"wall_clock\": {\"iterations\": %llu, "
               "\"sleep_us\": %ld, \"workers\": 4, \"points\": [\n",
               static_cast<unsigned long long>(kComWallIters), kComWallSleepUs);
  for (size_t I = 0; I < std::size(WallPoints); ++I) {
    const WallPoint &W = WallPoints[I];
    double Speedup = W.Com.Sec > 0 ? W.Fallback.Sec / W.Com.Sec : 0;
    bool Ok = W.Com.Exact && W.Fallback.Exact && W.Com.Misspecs == 0 &&
              W.Com.Folded > 0 && W.Fallback.Misspecs > 0 && Speedup >= 2.0;
    Pass &= Ok;
    std::printf("%-13s wall (4 workers): seq %.2f ms | commutative %.2f ms, "
                "misspecs=%llu, combined=%llu copies | fallback %.2f ms, "
                "misspecs=%llu | A/B speedup %.2fx: %s\n",
                W.Name, W.SeqSec * 1e3, W.Com.Sec * 1e3,
                static_cast<unsigned long long>(W.Com.Misspecs),
                static_cast<unsigned long long>(W.Com.Folded),
                W.Fallback.Sec * 1e3,
                static_cast<unsigned long long>(W.Fallback.Misspecs), Speedup,
                Ok ? "ok" : "FAIL");
    std::fprintf(
        F,
        "    {\"name\": \"%s\", \"sequential_sec\": %.6f,\n"
        "     \"commutative\": {\"wall_sec\": %.6f, \"misspecs\": %llu, "
        "\"com_records_committed\": %llu, \"exact\": %s},\n"
        "     \"fallback\": {\"wall_sec\": %.6f, \"misspecs\": %llu, "
        "\"exact\": %s},\n"
        "     \"ab_speedup\": %.3f}%s\n",
        W.Name, W.SeqSec, W.Com.Sec,
        static_cast<unsigned long long>(W.Com.Misspecs),
        static_cast<unsigned long long>(W.Com.Folded),
        W.Com.Exact ? "true" : "false", W.Fallback.Sec,
        static_cast<unsigned long long>(W.Fallback.Misspecs),
        W.Fallback.Exact ? "true" : "false", Speedup,
        I + 1 < std::size(WallPoints) ? "," : "");
  }
  std::fprintf(F,
               "  ]},\n  \"check_zero_misspec_commutative_nonzero_fallback_"
               "and_2x\": %s\n}\n",
               Pass ? "true" : "false");
  std::fclose(F);
  std::printf("commutative report written to %s: %s\n", Path.c_str(),
              Pass ? "PASS" : "FAIL");
  return Pass ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    std::string A(argv[I]);
    if (A == "--commutative-report")
      return runCommutativeReport("BENCH_commutative.json");
    if (A.rfind("--commutative-report=", 0) == 0)
      return runCommutativeReport(
          A.substr(sizeof("--commutative-report=") - 1));
    if (A == "--doacross-report")
      return runDoacrossReport("BENCH_doacross.json");
    if (A.rfind("--doacross-report=", 0) == 0)
      return runDoacrossReport(A.substr(sizeof("--doacross-report=") - 1));
    if (A == "--checkpoint-report")
      return runCheckpointReport("BENCH_checkpoint.json");
    if (A.rfind("--checkpoint-report=", 0) == 0)
      return runCheckpointReport(A.substr(sizeof("--checkpoint-report=") - 1));
    if (A == "--overlap-report")
      return runOverlapReport("BENCH_overlap.json");
    if (A.rfind("--overlap-report=", 0) == 0)
      return runOverlapReport(A.substr(sizeof("--overlap-report=") - 1));
    if (A == "--jit-report")
      return runJitReport("BENCH_jit.json");
    if (A.rfind("--jit-report=", 0) == 0)
      return runJitReport(A.substr(sizeof("--jit-report=") - 1));
  }
  RuntimeConfig C;
  C.PrivateBytes = 1u << 20;
  C.ReadOnlyBytes = 1u << 16;
  C.ReduxBytes = 1u << 20;
  C.ShortLivedBytes = 1u << 20;
  C.UnrestrictedBytes = 1u << 16;
  Runtime::get().initialize(C);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  Runtime::get().shutdown();
  return 0;
}
