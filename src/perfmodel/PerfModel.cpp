//===- perfmodel/PerfModel.cpp --------------------------------------------===//

#include "perfmodel/PerfModel.h"

#include "runtime/Checkpoint.h"
#include "runtime/Runtime.h"
#include "runtime/ShadowMetadata.h"
#include "support/DeterministicRng.h"
#include "support/Timing.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <unistd.h>

using namespace privateer;

namespace {

/// Replica of the privateRead/privateWrite fast paths (tag test + the
/// shipping range-transition loops), used to price a check without
/// instrumenting the shipping code.
__attribute__((noinline)) bool
checkReplicaRead(uint64_t Addr, uint8_t *ShadowBase, size_t Bytes,
                 uint8_t Ts) {
  if (!addressInHeap(Addr, HeapKind::Private))
    return false;
  return shadow::applyReadRange(ShadowBase + (Addr & 0xfffff), Bytes, Ts);
}

__attribute__((noinline)) bool
checkReplicaWrite(uint64_t Addr, uint8_t *ShadowBase, size_t Bytes,
                  uint8_t Ts) {
  if (!addressInHeap(Addr, HeapKind::Private))
    return false;
  return shadow::applyWriteRange(ShadowBase + (Addr & 0xfffff), Bytes, Ts);
}

/// Times Fn(bytes) over many calls; returns seconds per call.
template <typename Fn> double timePerCall(Fn F, int Calls) {
  // Warm up, then take the best of three trials to dodge scheduler noise.
  F();
  double Best = 1e9;
  for (int Trial = 0; Trial < 3; ++Trial) {
    double T0 = cpuSeconds();
    for (int I = 0; I < Calls; ++I)
      F();
    Best = std::min(Best, (cpuSeconds() - T0) / Calls);
  }
  return Best;
}

} // namespace

MachineModel MachineModel::calibrate() {
  MachineModel M;

  // --- Check-primitive costs: solve Call + B*Byte from two sizes. -------
  std::vector<uint8_t> Shadow(1u << 20, shadow::kLiveIn);
  uint64_t Addr = heapBase(HeapKind::Private) + 64;
  uint8_t Ts = shadow::timestampFor(3, 0);
  auto Price = [&](bool IsRead) {
    auto Run = [&](size_t Bytes) {
      return timePerCall(
          [&] {
            // Write first so reads see current-timestamp bytes (no
            // misspec), mirroring steady-state program behavior.
            checkReplicaWrite(Addr, Shadow.data(), Bytes, Ts);
            if (IsRead)
              checkReplicaRead(Addr, Shadow.data(), Bytes, Ts);
          },
          200000);
    };
    double C8 = Run(8);
    double C64 = Run(64);
    double PerByte = std::max(1e-11, (C64 - C8) / 56.0);
    double PerCall = std::max(1e-10, C8 - 8 * PerByte);
    if (IsRead) {
      // The loop above ran a write+read pair; halve to approximate one.
      PerByte /= 2;
      PerCall /= 2;
    }
    return std::pair<double, double>(PerCall, PerByte);
  };
  auto [WCall, WByte] = Price(false);
  auto [RCall, RByte] = Price(true);
  M.PrivCallSec = (RCall + WCall) / 2;
  M.PrivReadByteSec = RByte;
  M.PrivWriteByteSec = WByte;

  // --- Checkpoint costs: solve Fixed + DirtyBytes*PerByte by running the
  // shipping merge+commit on a real sparse region at two dirty working
  // sets.  Region create/destroy is timed separately and subtracted: it
  // happens once per epoch, not once per period.  The merge ages the
  // shadow and clears the mask it folds, so every call re-seeds the dirty
  // chunks first, and that re-seed is timed alone and subtracted too. ----
  {
    const uint64_t Footprint = 4u << 20;
    const uint64_t Chunks = dirtyChunkCount(Footprint);
    ReductionRegistry NoRedux;
    std::vector<uint8_t> LocalShadow(Footprint, shadow::kLiveIn);
    std::vector<uint8_t> LocalPriv(Footprint, 0x5a);
    std::vector<uint8_t> MasterShadow(Footprint, shadow::kLiveIn);
    std::vector<uint8_t> MasterPriv(Footprint, 0);
    std::vector<uint64_t> Mask(dirtyMaskWords(Chunks), 0);
    CheckpointRegion::Config C;
    C.Plan = {0, 64, 64, 1}; // One slot, one worker.
    C.PrivateBytes = Footprint;
    C.ReduxBytes = 0;
    C.IoCapacity = 4096;
    MergeContext Ctx;
    Ctx.SelfPid = static_cast<uint32_t>(getpid());
    uint8_t CkTs = shadow::timestampFor(3, 0);
    auto Reseed = [&](uint64_t Dirty) {
      for (uint64_t Ch = 0; Ch < Dirty; ++Ch) {
        uint64_t Off = Ch * kDirtyChunkBytes;
        std::fill(LocalShadow.begin() + Off,
                  LocalShadow.begin() + Off + kDirtyChunkBytes, CkTs);
        markDirtyChunks(Mask.data(), Chunks, Off, kDirtyChunkBytes);
      }
    };
    auto RoundTrip = [&](uint64_t Dirty, int Calls) {
      double WithSeed = timePerCall(
          [&] {
            Reseed(Dirty);
            CheckpointRegion R;
            if (!R.create(C))
              return;
            std::vector<IoRecord> Io;
            R.workerMerge(0, LocalShadow.data(), LocalPriv.data(),
                          Mask.data(), NoRedux, Io, true, Ctx);
            R.commitSlot(0, MasterShadow.data(), MasterPriv.data(), NoRedux,
                         Io);
            R.destroy();
          },
          Calls);
      return WithSeed - timePerCall([&] { Reseed(Dirty); }, Calls);
    };
    double Create = timePerCall(
        [&] {
          CheckpointRegion R;
          if (R.create(C))
            R.destroy();
        },
        400);
    const uint64_t D1 = 8, D2 = 128;
    double T1 = RoundTrip(D1, 200);
    double T2 = RoundTrip(D2, 60);
    double Slope = std::max(
        1e-11, (T2 - T1) / (static_cast<double>((D2 - D1) * kDirtyChunkBytes)));
    double Fixed = std::max(
        1e-8, T1 - Create - static_cast<double>(D1 * kDirtyChunkBytes) * Slope);
    // The round trip runs both sides (merge then commit); halve for one.
    M.CheckpointDirtyByteSec = Slope / 2;
    M.CheckpointFixedSec = Fixed / 2;
  }

  // --- Fork/join latency from real empty epochs. -------------------------
  Runtime &Rt = Runtime::get();
  RuntimeConfig Small;
  Small.PrivateBytes = 1u << 16;
  Small.ReadOnlyBytes = 1u << 16;
  Small.ReduxBytes = 1u << 16;
  Small.ShortLivedBytes = 1u << 16;
  Small.UnrestrictedBytes = 1u << 16;
  Rt.initialize(Small);
  auto EpochWall = [&](unsigned Workers) {
    ParallelOptions Opt;
    Opt.NumWorkers = Workers;
    Opt.CheckpointPeriod = 64;
    double Best = 1e9;
    for (int Rep = 0; Rep < 3; ++Rep) {
      InvocationStats S = Rt.runParallel(Workers, Opt, [](uint64_t) {});
      Best = std::min(Best, S.WallSec);
    }
    return Best;
  };
  double W1 = EpochWall(1);
  double W4 = EpochWall(4);
  M.SpawnPerWorkerSec = std::max(1e-5, (W4 - W1) / 3.0);
  M.SpawnBaseSec = std::max(1e-5, W1 - M.SpawnPerWorkerSec);
  M.JoinBaseSec = M.SpawnBaseSec * 0.3;
  Rt.shutdown();
  return M;
}

WorkloadModel WorkloadModel::measure(Workload &W, uint64_t CheckpointPeriod,
                                     double TargetHotSec) {
  WorkloadModel Model;
  Model.Name = W.name();
  Model.Invocations = W.invocations();
  Model.Doall = W.doallOnly();

  Runtime &Rt = Runtime::get();
  double MeasuredIters = static_cast<double>(Model.Invocations) *
                         static_cast<double>(W.iterationsPerInvocation());
  Model.MeasuredIters = static_cast<uint64_t>(MeasuredIters);

  // Useful time per iteration from a plain sequential run (checks no-op).
  Rt.initialize(W.runtimeConfig());
  W.setUp();
  double SeqSec = 0;
  runWorkloadSequential(W, &SeqSec);
  W.tearDown();
  Rt.shutdown();
  Model.SeqIterSec = SeqSec / MeasuredIters;

  // Validation counts and checkpoint costs from a one-worker speculative
  // run.
  Rt.initialize(W.runtimeConfig());
  W.setUp();
  ParallelOptions Opt;
  Opt.NumWorkers = 1;
  Opt.CheckpointPeriod = CheckpointPeriod;
  InvocationStats S;
  runWorkloadParallel(W, Opt, &S);
  W.tearDown();
  Rt.shutdown();

  Model.PrivReadCallsPerIter = S.PrivateReadCalls / MeasuredIters;
  Model.PrivReadBytesPerIter = S.PrivateReadBytes / MeasuredIters;
  Model.PrivWriteCallsPerIter = S.PrivateWriteCalls / MeasuredIters;
  Model.PrivWriteBytesPerIter = S.PrivateWriteBytes / MeasuredIters;
  double Periods = std::max<double>(1.0, static_cast<double>(S.Checkpoints));
  Model.MergeSecPerPeriod = S.CheckpointSec / Periods;
  // The main process's ordered commit scans the same byte ranges the
  // worker-side merge does; model it as an equal cost.
  Model.CommitSecPerPeriod = Model.MergeSecPerPeriod;
  // Dirty-chunk telemetry keys the checkpoint cost term on the period's
  // touched working set.  The runtime counters sum the merge-side and
  // commit-side walks over the same chunks, so halve for one side.
  Model.DirtyBytesPerPeriod =
      static_cast<double>(S.CheckpointBytesScanned + S.CheckpointBytesSkipped) /
      (2.0 * Periods);
  Model.DirtyChunksPerPeriod =
      static_cast<double>(S.CheckpointDirtyChunks) / (2.0 * Periods);
  Model.FootprintBytes = S.PrivateFootprintBytes;

  // Reference-input scaling: replay the measured iteration mix until the
  // hot loop lasts ~TargetHotSec in total, as the paper's ref inputs do.
  double HotSec = Model.SeqIterSec * MeasuredIters;
  double Scale = std::clamp(TargetHotSec / std::max(HotSec, 1e-9), 1.0,
                            5e6);
  Model.ItersPerInvocation = static_cast<uint64_t>(
      static_cast<double>(W.iterationsPerInvocation()) * Scale);

  // Program-specific shape parameters (paper §6.1-6.2): iteration-latency
  // imbalance drives Join overhead; coverage is the Amdahl remainder.
  if (Model.Name == "alvinn") {
    Model.Coverage = 0.95;
    Model.IterCov = 0.45; // "052.alvinn ... waste[s] significant time
                          // joining their workers" (imbalance).
  } else if (Model.Name == "dijkstra") {
    Model.Coverage = 0.99;
    Model.IterCov = 0.50; // Queue work varies strongly per source.
  } else if (Model.Name == "enc-md5") {
    Model.Coverage = 0.98;
    Model.IterCov = 0.05;
  } else {
    Model.Coverage = 0.99;
    Model.IterCov = 0.10;
  }
  return Model;
}

SimBreakdown privateer::simulatePrivateer(const MachineModel &M,
                                          const WorkloadModel &W,
                                          const SimOptions &Opt) {
  SimBreakdown B;
  unsigned Workers = Opt.Workers;
  uint64_t K = std::max<uint64_t>(1, Opt.CheckpointPeriod);
  double PrivR = W.privReadSecPerIter(M);
  double PrivW = W.privWriteSecPerIter(M);
  double MergeP = W.mergeSecPerPeriod(M);
  double CommitP = W.commitSecPerPeriod(M);
  double IterCost = W.SeqIterSec + PrivR + PrivW;
  DeterministicRng Rng(Opt.Seed);

  for (uint64_t Inv = 0; Inv < W.Invocations; ++Inv) {
    uint64_t N = W.ItersPerInvocation;
    uint64_t Next = 0;
    while (Next < N) {
      // --- One fork/join epoch over [Next, N). -------------------------
      double SpawnSec = M.SpawnBaseSec + Workers * M.SpawnPerWorkerSec;
      B.SpawnJoinSec += SpawnSec * Workers; // Capacity idled while forking.

      std::vector<double> Clock(Workers, SpawnSec);
      uint64_t NumPeriods = (N - Next + K - 1) / K;
      bool Misspec = false;
      uint64_t MisspecPeriod = 0;
      uint64_t Committed = Next;
      // The runtime's commit pump: slot P's commit begins when its last
      // merge lands and the previous commit is done.
      double CommitClock = SpawnSec;

      for (uint64_t P = 0; P < NumPeriods && !Misspec; ++P) {
        uint64_t PeriodStart = Next + P * K;
        uint64_t PeriodIters = std::min(K, N - PeriodStart);

        // Does any iteration of this period misspeculate?
        if (Opt.MisspecRate > 0) {
          double PAll = std::pow(1.0 - Opt.MisspecRate,
                                 static_cast<double>(PeriodIters));
          if (Rng.nextDouble() > PAll) {
            Misspec = true;
            MisspecPeriod = P;
          }
        }

        // Workers execute their cyclic shares (with per-worker latency
        // imbalance), then serialize on the slot lock to merge.
        double SlotFree = 0;
        for (unsigned Wk = 0; Wk < Workers; ++Wk) {
          uint64_t Share = PeriodIters / Workers +
                           (Wk < PeriodIters % Workers ? 1 : 0);
          double Skew = 1.0 + W.IterCov * (2.0 * Rng.nextDouble() - 1.0);
          double Work = static_cast<double>(Share) * IterCost * Skew;
          Clock[Wk] += Work;
          B.UsefulSec +=
              static_cast<double>(Share) * W.SeqIterSec * Skew;
          B.PrivReadSec += static_cast<double>(Share) * PrivR * Skew;
          B.PrivWriteSec += static_cast<double>(Share) * PrivW * Skew;
          if (Misspec && P == MisspecPeriod)
            continue; // Squashed: no merge for the failing period.
          double MergeStart = std::max(SlotFree, Clock[Wk]);
          B.SpawnJoinSec += MergeStart - Clock[Wk]; // Lock wait is idle.
          Clock[Wk] = MergeStart + MergeP;
          SlotFree = Clock[Wk];
          B.CheckpointSec += MergeP;
        }
        if (!Misspec || P != MisspecPeriod) {
          Committed = PeriodStart + PeriodIters;
          CommitClock = std::max(CommitClock, SlotFree) + CommitP;
          B.CheckpointSec += CommitP;
        }
      }

      double Last = *std::max_element(Clock.begin(), Clock.end());
      // Straggler imbalance: capacity other workers idle while the last
      // one finishes ("Join ... imbalance among the workers").
      for (double C : Clock)
        B.SpawnJoinSec += Last - C;
      // Only the commit stream's overhang past the slowest worker stalls
      // the join; commits hidden under execution cost no worker capacity
      // (they run in the otherwise-idle main process).
      double CommitTail = std::max(0.0, CommitClock - Last);
      double EpochWall = Last + CommitTail + M.JoinBaseSec;
      B.SpawnJoinSec += (CommitTail + M.JoinBaseSec) * Workers;
      B.WallSec += EpochWall;

      if (!Misspec) {
        Next = N;
        continue;
      }

      // Recovery: sequential re-execution through the squashed period.
      ++B.Misspecs;
      uint64_t RecoveryEnd = std::min(N, Next + (MisspecPeriod + 1) * K);
      double RecoverSec =
          static_cast<double>(RecoveryEnd - Committed) * W.SeqIterSec;
      B.RecoverySec += RecoverSec;
      B.WallSec += RecoverSec;
      B.SpawnJoinSec += RecoverSec * (Workers - 1); // Others idle.
      B.UsefulSec += RecoverSec;
      Next = RecoveryEnd;
    }
  }
  return B;
}

double privateer::privateerSpeedup(const MachineModel &M,
                                   const WorkloadModel &W,
                                   const SimOptions &Opt) {
  SimBreakdown B = simulatePrivateer(M, W, Opt);
  double SeqTotal = W.totalSequentialSec();
  double SeqPart = SeqTotal - SeqTotal * W.Coverage;
  double ParallelTotal = SeqPart + B.WallSec;
  return SeqTotal / ParallelTotal;
}

double privateer::doallOnlySpeedup(const MachineModel &M,
                                   const WorkloadModel &W, unsigned Workers) {
  const DoallOnlyShape &D = W.Doall;
  if (!D.Parallelizable)
    return 1.0;
  double SeqTotal = W.totalSequentialSec();
  double ParallelPart = SeqTotal * D.ParallelFraction;
  double SpawnSec =
      (M.SpawnBaseSec + Workers * M.SpawnPerWorkerSec + M.JoinBaseSec) *
      static_cast<double>(D.Invocations);
  double ParallelTotal =
      (SeqTotal - ParallelPart) + ParallelPart / Workers + SpawnSec;
  return SeqTotal / ParallelTotal;
}
