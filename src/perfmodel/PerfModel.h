//===- perfmodel/PerfModel.h - Multicore execution model --------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A discrete-event model of Privateer's parallel execution on a W-core
/// shared-memory machine, standing in for the paper's 24-core Xeon X7460
/// testbed beyond the host's own cores (measured timings at W <= nproc
/// come from perfbench; see DESIGN.md substitution #2).  Its output is
/// modeled, not measured.
///
/// Calibration has two halves:
///  - per-workload *counts* (useful seconds per iteration, private
///    read/write calls and bytes per iteration, checkpoint footprint) come
///    from real sequential and single-worker speculative executions;
///  - per-primitive *costs* (Table 2 transition per byte, check-call
///    overhead, fork/join latency) come from microbenchmarks on this host.
///
/// Because the bundled synthetic inputs are orders of magnitude smaller
/// than the paper's reference inputs (whose hot loops run for minutes),
/// the model replays the measured iteration mix enough times to reach a
/// reference-scale hot-loop duration; otherwise fork latency — amortized
/// to nothing in the paper's runs — would dominate microsecond loops.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_PERFMODEL_PERFMODEL_H
#define PRIVATEER_PERFMODEL_PERFMODEL_H

#include "workloads/Workload.h"

#include <string>

namespace privateer {

/// Host-level primitive costs, independent of workload.
struct MachineModel {
  /// Wall seconds to spawn a parallel region: Spawn(W) = SpawnBaseSec +
  /// W * SpawnPerWorkerSec ("mostly determined by the latency of the
  /// operating system's implementation of fork").
  double SpawnBaseSec = 1.5e-3;
  double SpawnPerWorkerSec = 0.4e-3;
  double JoinBaseSec = 0.5e-3;
  /// Fixed overhead of one private_read/private_write call (tag test,
  /// shadow-address OR, call).
  double PrivCallSec = 5e-9;
  /// Per-byte Table 2 transition cost on read / write.
  double PrivReadByteSec = 1e-9;
  double PrivWriteByteSec = 1e-9;
  /// Checkpoint cost of one side of a period (worker merge, or the main
  /// process's ordered commit): CheckpointFixedSec + DirtyBytes *
  /// CheckpointDirtyByteSec.  DirtyBytes is the bytes of dirty 4 KiB
  /// chunks walked — since the sparse slot re-layout this tracks the
  /// period's touched working set, not the private footprint.
  double CheckpointFixedSec = 2e-6;
  double CheckpointDirtyByteSec = 0.5e-9;

  /// Measures every field with real fork/join epochs and tight loops over
  /// the shipping validation code on this host.
  static MachineModel calibrate();
};

/// Per-workload parameters measured from real executions.
struct WorkloadModel {
  std::string Name;
  uint64_t Invocations = 1;
  uint64_t ItersPerInvocation = 0; ///< After reference scaling.
  uint64_t MeasuredIters = 0;      ///< As actually executed on this host.
  /// Average seconds of *original* (useful) work per hot-loop iteration.
  double SeqIterSec = 0;
  /// Validation work per iteration (counts; priced by MachineModel).
  double PrivReadCallsPerIter = 0;
  double PrivReadBytesPerIter = 0;
  double PrivWriteCallsPerIter = 0;
  double PrivWriteBytesPerIter = 0;
  /// Checkpoint merge/commit wall cost per period as directly measured;
  /// fallback when the dirty-byte telemetry below is absent.
  double MergeSecPerPeriod = 0;
  double CommitSecPerPeriod = 0;
  /// Dirty-chunk telemetry from the measuring run: bytes of dirty chunks
  /// walked per period by one side (merge or commit), and the private
  /// footprint they are sparse against.  Zero for hand-built models.
  double DirtyBytesPerPeriod = 0;
  double DirtyChunksPerPeriod = 0;
  uint64_t FootprintBytes = 0;
  /// Coefficient of variation of iteration latency; drives the worker
  /// imbalance the paper's Join overhead reflects (§6.2).
  double IterCov = 0.05;
  /// Fraction of whole-program time inside the Privateer-parallelized
  /// loop(s); the remainder stays sequential (Amdahl term).
  double Coverage = 0.99;
  DoallOnlyShape Doall;

  /// Per-iteration validation cost under \p M.
  double privReadSecPerIter(const MachineModel &M) const {
    return PrivReadCallsPerIter * M.PrivCallSec +
           PrivReadBytesPerIter * M.PrivReadByteSec;
  }
  double privWriteSecPerIter(const MachineModel &M) const {
    return PrivWriteCallsPerIter * M.PrivCallSec +
           PrivWriteBytesPerIter * M.PrivWriteByteSec;
  }

  /// Checkpoint cost per period for one side, keyed on the measured dirty
  /// bytes when the runtime reported them; hand-built models without
  /// telemetry fall back to the directly measured wall costs.
  double mergeSecPerPeriod(const MachineModel &M) const {
    if (DirtyBytesPerPeriod > 0)
      return M.CheckpointFixedSec +
             DirtyBytesPerPeriod * M.CheckpointDirtyByteSec;
    return MergeSecPerPeriod;
  }
  double commitSecPerPeriod(const MachineModel &M) const {
    if (DirtyBytesPerPeriod > 0)
      return M.CheckpointFixedSec +
             DirtyBytesPerPeriod * M.CheckpointDirtyByteSec;
    return CommitSecPerPeriod;
  }

  /// Whole-program best-sequential seconds at model scale.
  double totalSequentialSec() const {
    double Hot = SeqIterSec * static_cast<double>(ItersPerInvocation) *
                 static_cast<double>(Invocations);
    return Hot / Coverage;
  }

  /// Builds the model by running \p W sequentially (useful time) and with
  /// one speculative worker (counts), then scales the iteration count so
  /// the simulated hot loop lasts about \p TargetHotSec — a
  /// reference-input-sized run.  The runtime must be uninitialized on
  /// entry and is left uninitialized.
  static WorkloadModel measure(Workload &W, uint64_t CheckpointPeriod = 64,
                               double TargetHotSec = 30.0);
};

struct SimOptions {
  unsigned Workers = 24;
  /// "Checkpoints are only collected and validated after a large number
  /// of iterations" (§3.2); the paper's ceiling is 253.
  uint64_t CheckpointPeriod = 200;
  /// Fraction of iterations that misspeculate (Figure 9 injection).
  double MisspecRate = 0.0;
  uint64_t Seed = 7;
};

/// Capacity accounting in the units of paper Figure 8: CPU-seconds of the
/// parallel region, normalized against Workers x wall duration.
struct SimBreakdown {
  double WallSec = 0;     ///< Parallel-region wall time (all invocations).
  double UsefulSec = 0;   ///< Original-program instructions.
  double PrivReadSec = 0; ///< Metadata updates for private reads.
  double PrivWriteSec = 0;
  double CheckpointSec = 0; ///< Collect + validate + combine.
  double SpawnJoinSec = 0;  ///< Spawn latency, imbalance, final join.
  double RecoverySec = 0;   ///< Sequential re-execution after misspec.
  uint64_t Misspecs = 0;

  double capacitySec(unsigned Workers) const {
    return WallSec * static_cast<double>(Workers);
  }
};

/// Simulates the speculative Privateer execution (Figures 6, 8, 9).
SimBreakdown simulatePrivateer(const MachineModel &M, const WorkloadModel &W,
                               const SimOptions &Opt);

/// Whole-program speedup of the Privateer execution vs best sequential.
double privateerSpeedup(const MachineModel &M, const WorkloadModel &W,
                        const SimOptions &Opt);

/// Whole-program speedup of the non-speculative DOALL-only baseline
/// (Figure 7): parallelizes only what static analysis can prove.
double doallOnlySpeedup(const MachineModel &M, const WorkloadModel &W,
                        unsigned Workers);

} // namespace privateer

#endif // PRIVATEER_PERFMODEL_PERFMODEL_H
