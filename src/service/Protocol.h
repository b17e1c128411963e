//===- service/Protocol.h - privateer-served wire protocol ------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed binary protocol spoken between `privateer-served`
/// and its clients over a Unix-domain socket, and between the daemon and
/// its executive processes over private socketpairs.
///
/// Frame layout (everything little-endian):
///
///   +----------------+-------------+------------------------+
///   | u32 PayloadLen  | u8 MsgType | PayloadLen-1 body bytes |
///   +----------------+-------------+------------------------+
///
/// PayloadLen counts the type byte plus the body, so a bare control frame
/// (Ack, Drain, ...) has PayloadLen == 1.  A frame whose PayloadLen is 0
/// or exceeds the receiver's limit (kMaxFrameBytes by default) is a
/// protocol violation: the daemon answers with one best-effort Error
/// frame, closes that connection, and keeps serving every other client.
///
/// Bodies are flat field sequences (no tags): u8/u32/u64/f64 fixed-width
/// scalars and u32-length-prefixed strings, decoded by a bounds-checked
/// cursor so truncated or oversized frames fail cleanly instead of
/// reading out of bounds.  A version byte leads every SubmitJob/JobResult
/// body; only kProtocolVersion decodes, since every client lives in this
/// repository.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_SERVICE_PROTOCOL_H
#define PRIVATEER_SERVICE_PROTOCOL_H

#include "runtime/StatsSchema.h"

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace privateer {
namespace service {

inline constexpr uint8_t kProtocolVersion = 9;
/// Default ceiling on one frame (module texts and job output both ride in
/// frames; 64 MiB is far above any bundled program).
inline constexpr size_t kMaxFrameBytes = 64u << 20;
/// Sentinel for "no forced executive exit" in JobRequest fault knobs.
inline constexpr uint32_t kNoFaultExit = ~0u;

enum class MsgType : uint8_t {
  SubmitJob = 1,   ///< client -> daemon: module text + execution knobs
  JobResult = 2,   ///< daemon -> client (and executive -> daemon)
  StatusRequest = 3, ///< client -> daemon
  StatusReply = 4,   ///< daemon -> client: service counters as JSON
  Drain = 5,       ///< client -> daemon: stop accepting, finish the queue
  Shutdown = 6,    ///< client -> daemon: cancel everything and exit
  Ack = 7,         ///< daemon -> client: Drain/Shutdown accepted
  Error = 8,       ///< daemon -> client: protocol violation, closing
  ExecAssign = 11, ///< daemon -> executive: run this job (+ image fds)
};

/// How the daemon should execute the submitted module.
enum class JobMode : uint8_t {
  Speculative = 0, ///< full pipeline result run under the parallel runtime
  Sequential = 1,  ///< plain sequential run on the VM (the baseline)
};

/// Terminal state of one job, carried in JobResult.
enum class JobStatus : uint8_t {
  Ok = 0,
  Rejected = 1,          ///< admission control: queue full (backpressure)
  ParseError = 2,        ///< module text did not parse / verify, or its
                         ///< training run trapped (division by zero,
                         ///< instruction budget)
  NotParallelizable = 3, ///< pipeline found no speculatable loop
  Crashed = 4,           ///< executive died (signal / truncated result)
  TimedOut = 5,          ///< per-job deadline expired; executive killed
  Canceled = 6,          ///< client vanished / shutdown mid-flight
  Draining = 7,          ///< daemon is draining; resubmit elsewhere
  InternalError = 8,
  ResourceLimit = 9,     ///< rlimit / allocation failure (OOM, CPU budget)
};

const char *jobStatusName(JobStatus S);

/// Why a job failed, decoded from the executive's waitpid status plus the
/// daemon's own bookkeeping; carried in JobResult so every client sees a
/// typed cause, never just a dead socket.  Infra-class causes (see
/// isInfraFailure) are transient resource exhaustion the daemon retries
/// in-place with a degraded config; program-class causes are properties of
/// the submitted job and are final (and, for deterministic crash signals,
/// cached as negative verdicts against the program).
enum class FailureCause : uint8_t {
  None = 0,        ///< no failure (or the job never started executing)
  Deadline,        ///< daemon killed the executive group on its deadline
  ClientGone,      ///< submitting client vanished mid-job
  OutOfMemory,     ///< bad_alloc / fork or mmap ENOMEM / RLIMIT_AS
  CpuLimit,        ///< RLIMIT_CPU exhausted (SIGXCPU)
  Signal,          ///< executive killed by TermSignal
  NonzeroExit,     ///< executive exited cleanly with SupExitCode != 0
  InfraFork,       ///< daemon could not fork the executive
  ResultTruncated, ///< executive's reply was missing or unwritable
  Shutdown,        ///< daemon shut down underneath the job
};

const char *failureCauseName(FailureCause C);

/// Infra-class failures are resource exhaustion that a cheaper retry can
/// dodge (halve the workers, then go sequential); everything else is a
/// property of the program or of the caller and retrying cannot help.
inline bool isInfraFailure(FailureCause C) {
  return C == FailureCause::OutOfMemory || C == FailureCause::InfraFork ||
         C == FailureCause::ResultTruncated;
}

/// A SubmitJob body: the program plus the subset of ParallelOptions and
/// FaultPlan knobs a remote caller sets.  Defaults mirror ParallelOptions
/// so an empty request behaves like local privateer-cc; every knob not
/// carried here keeps its ParallelOptions / FaultPlan default.
struct JobRequest {
  std::string ModuleText;
  JobMode Mode = JobMode::Speculative;
  /// Scheduling strategy (mirrors privateer::Strategy): 0 = doall,
  /// 1 = doacross.  Doacross lets the pipeline's dependence-distance
  /// pre-pass rewrite provable carried dependences into token forwarding;
  /// the daemon compiles and caches each strategy separately.
  uint8_t Strat = 0;
  uint32_t NumWorkers = 4;
  /// 0 = derive from the loop (checkpointPeriodFor).
  uint64_t CheckpointPeriod = 0;
  double InjectMisspecRate = 0.0;
  uint64_t InjectSeed = 1;
  double StallTimeoutSec = 10.0;
  /// Wall-clock deadline for the whole job once it starts executing; the
  /// daemon multiplies it by timeoutScale() (PRIVATEER_TIMEOUT_SCALE) so
  /// sanitizer CI does not reap slow-but-healthy jobs.  0 = daemon default.
  double DeadlineSec = 0.0;
  /// When non-empty the executive records a runtime timeline to this path.
  std::string TracePath;

  /// Client-generated idempotency key (0 = none).  The daemon remembers
  /// the replies of recently finished keyed jobs; a resubmission carrying
  /// the same key — e.g. after a reconnect that raced the original reply —
  /// replays the remembered reply instead of executing the job twice.
  uint64_t IdempotencyKey = 0;

  // --- Per-job resource ceilings (0 = daemon default) --------------------
  /// The job's one-shot executive (and, inherited across fork, its whole
  /// worker tree) runs under these rlimits.  A request can lower but never
  /// raise the daemon's configured ceiling.
  uint64_t MaxMemoryBytes = 0; ///< RLIMIT_AS
  uint32_t MaxCpuSec = 0;      ///< RLIMIT_CPU, scaled by timeoutScale()
  uint32_t MaxOpenFiles = 0;   ///< RLIMIT_NOFILE

  // --- Fault injection (tests and bench_service) -------------------------
  // The "Supervisor" knobs act on the executive running the job.
  /// The executive raises SIGKILL on itself mid-job; the daemon must report
  /// the job Crashed and keep serving the same connection.
  bool FaultKillSupervisor = false;
  /// A targeted worker stall (FaultPlan::StallWorker and friends); drives
  /// the per-job deadline and the watchdog through the daemon.
  uint32_t FaultStallWorker = ~0u;
  uint64_t FaultStallAtIter = ~0ULL;
  double FaultStallSeconds = 3600.0;
  /// The executive raises this signal on itself before running (0 = off);
  /// drives the executive-death signal matrix.
  uint32_t FaultSupervisorSignal = 0;
  /// The executive _exit()s with this code before running (kNoFaultExit =
  /// off); exercises the clean-nonzero-exit triage path.
  uint32_t FaultSupervisorExit = kNoFaultExit;
  /// While the job's attempt ordinal is below this, the executive reports
  /// a typed out-of-memory failure without running — a deterministic way
  /// to exercise the daemon's infra-retry ladder.
  uint32_t FaultOomAttempts = 0;
  /// The executive attempts one allocation of this many bytes before
  /// running (0 = off); sized past the address space it drives the real
  /// failed-allocation -> typed-OOM path.
  uint64_t FaultAllocBytes = 0;
  /// The executive burns this much CPU time before running (0 = off); with a
  /// small MaxCpuSec it deterministically draws SIGXCPU.
  double FaultBurnCpuSec = 0.0;
};

/// A JobResult body.  The RuntimeCounters block carries every integer
/// counter of the job's invocations (zero for a sequential job).
struct JobReply : RuntimeCounters {
  JobStatus Status = JobStatus::InternalError;
  FailureCause Cause = FailureCause::None;
  uint32_t TermSignal = 0;  ///< when Cause is Signal / CpuLimit
  uint32_t SupExitCode = 0; ///< when Cause is NonzeroExit
  /// Execution attempts, counting the daemon's degraded infra retries;
  /// 1 means the first attempt answered.
  uint32_t Attempts = 1;
  /// True when this reply was replayed from the idempotency cache rather
  /// than executed.
  bool IdempotentReplay = false;
  std::string Error;
  std::string Output; ///< the program's (deferred) output, byte-exact
  int64_t ExitValue = 0;
  bool CacheHit = false;
  std::string MisspecReason;
  double PipelineSec = 0; ///< parse+profile+classify+transform (cache miss)
  double ExecSec = 0;     ///< executive wall time
  double QueueSec = 0;    ///< admission queue wait
  double WallSec = 0;     ///< submit-to-result, measured by the daemon
};

// --- Body serialization --------------------------------------------------

std::string encodeJobRequest(const JobRequest &R);
bool decodeJobRequest(const std::string &Body, JobRequest &R,
                      std::string &Err);

std::string encodeJobReply(const JobReply &R);
bool decodeJobReply(const std::string &Body, JobReply &R, std::string &Err);

/// An ExecAssign body: daemon -> pre-forked executive.  The program
/// travels out-of-band as a serialized bytecode image in a sealed memfd
/// (SCM_RIGHTS); Key+Generation identify it for the executive's local
/// program cache, so a repeat assignment skips even deserialization.
struct ExecAssignment {
  uint64_t ProgramKey = 0;
  uint64_t Generation = 0;
  bool UseParallel = false; ///< run the planned-DOALL image vs sequential
  uint32_t Attempt = 0;     ///< daemon retry ordinal (FaultOomAttempts)
  JobRequest Req;           ///< execution knobs; ModuleText is empty
};

std::string encodeExecAssign(const ExecAssignment &A);
bool decodeExecAssign(const std::string &Body, ExecAssignment &A,
                      std::string &Err);

// --- Frame I/O -----------------------------------------------------------

/// Blocking frame write (loops over partial writes and EINTR).  \p Body is
/// the payload after the type byte.
bool writeFrame(int Fd, MsgType Type, const std::string &Body,
                std::string &Err);

/// writeFrame with \p NumFds file descriptors attached as SCM_RIGHTS
/// ancillary data on the first byte of the frame (the executive program
/// hand-off).  \p Fd must be a Unix-domain socket.
bool writeFrameWithFds(int Fd, MsgType Type, const std::string &Body,
                       const int *Fds, size_t NumFds, std::string &Err);

/// recvmsg-based read that also collects any SCM_RIGHTS descriptors
/// (appended to \p Fds, CLOEXEC).  Returns the recv() byte count / -1, and
/// sets \p Truncated when the kernel flagged dropped ancillary data
/// (MSG_CTRUNC) — the caller must treat the stream as poisoned.
ssize_t recvWithFds(int Fd, void *Buf, size_t Len, std::vector<int> &Fds,
                    bool &Truncated);

/// Creates a sealed memfd holding \p Bytes (F_SEAL_SHRINK|GROW|WRITE|SEAL):
/// the receiver can trust both size and contents.  Returns -1 with \p Err
/// set when memfds or sealing are unavailable.
int sealedMemfd(const char *Name, const void *Data, size_t Bytes,
                std::string &Err);

enum class ReadStatus : uint8_t { Ok, Eof, Timeout, Error };

/// Blocking frame read with an optional wall deadline (<= 0: wait
/// forever).  Returns Error (with \p Err set) for malformed length
/// prefixes, Eof for a clean close before any byte of the frame.
ReadStatus readFrame(int Fd, MsgType &Type, std::string &Body,
                     std::string &Err, double TimeoutSec = 0,
                     size_t MaxFrame = kMaxFrameBytes);

/// Incremental frame parser for the daemon's non-blocking reads: feed()
/// appends raw bytes; next() pops one complete frame per call.
class FrameAssembler {
public:
  enum class Result : uint8_t { NeedMore, Frame, Malformed };

  explicit FrameAssembler(size_t MaxFrame = kMaxFrameBytes)
      : MaxFrame(MaxFrame) {}

  void feed(const char *Data, size_t Len) { Buf.append(Data, Len); }

  /// Pops the next complete frame into \p Type / \p Body.  Malformed means
  /// the byte stream is unrecoverable (bad length prefix): the connection
  /// must be dropped.
  Result next(MsgType &Type, std::string &Body, std::string &Err);

  size_t buffered() const { return Buf.size(); }

private:
  std::string Buf;
  size_t MaxFrame;
};

} // namespace service
} // namespace privateer

#endif // PRIVATEER_SERVICE_PROTOCOL_H
