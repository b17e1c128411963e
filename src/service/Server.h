//===- service/Server.h - The privateer-served daemon -----------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent invocation service.  One single-threaded control plane
/// (poll loop over the listening Unix socket, client connections, signal
/// self-pipe, and executive channels) owns the warm ProgramCache, one
/// FIFO admission queue, and the executives that run the jobs.
///
/// One job runner (service::runJob), one executive lifetime.  N
/// executives are forked once at startup, each a blank process waiting on
/// a private socketpair.  Every job is dispatched as one ExecAssign frame
/// whose program rides out-of-band: the ProgramCache's lowered bytecode,
/// serialized into a sealed memfd, handed over via SCM_RIGHTS.  The
/// executive maps and caches the image by (key, generation), so a warm hit
/// pays no fork, no parse, and no lowering — just dispatch and execution.
/// A job with rlimits (per-request or daemon-wide) runs in a disposable
/// child of its executive, which dies the way the child died; the daemon
/// forks only to fill the pool.
///
/// An executive replies with one JobResult frame on its channel.  A job
/// whose executive dies without replying is triaged from its wait status
/// (typed FailureCause, infra retry ladder, negative-verdict poisoning),
/// and the dead executive is replaced.
///
/// Admission is FIFO against the worker budget: the head job either fits
/// the remaining budget and finds an idle executive, or every job waits,
/// so no job overtakes another and a wide job cannot starve.  A full
/// queue answers Rejected.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_SERVICE_SERVER_H
#define PRIVATEER_SERVICE_SERVER_H

#include "service/ProgramCache.h"
#include "service/Protocol.h"

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <sys/types.h>

namespace privateer {
namespace service {

struct ServerOptions {
  std::string SocketPath;
  /// Total concurrent processes across jobs (each job: NumWorkers + 1
  /// executive).  Requests that can never fit are rejected.
  unsigned WorkerBudget = 16;
  /// Bounded admission queue (jobs waiting for budget).
  size_t QueueDepth = 16;
  size_t CacheEntries = 32;
  size_t MaxFrameBytes = kMaxFrameBytes;
  /// Default per-job deadline when the request leaves DeadlineSec at 0;
  /// 0 here means no deadline.  Scaled by timeoutScale() like the
  /// request's own value.
  double DefaultDeadlineSec = 0;

  // --- Executive pool -----------------------------------------------------
  /// Pre-warmed executive processes; at least 1.
  unsigned Executives = 4;

  // --- Per-job resource governance (0 = unlimited) -----------------------
  /// A limited job's disposable child (and its worker tree, which inherits
  /// the limits across fork) runs under these rlimits; per-job requests
  /// can lower but never raise them.  Every executive runs with
  /// RLIMIT_CORE 0: a crashing executive must not dump multi-GiB tagged
  /// heaps to disk.
  uint64_t MaxMemoryBytes = 0; ///< RLIMIT_AS
  uint32_t MaxCpuSec = 0;      ///< RLIMIT_CPU (scaled by timeoutScale())
  uint32_t MaxOpenFiles = 0;   ///< RLIMIT_NOFILE

  // --- Client resilience -------------------------------------------------
  /// Per-connection outbound buffer cap: a client whose pending replies
  /// outgrow this is a slow reader and gets dropped instead of ballooning
  /// the daemon's memory.
  size_t MaxConnBufferBytes = 4u << 20;
  /// A connection with pending output that makes no read progress for
  /// this long (scaled by timeoutScale()) is dropped.
  double WriteStallSec = 10.0;
  /// Finished replies remembered for idempotent resubmission (SubmitJob
  /// IdempotencyKey); bounds the replay window.
  size_t ReplayEntries = 128;
  /// In-daemon retries of infra-class failures: attempt 1 halves the
  /// workers, attempt 2 runs sequentially.  0 disables retrying.
  unsigned MaxRetries = 2;
  /// Test-only: when nonzero, shrink SO_SNDBUF on accepted connections so
  /// slow-reader backpressure is reachable with small outputs.
  int SendBufBytes = 0;
  bool Verbose = false;
};

class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens on Opts.SocketPath,
  /// installs signal handlers (SIGTERM -> drain, SIGINT -> shutdown,
  /// SIGCHLD -> reap), and pre-forks the executive pool.
  bool start(std::string &Err);

  /// Serves until drained / shut down.  Returns the process exit code.
  int run();

  /// start() + run() + perror, for forked daemon children in tests and
  /// bench harnesses: `if (fork() == 0) _exit(Server::serve(Opts));`
  static int serve(const ServerOptions &Opts);

private:
  struct Conn {
    int Fd = -1;
    FrameAssembler Frames;
    std::string Out;        ///< bytes waiting for POLLOUT
    uint64_t ActiveJob = 0; ///< one outstanding job per connection
    bool CloseAfterFlush = false;
    /// Slated for dropConn at the top of the next event-loop pass (slow
    /// reader); deferred so reply paths holding a Conn& stay valid.
    bool Doomed = false;
    const char *DoomWhy = "";
    /// wallSeconds() of the last write progress while Out was nonempty;
    /// 0 when Out is empty.
    double LastWriteProgress = 0;
  };

  enum class KillCause : uint8_t { None, Deadline, ClientGone, Shutdown };

  struct Job {
    uint64_t Id = 0;
    int ConnFd = -1;
    JobRequest Req;
    std::shared_ptr<CachedProgram> Prog;
    bool CacheHit = false;
    bool Running = false;
    uint64_t ExecId = 0; ///< the executive running this attempt
    pid_t Pid = -1;      ///< that executive's pid (and process group)
    /// The executive's answer; empty until its JobResult frame arrives.
    std::optional<JobReply> Reply;
    /// The executive died before answering; WaitStatus says how.
    bool Reaped = false;
    int WaitStatus = 0;
    KillCause Killed = KillCause::None;
    double SubmitT = 0, StartT = 0;
    double DeadlineAbs = 0; ///< wallSeconds() deadline; 0 = none
    unsigned Cost = 0;      ///< admission cost: NumWorkers + 1
    /// Execution attempt ordinal; bumped by in-daemon infra retries
    /// (attempt 1 halves the workers, attempt 2 runs sequentially).
    unsigned Attempt = 0;
  };

  /// One executive process and its channel.
  struct Executive {
    uint64_t Id = 0;
    pid_t Pid = -1;
    int ChanFd = -1; ///< daemon end of the socketpair
    FrameAssembler Frames;
    uint64_t ActiveJob = 0; ///< 0 = idle
  };

  // Event handlers.
  void acceptClients();
  void readConn(Conn &C);
  void handleFrame(Conn &C, MsgType Type, const std::string &Body);
  void handleSubmit(Conn &C, const std::string &Body);
  void readExecutive(Executive &E);
  void dropConn(int Fd, const char *Why);
  void protocolError(Conn &C, const std::string &Why);

  // Executives.
  /// Forks an executive on a fresh socketpair.
  Executive *spawnExecutive(std::string &Err);
  /// Drops \p ExecId from the table and, unless draining, replaces it.
  void retireExecutive(uint64_t ExecId);
  void shutdownPool();
  Executive *idleExecutive();
  /// The assignment that runs \p J's current attempt, with the daemon's
  /// rlimit ceilings folded into its request.
  ExecAssignment assignmentFor(const Job &J) const;
  /// Hands \p J to \p E (ExecAssign + image fd) and starts its clock.
  /// False on send failure: the caller retires the executive.
  bool startJob(Job &J, Executive &E);

  // Job lifecycle.
  void pumpQueue();
  void reapChildren();
  void finishJob(Job &J);
  /// Decodes the wait status of an executive that died without replying
  /// into a typed failure reply (Cause, TermSignal, SupExitCode).
  JobReply triageFailure(const Job &J);
  /// Requeues an infra-failed job with a degraded config, or — when the
  /// retry budget is spent or the cause is program-class — sends \p R as
  /// the final answer.  Returns true when the job was requeued.
  bool retryOrFail(Job &J, JobReply R);
  void checkDeadlines(double Now);
  void checkConnHealth(double Now);
  void killJob(Job &J, KillCause Cause);
  void replyToJob(const Job &J, JobReply R);
  void rememberReply(const Job &J, const JobReply &R);

  // Control plane.
  void beginDrain();
  void beginShutdown();
  std::string statusJson() const;
  void sendFrame(Conn &C, MsgType Type, const std::string &Body);
  void flushConn(Conn &C);
  uint64_t &stat(const char *Name) const;

  ServerOptions Opts;
  ProgramCache Cache;
  int ListenFd = -1;
  int SigPipe[2] = {-1, -1};
  bool Draining = false;
  double StartTime = 0;
  uint64_t NextJobId = 1;
  uint64_t NextExecId = 1;
  unsigned WorkersInUse = 0;
  size_t QueuePeak = 0;
  std::map<int, Conn> Conns;
  std::map<uint64_t, Job> Jobs;
  std::map<uint64_t, Executive> Pool;
  /// Ids of admitted jobs waiting for budget, in arrival order.  A retried
  /// job goes back to the front.
  std::deque<uint64_t> Queue;
  /// Finished replies by idempotency key, bounded by ReplayEntries; the
  /// order deque evicts the oldest key first.
  std::map<uint64_t, JobReply> Replay;
  std::deque<uint64_t> ReplayOrder;
};

} // namespace service
} // namespace privateer

#endif // PRIVATEER_SERVICE_SERVER_H
