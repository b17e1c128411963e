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
/// self-pipe, and executive channels) owns the warm ProgramCache, a
/// weighted-fair admission queue, and the executives that run the jobs.
///
/// One job runner (service::runJob), two process lifetimes:
///
///  - Pooled executives (the fast path).  N executives are forked once at
///    startup, each a blank process waiting on a private socketpair.  A
///    warm job is dispatched as one ExecAssign frame whose program rides
///    out-of-band: the ProgramCache's lowered bytecode, serialized into a
///    sealed memfd, handed over via SCM_RIGHTS.  The executive maps and
///    caches the image by (key, generation), so a warm hit pays no fork,
///    no parse, and no lowering — just dispatch and execution.
///
///  - One-shot executives.  Jobs the pool cannot run — interpreter
///    engine, per-job rlimits, programs whose lowering declined, or a
///    daemon with no pool — fork an executive for that job alone.  It
///    inherits the cached program across fork, applies the rlimits, runs
///    the job, replies and exits.
///
/// Both kinds reply with one JobResult frame on their channel.  A job
/// whose executive dies without replying is triaged from its wait status
/// (typed FailureCause, infra retry ladder, negative-verdict poisoning);
/// a dead pooled executive is replaced.
///
/// Admission is weighted fair queuing (start-time fair queuing over
/// per-tenant FIFOs): each tenant carries a weight, a priority band, and
/// an optional token bucket; jobs are served highest-priority-first, then
/// by minimum finish tag, so one chatty tenant cannot starve the rest.
/// With a single (anonymous) tenant this degenerates to exact FIFO.
/// Backpressure is per-tenant: a full tenant queue answers Rejected
/// without touching anyone else's budget.
///
/// Horizontal scaling: with Shards > 1 the parent binds the socket once,
/// then forks N shard children that accept from the shared listening fd
/// (kernel load-balances accepts); each shard is a full daemon with its
/// own cache, pool, and queue.  The parent supervises and respawns
/// shards, and forwards SIGTERM/SIGINT.
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
#include <vector>

namespace privateer {
namespace service {

/// Static per-tenant admission configuration (--tenant-weight).  Tenants
/// not configured here are created on first submit with defaults.
struct TenantConfig {
  std::string Id;
  double Weight = 1.0;     ///< WFQ share (finish tag = start + cost/weight)
  int Priority = 0;        ///< higher bands are always served first
  double RatePerSec = 0.0; ///< token bucket refill; 0 = unlimited
  double Burst = 0.0;      ///< token bucket depth; 0 = 2*rate or unlimited
};

struct ServerOptions {
  std::string SocketPath;
  /// Total concurrent processes across jobs (each job: NumWorkers + 1
  /// executive).  Requests that can never fit are rejected.
  unsigned WorkerBudget = 16;
  /// Bounded per-tenant admission queue (jobs waiting for budget).
  size_t QueueDepth = 16;
  size_t CacheEntries = 32;
  size_t MaxFrameBytes = kMaxFrameBytes;
  /// Default per-job deadline when the request leaves DeadlineSec at 0;
  /// 0 here means no deadline.  Scaled by timeoutScale() like the
  /// request's own value.
  double DefaultDeadlineSec = 0;

  // --- Horizontal scale ---------------------------------------------------
  /// Pre-warmed executive pool size; 0 disables the pool (every job forks
  /// a one-shot executive — the bench baseline).
  unsigned Executives = 4;
  /// Acceptor shards.  1 = single daemon process (default).  N > 1 forks
  /// N full daemons sharing the listening socket.
  unsigned Shards = 1;
  /// Static tenant table; unknown tenants get defaults on first submit.
  std::vector<TenantConfig> Tenants;
  /// Shard child: accept on this inherited fd instead of binding.
  int InheritedListenFd = -1;

  // --- Per-job resource governance (0 = unlimited) -----------------------
  /// A limited job's executive (and its worker tree, which inherits the
  /// limits across fork) runs under these rlimits; per-job requests can
  /// lower but never raise them.  RLIMIT_CORE is always 0: a crashing
  /// executive must not dump multi-GiB tagged heaps to disk.  Jobs with
  /// any rlimit (daemon-wide or per-request) run on a one-shot executive:
  /// pooled ones are long-lived and cannot wear per-job limits.
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
  /// IdempotencyKey); bounds each tenant's replay cache.
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

  /// Binds and listens on Opts.SocketPath (or adopts InheritedListenFd),
  /// installs signal handlers (SIGTERM -> drain, SIGINT -> shutdown,
  /// SIGCHLD -> reap), and pre-forks the executive pool.
  bool start(std::string &Err);

  /// Serves until drained / shut down.  Returns the process exit code.
  int run();

  /// start() + run() + perror, for forked daemon children in tests and
  /// bench harnesses: `if (fork() == 0) _exit(Server::serve(Opts));`
  /// With Opts.Shards > 1 this becomes the shard parent: it binds once,
  /// forks the shards, supervises them, and returns when they exit.
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
    /// SCM_RIGHTS descriptors received but not yet claimed by a SubmitJob
    /// (a memfd's frame body may complete on a later read).
    std::vector<int> PendingFds;
  };

  enum class KillCause : uint8_t { None, Deadline, ClientGone, Shutdown };

  struct Job {
    uint64_t Id = 0;
    int ConnFd = -1;
    JobRequest Req;
    std::string Tenant; ///< resolved admission identity
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
    /// SFQ tags assigned at enqueue: start = max(V, tenant last finish),
    /// finish = start + cost/weight.  Service order is min finish tag
    /// within the highest nonempty priority band.
    double STag = 0, FTag = 0;
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
    /// Forked for one job: never handed a second one, never respawned.
    bool OneShot = false;
  };

  /// Per-tenant WFQ state: FIFO queue, fair-queuing tags, token bucket,
  /// replay window, and stats.
  struct TenantState {
    TenantConfig Cfg;
    std::deque<uint64_t> Queue;
    double LastFinish = 0; ///< finish tag of the most recent enqueue
    double Tokens = 0;
    double LastRefill = 0;
    bool BucketPrimed = false;
    /// Per-tenant idempotency replay window (bounded by ReplayEntries).
    std::map<uint64_t, JobReply> Replay;
    std::deque<uint64_t> ReplayOrder;
    uint64_t Submitted = 0, Completed = 0, Rejected = 0;
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
  /// Forks an executive on a fresh socketpair: a pooled one when
  /// \p OneShot is null, else one that runs that job alone and exits.
  Executive *spawnExecutive(const Job *OneShot, std::string &Err);
  /// Drops \p ExecId from the table; a pooled executive is replaced.
  void retireExecutive(uint64_t ExecId);
  void shutdownPool();
  Executive *idleExecutive();
  size_t pooledExecutives() const;
  /// The assignment that runs \p J's current attempt.
  static ExecAssignment assignmentFor(const Job &J);
  /// True when the pool can run \p J: bytecode engine, lowered image
  /// available for the requested mode, and no per-job rlimits.
  bool poolEligible(const Job &J) const;
  /// Hands \p J to \p E (ExecAssign + image fd).  False on send failure —
  /// the executive is replaced and the caller falls back to a one-shot.
  bool dispatchToExecutive(Job &J, Executive &E);

  // WFQ admission.
  TenantState &tenantState(const std::string &Id);
  void refillBucket(TenantState &T, double Now);
  /// Total jobs waiting across all tenant queues.
  size_t queuedCount() const;
  /// Removes \p Id from its tenant's queue (cancel / disconnect).
  void unqueueJob(const Job &J);

  // Job lifecycle.
  void pumpQueue();
  void startJob(Job &J);
  void applyJobLimits(const JobRequest &Req);
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

  /// Shard parent: bind once, fork Opts.Shards children on the shared
  /// listening socket, supervise and respawn them.
  static int serveSharded(const ServerOptions &Opts);

  ServerOptions Opts;
  ProgramCache Cache;
  int ListenFd = -1;
  bool OwnsSocketFile = true; ///< false in shard children
  int SigPipe[2] = {-1, -1};
  bool Draining = false;
  double StartTime = 0;
  uint64_t NextJobId = 1;
  uint64_t NextExecId = 1;
  unsigned WorkersInUse = 0;
  size_t QueuePeak = 0;
  double VirtualTime = 0; ///< SFQ virtual clock (start tag of last dispatch)
  std::map<int, Conn> Conns;
  std::map<uint64_t, Job> Jobs;
  std::map<uint64_t, Executive> Pool;
  std::map<std::string, TenantState> Tenants;
};

} // namespace service
} // namespace privateer

#endif // PRIVATEER_SERVICE_SERVER_H
