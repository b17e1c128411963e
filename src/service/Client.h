//===- service/Client.h - privateer-served client ---------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small synchronous client for the invocation service: one connection,
/// one outstanding job at a time (the protocol the daemon enforces), with
/// the module text inside the SubmitJob frame.  privateer-client, the
/// service tests, bench_service and perfbench all speak through this
/// class.
///
/// submit() is resilient by default: every request is stamped with a
/// client-generated idempotency key, and a transport failure (daemon
/// restart, dropped socket) triggers reconnect + resubmit under capped
/// exponential backoff with jitter, bounded by an overall deadline
/// budget.  If the original execution finished before the connection
/// died, the daemon replays the remembered reply instead of running the
/// job twice — a daemon restart mid-job is invisible to the caller.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_SERVICE_CLIENT_H
#define PRIVATEER_SERVICE_CLIENT_H

#include "service/Protocol.h"

namespace privateer {
namespace service {

/// Reconnect-and-resubmit policy for Client::submit.
struct RetryPolicy {
  bool Enabled = true;
  /// Total transport attempts (first try included).
  unsigned MaxAttempts = 5;
  /// First backoff sleep; doubled per attempt up to MaxBackoffSec, with
  /// +/-50% jitter so a thundering herd of clients decorrelates.
  double InitialBackoffSec = 0.05;
  double MaxBackoffSec = 2.0;
  /// Overall wall-clock budget across every reconnect + resubmit, scaled
  /// by timeoutScale().  0 = unbounded.
  double BudgetSec = 30.0;
  /// Per-attempt reconnect window (a dead daemon refuses instantly; a
  /// restarting one needs a moment to bind).
  double ReconnectSec = 1.0;
};

class Client {
public:
  Client() = default;
  ~Client() { close(); }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Connects to the daemon socket; retries until \p TimeoutSec so a
  /// just-spawned daemon has time to bind.  Remembers the path for
  /// submit()'s transparent reconnects.
  bool connect(const std::string &SocketPath, std::string &Err,
               double TimeoutSec = 5.0);

  bool connected() const { return Fd >= 0; }
  int fd() const { return Fd; }
  void close();

  /// Submits one job and blocks for its JobResult (0 timeout: forever).
  /// Transport failures reconnect and resubmit per Retry; application
  /// replies (including Rejected/Draining) are returned as-is.
  bool submit(const JobRequest &Req, JobReply &Reply, std::string &Err,
              double TimeoutSec = 0);

  /// Fetches the daemon's status counters as JSON.
  bool status(std::string &Json, std::string &Err, double TimeoutSec = 10);

  /// Asks the daemon to drain (finish queue, then exit) or shut down
  /// (cancel everything, then exit); waits for the Ack.
  bool drain(std::string &Err, double TimeoutSec = 10);
  bool shutdownServer(std::string &Err, double TimeoutSec = 10);

  /// Reconnect + resubmit policy; tests and tools may tighten or disable.
  RetryPolicy Retry;

  /// Transport-level reconnects performed by submit() so far.
  uint64_t reconnects() const { return Reconnects; }

private:
  enum class RtStatus : uint8_t {
    Ok,        ///< expected reply frame decoded
    Transport, ///< connection-level failure: reconnect + resubmit may help
    Fatal,     ///< protocol error / timeout: retrying cannot help
  };
  RtStatus roundTripStatus(MsgType Send, const std::string &Body,
                           MsgType Expect, std::string &ReplyBody,
                           std::string &Err, double TimeoutSec);
  bool roundTrip(MsgType Send, const std::string &Body, MsgType Expect,
                 std::string &ReplyBody, std::string &Err,
                 double TimeoutSec);
  uint64_t nextRand();

  int Fd = -1;
  std::string SocketPath;
  uint64_t Reconnects = 0;
  uint64_t RngState = 0;
};

} // namespace service
} // namespace privateer

#endif // PRIVATEER_SERVICE_CLIENT_H
