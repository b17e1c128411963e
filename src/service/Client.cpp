//===- service/Client.cpp -------------------------------------------------===//

#include "service/Client.h"

#include "support/Timing.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <random>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace privateer;
using namespace privateer::service;

bool Client::connect(const std::string &Path, std::string &Err,
                     double TimeoutSec) {
  close();
  SocketPath = Path;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + SocketPath;
    return false;
  }
  std::strncpy(Addr.sun_path, SocketPath.c_str(), sizeof(Addr.sun_path) - 1);

  double Deadline = wallSeconds() + TimeoutSec;
  while (true) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0) {
      Err = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0)
      return true;
    int E = errno;
    ::close(Fd);
    Fd = -1;
    if (wallSeconds() >= Deadline) {
      Err = "connect " + SocketPath + ": " + std::strerror(E);
      return false;
    }
    ::usleep(20'000); // daemon may still be binding
  }
}

void Client::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}

Client::RtStatus Client::roundTripStatus(MsgType Send,
                                         const std::string &Body,
                                         MsgType Expect,
                                         std::string &ReplyBody,
                                         std::string &Err,
                                         double TimeoutSec) {
  if (Fd < 0) {
    Err = "not connected";
    return RtStatus::Transport;
  }
  if (!writeFrame(Fd, Send, Body, Err))
    return RtStatus::Transport;
  MsgType Type;
  ReadStatus S = readFrame(Fd, Type, ReplyBody, Err, TimeoutSec);
  if (S == ReadStatus::Eof) {
    Err = "daemon closed the connection";
    return RtStatus::Transport;
  }
  if (S == ReadStatus::Timeout) {
    Err = "timed out waiting for reply";
    return RtStatus::Fatal;
  }
  if (S != ReadStatus::Ok)
    return RtStatus::Transport;
  if (Type == MsgType::Error) {
    Err = "daemon: " + ReplyBody;
    return RtStatus::Fatal;
  }
  if (Type != Expect) {
    Err = "unexpected reply frame type " +
          std::to_string(static_cast<unsigned>(Type));
    return RtStatus::Fatal;
  }
  return RtStatus::Ok;
}

bool Client::roundTrip(MsgType Send, const std::string &Body, MsgType Expect,
                       std::string &ReplyBody, std::string &Err,
                       double TimeoutSec) {
  return roundTripStatus(Send, Body, Expect, ReplyBody, Err, TimeoutSec) ==
         RtStatus::Ok;
}

uint64_t Client::nextRand() {
  if (RngState == 0) {
    std::random_device Rd;
    RngState = (static_cast<uint64_t>(Rd()) << 32) ^ Rd() ^
               (static_cast<uint64_t>(::getpid()) << 16) ^
               static_cast<uint64_t>(wallSeconds() * 1e6);
    if (RngState == 0)
      RngState = 0x9e3779b97f4a7c15ULL;
  }
  // splitmix64
  RngState += 0x9e3779b97f4a7c15ULL;
  uint64_t Z = RngState;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

bool Client::submit(const JobRequest &Req, JobReply &Reply, std::string &Err,
                    double TimeoutSec) {
  // Stamp an idempotency key so a resubmission after a lost reply replays
  // the remembered answer instead of executing twice.  The caller's own
  // key (if any) is respected.
  JobRequest Stamped = Req;
  if (Retry.Enabled && Stamped.IdempotencyKey == 0) {
    Stamped.IdempotencyKey = nextRand();
    if (Stamped.IdempotencyKey == 0)
      Stamped.IdempotencyKey = 1;
  }
  const std::string Body = encodeJobRequest(Stamped);

  double Budget = Retry.Enabled && Retry.BudgetSec > 0
                      ? wallSeconds() + Retry.BudgetSec * timeoutScale()
                      : 0;
  double Backoff = Retry.InitialBackoffSec;
  unsigned Attempt = 0;
  while (true) {
    ++Attempt;
    std::string ReplyBody;
    RtStatus S = Fd < 0 ? RtStatus::Transport
                        : roundTripStatus(MsgType::SubmitJob, Body,
                                          MsgType::JobResult, ReplyBody, Err,
                                          TimeoutSec);
    if (S == RtStatus::Ok)
      return decodeJobReply(ReplyBody, Reply, Err);
    if (S == RtStatus::Fatal || !Retry.Enabled || SocketPath.empty())
      return false;
    if (Attempt >= Retry.MaxAttempts ||
        (Budget > 0 && wallSeconds() >= Budget)) {
      Err = "submit failed after " + std::to_string(Attempt) +
            " attempt(s): " + Err;
      return false;
    }
    // Capped exponential backoff with +/-50% jitter, then reconnect.
    double Sleep =
        Backoff * (0.5 + static_cast<double>(nextRand() % 1000) / 1000.0);
    if (Budget > 0)
      Sleep = std::min(Sleep, std::max(0.0, Budget - wallSeconds()));
    if (Sleep > 0)
      ::usleep(static_cast<useconds_t>(Sleep * 1e6));
    Backoff = std::min(Backoff * 2, Retry.MaxBackoffSec);
    ++Reconnects;
    double Window = Retry.ReconnectSec;
    if (Budget > 0)
      Window = std::min(Window, std::max(0.05, Budget - wallSeconds()));
    std::string CErr;
    std::string Path = SocketPath; // connect() resets members via close()
    if (!connect(Path, CErr, Window))
      Err = "reconnect: " + CErr;
  }
}

bool Client::status(std::string &Json, std::string &Err, double TimeoutSec) {
  return roundTrip(MsgType::StatusRequest, "", MsgType::StatusReply, Json,
                   Err, TimeoutSec);
}

bool Client::drain(std::string &Err, double TimeoutSec) {
  std::string Body;
  return roundTrip(MsgType::Drain, "", MsgType::Ack, Body, Err, TimeoutSec);
}

bool Client::shutdownServer(std::string &Err, double TimeoutSec) {
  std::string Body;
  return roundTrip(MsgType::Shutdown, "", MsgType::Ack, Body, Err,
                   TimeoutSec);
}
