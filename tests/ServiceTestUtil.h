//===- tests/ServiceTestUtil.h - Forked-daemon helpers ----------*- C++ -*-===//
//
// Shared between ServiceProtocolTest and ServiceTest: run a
// privateer-served instance in a forked child, poll its status, and kill
// it reliably at test exit.
//
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_TESTS_SERVICETESTUTIL_H
#define PRIVATEER_TESTS_SERVICETESTUTIL_H

#include "service/Client.h"
#include "service/Server.h"
#include "support/Timing.h"

#include <csignal>
#include <cstdio>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

namespace privateer {
namespace servicetest {

inline std::string uniqueSocketPath() {
  static int Counter = 0;
  return "/tmp/privateer-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(++Counter) + ".sock";
}

/// A privateer-served daemon in a forked child.  The fork happens before
/// any test threads exist, so this is sanitizer-safe.
class ForkedDaemon {
public:
  explicit ForkedDaemon(service::ServerOptions Opts) : Opts(Opts) {
    std::fflush(nullptr); // The child must not re-emit buffered stdout.
    Pid = ::fork();
    if (Pid == 0)
      ::_exit(service::Server::serve(this->Opts));
  }

  ~ForkedDaemon() {
    if (Pid > 0 && !Reaped) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
    ::unlink(Opts.SocketPath.c_str());
  }

  pid_t pid() const { return Pid; }
  const std::string &socket() const { return Opts.SocketPath; }
  bool forked() const { return Pid > 0; }

  bool alive() {
    if (Pid <= 0 || Reaped)
      return false;
    return ::waitpid(Pid, &LastStatus, WNOHANG) == 0;
  }

  /// Sends \p Sig and waits for exit; returns the exit code, or -1 on
  /// timeout / abnormal death.
  int signalAndWait(int Sig, double TimeoutSec = 20) {
    if (Pid <= 0 || Reaped)
      return -1;
    ::kill(Pid, Sig);
    return wait(TimeoutSec);
  }

  /// Waits for the daemon to exit on its own (drain/shutdown).
  int wait(double TimeoutSec = 20) {
    if (Pid <= 0)
      return -1;
    if (Reaped)
      return WIFEXITED(LastStatus) ? WEXITSTATUS(LastStatus) : -1;
    double Deadline = wallSeconds() + TimeoutSec * timeoutScale();
    while (wallSeconds() < Deadline) {
      pid_t R = ::waitpid(Pid, &LastStatus, WNOHANG);
      if (R == Pid) {
        Reaped = true;
        return WIFEXITED(LastStatus) ? WEXITSTATUS(LastStatus) : -1;
      }
      ::usleep(10'000);
    }
    return -1;
  }

private:
  service::ServerOptions Opts;
  pid_t Pid = -1;
  int LastStatus = 0;
  bool Reaped = false;
};

/// Extracts `"Name": <integer>` from a status JSON string; -1 if absent.
inline long long jsonInt(const std::string &Json, const std::string &Name) {
  std::string Needle = "\"" + Name + "\": ";
  size_t Pos = Json.find(Needle);
  if (Pos == std::string::npos)
    return -1;
  return std::atoll(Json.c_str() + Pos + Needle.size());
}

/// Polls the daemon's status JSON until \p Pred holds or the (scaled)
/// timeout expires; returns the last JSON either way.
template <typename Pred>
std::string waitForStatus(const std::string &Socket, Pred P,
                          double TimeoutSec = 10) {
  std::string Json, Err;
  double Deadline = wallSeconds() + TimeoutSec * timeoutScale();
  while (wallSeconds() < Deadline) {
    service::Client C;
    if (C.connect(Socket, Err, 1.0) && C.status(Json, Err) && P(Json))
      return Json;
    ::usleep(20'000);
  }
  return Json;
}

} // namespace servicetest
} // namespace privateer

#endif // PRIVATEER_TESTS_SERVICETESTUTIL_H
