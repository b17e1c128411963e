//===- service/Server.cpp - privateer-served event loop -------------------===//

#include "service/Server.h"

#include "runtime/ControlBlock.h"
#include "service/Executive.h"
#include "support/Statistics.h"
#include "support/Timing.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace privateer;
using namespace privateer::service;

// --- Signal plumbing -----------------------------------------------------
//
// Handlers set a flag and poke the self-pipe so poll() wakes promptly;
// all real work happens in the event loop.

namespace {

volatile sig_atomic_t GotSigChld = 0;
volatile sig_atomic_t GotSigTerm = 0;
volatile sig_atomic_t GotSigInt = 0;
int SigWakeFd = -1;

void onSignal(int Sig) {
  if (Sig == SIGCHLD)
    GotSigChld = 1;
  else if (Sig == SIGTERM)
    GotSigTerm = 1;
  else if (Sig == SIGINT)
    GotSigInt = 1;
  if (SigWakeFd >= 0) {
    char B = 1;
    [[maybe_unused]] ssize_t N = ::write(SigWakeFd, &B, 1);
  }
}

void setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

/// Binds + listens on \p Path with crash-only stale-socket reclaim: a
/// daemon killed by SIGKILL leaves its socket file behind and a naive
/// bind() fails with EADDRINUSE.  Probe the path first — a live daemon
/// accepts the connect and we refuse to steal its socket; a dead one
/// answers ECONNREFUSED and the stale file is reclaimed.
int bindListenSocket(const std::string &Path, std::string &Err,
                     bool &Reclaimed) {
  Reclaimed = false;
  if (Path.empty()) {
    Err = "no socket path";
    return -1;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + Path;
    return -1;
  }
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  struct stat St{};
  if (::lstat(Path.c_str(), &St) == 0) {
    if (!S_ISSOCK(St.st_mode)) {
      Err = Path + " exists and is not a socket";
      ::close(Fd);
      return -1;
    }
    int Probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    bool Alive =
        Probe >= 0 &&
        ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
            0;
    if (Probe >= 0)
      ::close(Probe);
    if (Alive) {
      Err = "another daemon is already serving " + Path;
      ::close(Fd);
      return -1;
    }
    ::unlink(Path.c_str());
    Reclaimed = true;
  }
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Err = "bind " + Path + ": " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  if (::listen(Fd, 64) < 0) {
    Err = std::string("listen: ") + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  setNonBlocking(Fd);
  return Fd;
}

} // namespace

uint64_t &Server::stat(const char *Name) const {
  return StatisticRegistry::instance().counter("service", Name);
}

Server::Server(ServerOptions O)
    : Opts(std::move(O)), Cache(Opts.CacheEntries) {
  // Pre-register every counter so the status JSON always carries the full
  // schema, not just the events that have happened to occur yet.
  for (const char *Name :
       {"connections_accepted", "connections_closed", "malformed_frames",
        "jobs_submitted", "jobs_accepted", "jobs_rejected", "jobs_completed",
        "jobs_failed", "jobs_crashed", "jobs_canceled", "jobs_timeout",
        "jobs_resource_limit", "cache_hits", "cache_misses",
        "cache_evictions", "queue_peak", "retries", "retry_success",
        "slow_client_drops", "idempotent_replays", "negative_verdicts",
        "socket_reclaimed", "supervisor_forks", "pool_dispatches",
        "executives_spawned", "executives_respawned"})
    stat(Name);
  // The runtime counters every reply folds in, pre-registered likewise.
  mirrorCounters(RuntimeCounters());
}

Server::~Server() {
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ::unlink(Opts.SocketPath.c_str());
  }
  for (int Fd : {SigPipe[0], SigPipe[1]})
    if (Fd >= 0)
      ::close(Fd);
  for (auto &[Fd, C] : Conns)
    ::close(Fd);
  for (auto &[Id, E] : Pool)
    if (E.ChanFd >= 0)
      ::close(E.ChanFd);
}

bool Server::start(std::string &Err) {
  bool Reclaimed = false;
  ListenFd = bindListenSocket(Opts.SocketPath, Err, Reclaimed);
  if (ListenFd < 0)
    return false;
  if (Reclaimed) {
    ++stat("socket_reclaimed");
    if (Opts.Verbose)
      std::fprintf(stderr, "[privateer-served] reclaimed stale socket %s\n",
                   Opts.SocketPath.c_str());
  }

  if (::pipe(SigPipe) < 0) {
    Err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  setNonBlocking(SigPipe[0]);
  setNonBlocking(SigPipe[1]);
  SigWakeFd = SigPipe[1];

  struct sigaction Sa{};
  Sa.sa_handler = onSignal;
  sigemptyset(&Sa.sa_mask);
  Sa.sa_flags = SA_RESTART;
  ::sigaction(SIGCHLD, &Sa, nullptr);
  ::sigaction(SIGTERM, &Sa, nullptr);
  ::sigaction(SIGINT, &Sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  if (Opts.Executives == 0) {
    Err = "the executive pool needs at least one executive";
    return false;
  }
  // Pre-fork the executive pool while the process is still pristine (no
  // client fds, empty cache) — the cheapest possible fork.
  for (unsigned I = 0; I < Opts.Executives; ++I) {
    std::string PoolErr;
    if (!spawnExecutive(PoolErr)) {
      Err = "executive pool: " + PoolErr;
      return false;
    }
  }

  StartTime = wallSeconds();
  if (Opts.Verbose)
    std::fprintf(stderr,
                 "[privateer-served] listening on %s (budget %u, queue %zu, "
                 "executives %zu)\n",
                 Opts.SocketPath.c_str(), Opts.WorkerBudget, Opts.QueueDepth,
                 Pool.size());
  return true;
}

int Server::serve(const ServerOptions &O) {
  Server S(O);
  std::string Err;
  if (!S.start(Err)) {
    std::fprintf(stderr, "privateer-served: %s\n", Err.c_str());
    return 1;
  }
  return S.run();
}

// --- Executives -----------------------------------------------------------

Server::Executive *Server::spawnExecutive(std::string &Err) {
  int Sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Sv) < 0) {
    Err = std::string("socketpair: ") + std::strerror(errno);
    return nullptr;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Sv[0]);
    ::close(Sv[1]);
    Err = std::string("fork: ") + std::strerror(errno);
    return nullptr;
  }
  if (Pid == 0) {
    // Executive child: its own process group (deadline kills reach its
    // worker tree without touching the daemon), default signals, no core
    // dumps of its multi-GiB tagged heaps, and no daemon fds beyond its
    // channel.
    ::setpgid(0, 0);
    rlimit Core{0, 0};
    ::setrlimit(RLIMIT_CORE, &Core);
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGCHLD, SIG_DFL);
    SigWakeFd = -1;
    ::close(Sv[0]);
    if (ListenFd >= 0)
      ::close(ListenFd);
    for (int PFd : {SigPipe[0], SigPipe[1]})
      if (PFd >= 0)
        ::close(PFd);
    for (auto &[CFd, C] : Conns)
      ::close(CFd);
    for (auto &[Id, E] : Pool)
      if (E.ChanFd >= 0)
        ::close(E.ChanFd);
    ::_exit(executiveMain(Sv[1]));
  }
  ::close(Sv[1]);
  // Mirror the child's setpgid so a kill(-pid) that races its startup
  // still finds the group.
  ::setpgid(Pid, Pid);
  setNonBlocking(Sv[0]);
  Executive E;
  E.Id = NextExecId++;
  E.Pid = Pid;
  E.ChanFd = Sv[0];
  E.Frames = FrameAssembler(Opts.MaxFrameBytes);
  ++stat("executives_spawned");
  return &Pool.emplace(E.Id, std::move(E)).first->second;
}

void Server::retireExecutive(uint64_t ExecId) {
  auto It = Pool.find(ExecId);
  if (It == Pool.end())
    return;
  if (It->second.ChanFd >= 0)
    ::close(It->second.ChanFd);
  Pool.erase(It);
  if (Draining)
    return;
  std::string Err;
  if (spawnExecutive(Err)) {
    ++stat("executives_respawned");
    if (Opts.Verbose)
      std::fprintf(stderr, "[privateer-served] executive %llu replaced\n",
                   static_cast<unsigned long long>(ExecId));
  } else if (Opts.Verbose) {
    std::fprintf(stderr, "[privateer-served] executive respawn failed: %s\n",
                 Err.c_str());
  }
}

void Server::shutdownPool() {
  // Closing the channel is the drain signal: executiveMain returns 0 on
  // EOF.  Stragglers (wedged mid-job) get SIGKILL after a grace window.
  for (auto &[Id, E] : Pool)
    if (E.ChanFd >= 0) {
      ::close(E.ChanFd);
      E.ChanFd = -1;
    }
  double Deadline = wallSeconds() + 2.0 * timeoutScale();
  for (auto &[Id, E] : Pool) {
    if (E.Pid <= 0)
      continue;
    while (true) {
      int St = 0;
      pid_t R = ::waitpid(E.Pid, &St, WNOHANG);
      if (R == E.Pid || (R < 0 && errno == ECHILD))
        break;
      if (wallSeconds() > Deadline) {
        ::kill(-E.Pid, SIGKILL);
        ::kill(E.Pid, SIGKILL);
        ::waitpid(E.Pid, &St, 0);
        break;
      }
      struct timespec Ts{0, 10 * 1000 * 1000};
      ::nanosleep(&Ts, nullptr);
    }
  }
  Pool.clear();
}

Server::Executive *Server::idleExecutive() {
  for (auto &[Id, E] : Pool)
    if (E.ActiveJob == 0 && E.ChanFd >= 0)
      return &E;
  return nullptr;
}

ExecAssignment Server::assignmentFor(const Job &J) const {
  ExecAssignment A;
  A.ProgramKey = J.Prog->Key;
  A.Generation = J.Prog->Generation;
  A.UseParallel = J.Req.Mode != JobMode::Sequential;
  A.Attempt = J.Attempt;
  A.Req = J.Req;
  A.Req.ModuleText.clear(); // the program travels by fd
  // Effective ceiling: the request can lower the daemon's but never raise
  // it (0 on either side means none).
  auto Effective = [](uint64_t Mine, uint64_t Daemon) -> uint64_t {
    return Mine == 0 || Daemon == 0 ? std::max(Mine, Daemon)
                                    : std::min(Mine, Daemon);
  };
  A.Req.MaxMemoryBytes = Effective(J.Req.MaxMemoryBytes, Opts.MaxMemoryBytes);
  A.Req.MaxCpuSec =
      static_cast<uint32_t>(Effective(J.Req.MaxCpuSec, Opts.MaxCpuSec));
  A.Req.MaxOpenFiles =
      static_cast<uint32_t>(Effective(J.Req.MaxOpenFiles, Opts.MaxOpenFiles));
  return A;
}

bool Server::startJob(Job &J, Executive &E) {
  ExecAssignment A = assignmentFor(J);
  int Img = J.Prog->Image;
  std::string Err;
  if (!writeFrameWithFds(E.ChanFd, MsgType::ExecAssign, encodeExecAssign(A),
                         &Img, 1, Err)) {
    if (Opts.Verbose)
      std::fprintf(stderr,
                   "[privateer-served] dispatch to executive %llu failed: "
                   "%s\n",
                   static_cast<unsigned long long>(E.Id), Err.c_str());
    return false;
  }
  ++stat("pool_dispatches");
  if (A.Req.limited())
    ++stat("supervisor_forks"); // the executive runs it in a child
  E.ActiveJob = J.Id;
  J.ExecId = E.Id;
  J.Pid = E.Pid;
  J.Running = true;
  J.StartT = wallSeconds();
  double DeadlineSec =
      J.Req.DeadlineSec > 0 ? J.Req.DeadlineSec : Opts.DefaultDeadlineSec;
  if (DeadlineSec > 0)
    J.DeadlineAbs = J.StartT + DeadlineSec * timeoutScale();
  WorkersInUse += J.Cost;
  if (Opts.Verbose)
    std::fprintf(stderr,
                 "[privateer-served] job %llu -> executive %d (%s%s, %u "
                 "workers, cache %s)\n",
                 static_cast<unsigned long long>(J.Id),
                 static_cast<int>(E.Pid),
                 J.Req.Mode == JobMode::Sequential ? "seq" : "spec",
                 A.Req.limited() ? ", limited" : "", J.Req.NumWorkers,
                 J.CacheHit ? "hit" : "miss");
  return true;
}

void Server::readExecutive(Executive &E) {
  char Buf[64 << 10];
  bool Dead = false;
  while (true) {
    ssize_t N = ::read(E.ChanFd, Buf, sizeof(Buf));
    if (N > 0) {
      E.Frames.feed(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N == 0)
      Dead = true;
    else if (errno == EINTR)
      continue;
    else if (errno != EAGAIN && errno != EWOULDBLOCK)
      Dead = true;
    break;
  }

  while (true) {
    MsgType Type;
    std::string Body, Err;
    JobReply Reply;
    FrameAssembler::Result R = E.Frames.next(Type, Body, Err);
    if (R == FrameAssembler::Result::NeedMore)
      break;
    if (R == FrameAssembler::Result::Malformed || Type != MsgType::JobResult ||
        !decodeJobReply(Body, Reply, Err)) {
      Dead = true; // private channel corrupted: replace the executive
      ::kill(E.Pid, SIGKILL);
      break;
    }
    auto It = Jobs.find(E.ActiveJob);
    E.ActiveJob = 0;
    if (It != Jobs.end()) // else canceled while the reply was in flight
      It->second.Reply = std::move(Reply);
  }

  if (Dead) {
    // EOF or hard error: the executive is gone.  An unanswered job is
    // triaged when SIGCHLD reaps the corpse; here we just stop polling the
    // channel.
    ::close(E.ChanFd);
    E.ChanFd = -1;
  }
}

// --- Event loop ----------------------------------------------------------

int Server::run() {
  while (true) {
    if (GotSigChld) {
      GotSigChld = 0;
      reapChildren();
    }
    if (GotSigTerm) {
      GotSigTerm = 0;
      beginDrain();
    }
    if (GotSigInt) {
      GotSigInt = 0;
      beginShutdown();
    }

    double Now = wallSeconds();
    checkDeadlines(Now);
    checkConnHealth(Now);

    // Finalize every job whose executive answered or died.
    std::vector<uint64_t> Done;
    for (auto &[Id, J] : Jobs)
      if (J.Running && (J.Reply || J.Reaped))
        Done.push_back(Id);
    for (uint64_t Id : Done) {
      auto It = Jobs.find(Id);
      if (It != Jobs.end())
        finishJob(It->second);
    }

    if (Draining && Jobs.empty()) {
      shutdownPool();
      // Flush straggling replies, then leave.  Sleep in poll(POLLOUT) for
      // the remaining deadline instead of busy-spinning on EAGAIN.
      for (auto &[Fd, C] : Conns) {
        if (!C.Out.empty()) {
          size_t DoneB = 0;
          double Deadline = wallSeconds() + 2.0 * timeoutScale();
          while (DoneB < C.Out.size()) {
            ssize_t N =
                ::write(Fd, C.Out.data() + DoneB, C.Out.size() - DoneB);
            if (N > 0) {
              DoneB += static_cast<size_t>(N);
              continue;
            }
            if (N < 0 && errno == EINTR)
              continue;
            if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
              double Left = Deadline - wallSeconds();
              if (Left <= 0)
                break;
              pollfd P{Fd, POLLOUT, 0};
              int PR = ::poll(&P, 1, static_cast<int>(Left * 1000) + 1);
              if (PR < 0 && errno != EINTR)
                break;
              continue;
            }
            break; // hard error: the client is gone, stop trying
          }
        }
        ::close(Fd);
      }
      Conns.clear();
      if (ListenFd >= 0) {
        ::close(ListenFd);
        ListenFd = -1;
        ::unlink(Opts.SocketPath.c_str());
      }
      if (Opts.Verbose)
        std::fprintf(stderr, "[privateer-served] drained, exiting\n");
      return 0;
    }

    std::vector<pollfd> Pfds;
    std::vector<std::pair<char, uint64_t>> What; // ('l'|'s'|'c'|'e', key)
    if (ListenFd >= 0) {
      Pfds.push_back({ListenFd, POLLIN, 0});
      What.push_back({'l', 0});
    }
    Pfds.push_back({SigPipe[0], POLLIN, 0});
    What.push_back({'s', 0});
    for (auto &[Fd, C] : Conns) {
      short Ev = POLLIN;
      if (!C.Out.empty())
        Ev |= POLLOUT;
      Pfds.push_back({Fd, Ev, 0});
      What.push_back({'c', static_cast<uint64_t>(Fd)});
    }
    for (auto &[Id, E] : Pool)
      if (E.ChanFd >= 0) {
        Pfds.push_back({E.ChanFd, POLLIN, 0});
        What.push_back({'e', Id});
      }

    int TimeoutMs = 500;
    for (auto &[Id, J] : Jobs)
      if (J.Running && J.DeadlineAbs > 0) {
        int Ms = static_cast<int>((J.DeadlineAbs - Now) * 1000) + 1;
        TimeoutMs = std::min(TimeoutMs, std::max(1, Ms));
      }

    int R = ::poll(Pfds.data(), Pfds.size(), TimeoutMs);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      std::fprintf(stderr, "privateer-served: poll: %s\n",
                   std::strerror(errno));
      return 1;
    }

    for (size_t I = 0; I < Pfds.size(); ++I) {
      if (Pfds[I].revents == 0)
        continue;
      char Kind = What[I].first;
      if (Kind == 'l') {
        acceptClients();
      } else if (Kind == 's') {
        char Buf[64];
        while (::read(SigPipe[0], Buf, sizeof(Buf)) > 0) {
        }
      } else if (Kind == 'c') {
        int Fd = static_cast<int>(What[I].second);
        auto It = Conns.find(Fd);
        if (It == Conns.end())
          continue;
        if (Pfds[I].revents & (POLLERR | POLLNVAL)) {
          dropConn(Fd, "socket error");
          continue;
        }
        if (Pfds[I].revents & POLLOUT) {
          flushConn(It->second);
          // flushConn may drop the connection (CloseAfterFlush).
          It = Conns.find(Fd);
          if (It == Conns.end())
            continue;
        }
        if (Pfds[I].revents & (POLLIN | POLLHUP)) {
          // readConn may drop the connection; re-find afterwards.
          readConn(It->second);
        }
      } else if (Kind == 'e') {
        auto It = Pool.find(What[I].second);
        if (It == Pool.end() || It->second.ChanFd < 0)
          continue;
        readExecutive(It->second);
      }
    }
    // Completed executives may have opened dispatch room even without a
    // finishJob this pass.
    pumpQueue();
  }
}

// --- Connections ---------------------------------------------------------

void Server::acceptClients() {
  while (true) {
    int Fd = ::accept4(ListenFd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0)
      return;
    if (Opts.SendBufBytes > 0)
      ::setsockopt(Fd, SOL_SOCKET, SO_SNDBUF, &Opts.SendBufBytes,
                   sizeof(int));
    Conn C;
    C.Fd = Fd;
    C.Frames = FrameAssembler(Opts.MaxFrameBytes);
    Conns.emplace(Fd, std::move(C));
    ++stat("connections_accepted");
  }
}

void Server::readConn(Conn &C) {
  int Fd = C.Fd;
  char Buf[64 << 10];
  bool Closed = false;
  while (true) {
    // Plain recv: the kernel discards any descriptors a client attaches.
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      C.Frames.feed(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N == 0)
      Closed = true;
    else if (errno == EINTR)
      continue;
    else if (errno != EAGAIN && errno != EWOULDBLOCK)
      Closed = true;
    break;
  }

  while (true) {
    MsgType Type;
    std::string Body, Err;
    FrameAssembler::Result R = C.Frames.next(Type, Body, Err);
    if (R == FrameAssembler::Result::NeedMore)
      break;
    if (R == FrameAssembler::Result::Malformed) {
      protocolError(C, Err);
      return;
    }
    handleFrame(C, Type, Body);
    if (Conns.find(Fd) == Conns.end())
      return; // handler dropped the connection
  }

  if (Closed)
    dropConn(Fd, "client closed");
}

void Server::handleFrame(Conn &C, MsgType Type, const std::string &Body) {
  switch (Type) {
  case MsgType::SubmitJob:
    handleSubmit(C, Body);
    return;
  case MsgType::StatusRequest:
    sendFrame(C, MsgType::StatusReply, statusJson());
    return;
  case MsgType::Drain:
    sendFrame(C, MsgType::Ack, "");
    beginDrain();
    return;
  case MsgType::Shutdown:
    sendFrame(C, MsgType::Ack, "");
    beginShutdown();
    return;
  default:
    protocolError(C, "unexpected frame type " +
                         std::to_string(static_cast<unsigned>(Type)));
    return;
  }
}

void Server::protocolError(Conn &C, const std::string &Why) {
  ++stat("malformed_frames");
  if (Opts.Verbose)
    std::fprintf(stderr, "[privateer-served] protocol error on fd %d: %s\n",
                 C.Fd, Why.c_str());
  // Best-effort courtesy frame; the stream may already be garbage.
  std::string Err;
  writeFrame(C.Fd, MsgType::Error, Why, Err);
  dropConn(C.Fd, "protocol error");
}

void Server::dropConn(int Fd, const char *Why) {
  auto It = Conns.find(Fd);
  if (It == Conns.end())
    return;
  Conn &C = It->second;
  if (C.ActiveJob != 0) {
    auto JIt = Jobs.find(C.ActiveJob);
    if (JIt != Jobs.end()) {
      Job &J = JIt->second;
      if (J.Running) {
        // Mid-invocation disconnect: kill the executive tree; the reap
        // path frees the admission slot and counts the cancellation.
        killJob(J, KillCause::ClientGone);
      } else {
        Queue.erase(std::remove(Queue.begin(), Queue.end(), J.Id),
                    Queue.end());
        ++stat("jobs_canceled");
        Jobs.erase(JIt);
      }
    }
  }
  if (Opts.Verbose)
    std::fprintf(stderr, "[privateer-served] closing fd %d (%s)\n", Fd, Why);
  ::close(Fd);
  Conns.erase(It);
  ++stat("connections_closed");
  pumpQueue();
}

void Server::sendFrame(Conn &C, MsgType Type, const std::string &Body) {
  std::string Frame;
  uint32_t Len = static_cast<uint32_t>(1 + Body.size());
  for (int I = 0; I < 4; ++I)
    Frame.push_back(static_cast<char>((Len >> (8 * I)) & 0xff));
  Frame.push_back(static_cast<char>(Type));
  Frame.append(Body);
  C.Out.append(Frame);
  flushConn(C);
}

void Server::flushConn(Conn &C) {
  while (!C.Out.empty()) {
    ssize_t N = ::write(C.Fd, C.Out.data(), C.Out.size());
    if (N > 0) {
      C.Out.erase(0, static_cast<size_t>(N));
      C.LastWriteProgress = wallSeconds();
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    break; // EAGAIN: wait for POLLOUT; hard errors surface via POLLIN/ERR
  }
  if (C.Out.empty()) {
    C.LastWriteProgress = 0;
    if (C.CloseAfterFlush)
      dropConn(C.Fd, "flushed");
    return;
  }
  // Output is pending: start the stall clock if it isn't running, and mark
  // connections whose backlog outgrew the cap.  The drop itself is
  // deferred to checkConnHealth so reply paths holding this Conn& (and
  // the event loop's iterators) stay valid.
  if (C.LastWriteProgress == 0)
    C.LastWriteProgress = wallSeconds();
  if (Opts.MaxConnBufferBytes > 0 && C.Out.size() > Opts.MaxConnBufferBytes &&
      !C.Doomed) {
    C.Doomed = true;
    C.DoomWhy = "slow reader: output buffer cap exceeded";
  }
}

void Server::checkConnHealth(double Now) {
  std::vector<std::pair<int, const char *>> Drop;
  for (auto &[Fd, C] : Conns) {
    if (C.Doomed) {
      Drop.push_back({Fd, C.DoomWhy});
      continue;
    }
    if (C.Out.empty() || C.LastWriteProgress == 0 || Opts.WriteStallSec <= 0)
      continue;
    if (Now - C.LastWriteProgress > Opts.WriteStallSec * timeoutScale())
      Drop.push_back({Fd, "slow reader: no write progress before deadline"});
  }
  for (auto &[Fd, Why] : Drop) {
    ++stat("slow_client_drops");
    dropConn(Fd, Why);
  }
}

// --- Jobs ----------------------------------------------------------------

void Server::handleSubmit(Conn &C, const std::string &Body) {
  ++stat("jobs_submitted");
  JobRequest Req;
  std::string Err;
  if (!decodeJobRequest(Body, Req, Err)) {
    protocolError(C, Err);
    return;
  }
  auto Reject = [&](JobStatus S, const std::string &Why) {
    JobReply R;
    R.Status = S;
    R.Error = Why;
    sendFrame(C, MsgType::JobResult, encodeJobReply(R));
  };

  // Idempotent resubmission: a client that reconnected after losing the
  // original reply gets the remembered answer instead of a second run.
  if (Req.IdempotencyKey != 0) {
    auto RIt = Replay.find(Req.IdempotencyKey);
    if (RIt != Replay.end()) {
      ++stat("idempotent_replays");
      JobReply R = RIt->second;
      R.IdempotentReplay = true;
      sendFrame(C, MsgType::JobResult, encodeJobReply(R));
      return;
    }
  }
  if (Draining) {
    Reject(JobStatus::Draining, "daemon is draining");
    return;
  }
  if (C.ActiveJob != 0) {
    protocolError(C, "second SubmitJob while a job is outstanding");
    return;
  }
  if (Req.NumWorkers < 1 || Req.NumWorkers > kMaxWorkers) {
    ++stat("jobs_rejected");
    Reject(JobStatus::Rejected, "NumWorkers must be 1-" +
                                    std::to_string(kMaxWorkers) + ", got " +
                                    std::to_string(Req.NumWorkers));
    return;
  }
  unsigned Cost = Req.NumWorkers + 1;
  if (Cost > Opts.WorkerBudget) {
    ++stat("jobs_rejected");
    Reject(JobStatus::Rejected,
           "job needs " + std::to_string(Cost) + " processes, budget is " +
               std::to_string(Opts.WorkerBudget));
    return;
  }
  if (Queue.size() >= Opts.QueueDepth) {
    ++stat("jobs_rejected");
    Reject(JobStatus::Rejected, "admission queue full");
    return;
  }

  // Warm program cache: parse + pipeline happen at most once per program.
  bool Hit = false, Transient = false;
  std::shared_ptr<CachedProgram> Prog = Cache.lookup(
      Req.ModuleText, static_cast<Strategy>(Req.Strat), Err, Hit, Transient);
  stat("cache_hits") = Cache.hits();
  stat("cache_misses") = Cache.misses();
  stat("cache_evictions") = Cache.evictions();
  if (!Prog) {
    ++stat("jobs_failed");
    Reject(Transient ? JobStatus::InternalError : JobStatus::ParseError, Err);
    return;
  }
  if (Prog->Poisoned) {
    // This exact program text already killed an executive with a
    // deterministic program-class signal; answer from the cached negative
    // verdict instead of crashing another one.
    ++stat("negative_verdicts");
    ++stat("jobs_failed");
    JobReply R = Prog->PoisonReply;
    R.CacheHit = true;
    sendFrame(C, MsgType::JobResult, encodeJobReply(R));
    return;
  }
  if (Req.Mode == JobMode::Speculative && !Prog->Transformed) {
    ++stat("jobs_failed");
    std::string Why = "no parallelizable loop";
    if (!Prog->LastLog.empty())
      Why += ": " + Prog->LastLog;
    Reject(JobStatus::NotParallelizable, Why);
    return;
  }

  Job J;
  J.Id = NextJobId++;
  J.ConnFd = C.Fd;
  J.Req = std::move(Req);
  J.Prog = std::move(Prog);
  J.CacheHit = Hit;
  J.SubmitT = wallSeconds();
  J.Cost = Cost;
  C.ActiveJob = J.Id;
  ++stat("jobs_accepted");
  uint64_t Id = J.Id;
  Jobs.emplace(Id, std::move(J));
  Queue.push_back(Id);
  QueuePeak = std::max(QueuePeak, Queue.size());
  stat("queue_peak") = QueuePeak;
  pumpQueue();
}

void Server::pumpQueue() {
  // FIFO against the worker budget: the head job either fits the
  // remaining budget and finds an idle executive, or every job waits.  No
  // overtaking, so a wide job cannot starve.
  while (true) {
    // Drop stale ids (jobs canceled while queued).
    while (!Queue.empty() && Jobs.find(Queue.front()) == Jobs.end())
      Queue.pop_front();
    if (Queue.empty())
      return;
    Job &Head = Jobs.find(Queue.front())->second;
    if (WorkersInUse + Head.Cost > Opts.WorkerBudget)
      return;
    if (Pool.empty()) {
      // Every respawn failed.  socketpair/fork failures (EMFILE,
      // EAGAIN/ENOMEM under load) are infra-class: the head job goes
      // through the retry ladder like any other resource exhaustion.
      std::string Err;
      if (!spawnExecutive(Err)) {
        Queue.pop_front();
        JobReply R;
        R.Status = JobStatus::InternalError;
        R.Cause = FailureCause::InfraFork;
        R.Error = Err;
        retryOrFail(Head, std::move(R));
        continue;
      }
    }
    Executive *E = idleExecutive();
    if (!E)
      return;
    Queue.pop_front();
    if (!startJob(Head, *E)) {
      // The channel is broken: replace the executive.  The job keeps its
      // place at the front of the queue for the next pass.
      retireExecutive(E->Id);
      Queue.push_front(Head.Id);
      return;
    }
  }
}

void Server::reapChildren() {
  while (true) {
    int St = 0;
    pid_t Pid = ::waitpid(-1, &St, WNOHANG);
    if (Pid <= 0)
      return;
    auto EIt = std::find_if(Pool.begin(), Pool.end(),
                            [Pid](const auto &P) { return P.second.Pid == Pid; });
    if (EIt == Pool.end())
      continue;
    // A reply may still sit in the dead executive's channel; collect it
    // first.
    Executive &E = EIt->second;
    uint64_t JobId = E.ActiveJob;
    if (E.ChanFd >= 0)
      readExecutive(E);
    auto JIt = Jobs.find(JobId);
    if (JIt != Jobs.end() && JIt->second.Running && !JIt->second.Reply) {
      JIt->second.Reaped = true;
      JIt->second.WaitStatus = St;
    }
    retireExecutive(EIt->first);
  }
}

void Server::checkDeadlines(double Now) {
  for (auto &[Id, J] : Jobs)
    if (J.Running && !J.Reaped && J.Killed == KillCause::None &&
        J.DeadlineAbs > 0 && Now > J.DeadlineAbs)
      killJob(J, KillCause::Deadline);
}

void Server::killJob(Job &J, KillCause Cause) {
  if (!J.Running || J.Killed != KillCause::None)
    return;
  J.Killed = Cause;
  if (J.Pid > 0) {
    ::kill(-J.Pid, SIGKILL); // the whole executive process group
    ::kill(J.Pid, SIGKILL);  // belt and braces if setpgid lost the race
  }
}

void Server::replyToJob(const Job &J, JobReply R) {
  double Now = wallSeconds();
  R.QueueSec = J.StartT > 0 ? J.StartT - J.SubmitT : Now - J.SubmitT;
  R.WallSec = Now - J.SubmitT;
  R.CacheHit = J.CacheHit;
  R.Attempts = J.Attempt + 1;
  // Remember the reply before looking for the connection: an answer
  // computed for a client that vanished mid-send must still be replayable
  // when that client reconnects with the same idempotency key.
  rememberReply(J, R);
  auto It = Conns.find(J.ConnFd);
  if (It == Conns.end())
    return;
  sendFrame(It->second, MsgType::JobResult, encodeJobReply(R));
  // sendFrame may have doomed a slow reader, but the Conn object survives
  // until checkConnHealth, so this write stays valid.
  It->second.ActiveJob = 0;
}

void Server::rememberReply(const Job &J, const JobReply &R) {
  if (J.Req.IdempotencyKey == 0 || Opts.ReplayEntries == 0)
    return;
  // Backpressure and shutdown verdicts are retryable conditions, not
  // outcomes of the job itself; replaying them would wedge the client.
  if (R.Status == JobStatus::Rejected || R.Status == JobStatus::Draining ||
      R.Status == JobStatus::Canceled)
    return;
  if (Replay.emplace(J.Req.IdempotencyKey, R).second) {
    ReplayOrder.push_back(J.Req.IdempotencyKey);
    while (ReplayOrder.size() > Opts.ReplayEntries) {
      Replay.erase(ReplayOrder.front());
      ReplayOrder.pop_front();
    }
  }
}

JobReply Server::triageFailure(const Job &J) {
  JobReply R;
  int St = J.WaitStatus;
  if (WIFSIGNALED(St)) {
    int Sig = WTERMSIG(St);
    R.TermSignal = static_cast<uint32_t>(Sig);
    if (Sig == SIGXCPU) {
      R.Status = JobStatus::ResourceLimit;
      R.Cause = FailureCause::CpuLimit;
      R.Error = "supervisor exceeded its CPU budget (SIGXCPU)";
    } else {
      R.Status = JobStatus::Crashed;
      R.Cause = FailureCause::Signal;
      R.Error = std::string("supervisor killed by signal ") +
                std::to_string(Sig);
      if (const char *Name = ::strsignal(Sig))
        R.Error += std::string(" (") + Name + ")";
    }
  } else if (WIFEXITED(St) && WEXITSTATUS(St) != 0) {
    int Code = WEXITSTATUS(St);
    R.SupExitCode = static_cast<uint32_t>(Code);
    if (Code == 4) {
      // The executive's own _exit code when its reply could not be
      // written — infrastructure, not the program.
      R.Status = JobStatus::InternalError;
      R.Cause = FailureCause::ResultTruncated;
      R.Error =
          "supervisor could not deliver its result (exit " +
          std::to_string(Code) + ")";
    } else {
      R.Status = JobStatus::Crashed;
      R.Cause = FailureCause::NonzeroExit;
      R.Error =
          "supervisor exited with status " + std::to_string(Code);
    }
  } else {
    // Exited 0 without a reply.
    R.Status = JobStatus::Crashed;
    R.Cause = FailureCause::ResultTruncated;
    R.Error = "supervisor result truncated";
  }
  return R;
}

bool Server::retryOrFail(Job &J, JobReply R) {
  if (isInfraFailure(R.Cause) && J.Attempt < Opts.MaxRetries) {
    // Degrade ladder: attempt 1 halves the workers, attempt 2 runs
    // sequentially.  The requeued job goes to the front of the queue so
    // its client is not re-penalized with another full wait.
    ++J.Attempt;
    ++stat("retries");
    if (J.Req.Mode != JobMode::Sequential) {
      if (J.Attempt >= 2 || J.Req.NumWorkers <= 2) {
        J.Req.Mode = JobMode::Sequential;
        J.Req.NumWorkers = 1;
      } else {
        J.Req.NumWorkers = std::max(1u, J.Req.NumWorkers / 2);
      }
    }
    J.Cost = J.Req.NumWorkers + 1;
    J.Running = false;
    J.ExecId = 0;
    J.Pid = -1;
    J.Reply.reset();
    J.Reaped = false;
    J.WaitStatus = 0;
    J.Killed = KillCause::None;
    J.DeadlineAbs = 0;
    if (Opts.Verbose)
      std::fprintf(stderr,
                   "[privateer-served] job %llu retry %u (%s): %s — now %s "
                   "with %u workers\n",
                   static_cast<unsigned long long>(J.Id), J.Attempt,
                   failureCauseName(R.Cause), R.Error.c_str(),
                   J.Req.Mode == JobMode::Sequential ? "sequential"
                                                     : "speculative",
                   J.Req.NumWorkers);
    Queue.push_front(J.Id);
    return true;
  }

  switch (R.Status) {
  case JobStatus::Crashed:
    ++stat("jobs_crashed");
    break;
  case JobStatus::ResourceLimit:
    ++stat("jobs_resource_limit");
    break;
  default:
    ++stat("jobs_failed");
    break;
  }
  if (Opts.Verbose)
    std::fprintf(stderr, "[privateer-served] job %llu failed: %s (%s)\n",
                 static_cast<unsigned long long>(J.Id),
                 jobStatusName(R.Status), failureCauseName(R.Cause));
  replyToJob(J, std::move(R));
  Jobs.erase(J.Id);
  return false;
}

void Server::finishJob(Job &J) {
  double Now = wallSeconds();
  StatisticRegistry &Reg = StatisticRegistry::instance();
  Reg.real("service", "exec_sec") += Now - J.StartT;
  Reg.real("service", "queue_wait_sec") += J.StartT - J.SubmitT;

  // Release this attempt's budget and executive before anything else; a
  // retry re-acquires admission at its (possibly smaller) degraded cost.
  WorkersInUse -= J.Cost;
  auto EIt = Pool.find(J.ExecId);
  if (EIt != Pool.end() && EIt->second.ActiveJob == J.Id)
    EIt->second.ActiveJob = 0;

  if (J.Killed == KillCause::ClientGone) {
    ++stat("jobs_canceled");
    auto It = Conns.find(J.ConnFd);
    if (It != Conns.end())
      It->second.ActiveJob = 0;
    Jobs.erase(J.Id);
    pumpQueue();
    return;
  }
  if (J.Killed == KillCause::Deadline || J.Killed == KillCause::Shutdown) {
    JobReply R;
    if (J.Killed == KillCause::Deadline) {
      ++stat("jobs_timeout");
      R.Status = JobStatus::TimedOut;
      R.Cause = FailureCause::Deadline;
      R.Error = "deadline exceeded; supervisor killed";
    } else {
      ++stat("jobs_canceled");
      R.Status = JobStatus::Canceled;
      R.Cause = FailureCause::Shutdown;
      R.Error = "daemon shut down";
    }
    if (Opts.Verbose)
      std::fprintf(stderr, "[privateer-served] job %llu done: %s\n",
                   static_cast<unsigned long long>(J.Id),
                   jobStatusName(R.Status));
    replyToJob(J, std::move(R));
    Jobs.erase(J.Id);
    pumpQueue();
    return;
  }

  // The executive finished on its own: take its reply, or triage its
  // corpse into a typed failure.
  JobReply R;
  if (J.Reply) {
    R = std::move(*J.Reply);
    // Executives don't know the daemon-side pipeline cost; patch it in so
    // a cold reply carries it.
    R.PipelineSec = J.CacheHit || !J.Prog ? 0 : J.Prog->PipelineSec;
  }
  if (J.Reply && R.Status == JobStatus::Ok) {
    ++stat("jobs_completed");
    // Jobs execute in executive processes, so their runtime registries
    // die with them; fold the reply's counters into the daemon registry so
    // the status JSON aggregates them.
    mirrorCounters(R);
    if (J.Attempt > 0)
      ++stat("retry_success");
    if (Opts.Verbose)
      std::fprintf(stderr, "[privateer-served] job %llu done: ok%s\n",
                   static_cast<unsigned long long>(J.Id),
                   J.Attempt > 0 ? " (after retry)" : "");
    replyToJob(J, std::move(R));
    Jobs.erase(J.Id);
    pumpQueue();
    return;
  }
  if (!J.Reply) {
    R = triageFailure(J);
    // Deterministic program-class crash signals poison the cached program:
    // resubmitting the same text answers from the negative verdict instead
    // of crashing another executive.  External SIGKILL/SIGTERM say
    // nothing about the program and never poison.
    if (J.Prog && R.Cause == FailureCause::Signal) {
      int Sig = static_cast<int>(R.TermSignal);
      if (Sig == SIGSEGV || Sig == SIGBUS || Sig == SIGABRT ||
          Sig == SIGFPE || Sig == SIGILL) {
        J.Prog->Poisoned = true;
        J.Prog->PoisonReply = JobReply();
        J.Prog->PoisonReply.Status = R.Status;
        J.Prog->PoisonReply.Cause = R.Cause;
        J.Prog->PoisonReply.TermSignal = R.TermSignal;
        J.Prog->PoisonReply.Error = "cached negative verdict: " + R.Error;
      }
    }
  }
  retryOrFail(J, std::move(R));
  pumpQueue();
}

// --- Control plane -------------------------------------------------------

void Server::beginDrain() {
  if (Draining)
    return;
  Draining = true;
  if (Opts.Verbose)
    std::fprintf(stderr, "[privateer-served] draining: %zu queued, %zu "
                 "total jobs\n",
                 Queue.size(), Jobs.size());
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
    ::unlink(Opts.SocketPath.c_str());
  }
}

void Server::beginShutdown() {
  // Cancel the queue first so pumpQueue cannot start new executives as
  // running jobs die.
  for (uint64_t Id : Queue) {
    auto It = Jobs.find(Id);
    if (It == Jobs.end())
      continue;
    ++stat("jobs_canceled");
    JobReply R;
    R.Status = JobStatus::Canceled;
    R.Error = "daemon shut down";
    replyToJob(It->second, std::move(R));
    Jobs.erase(It);
  }
  Queue.clear();
  for (auto &[Id, J] : Jobs)
    if (J.Running)
      killJob(J, KillCause::Shutdown);
  beginDrain();
}

std::string Server::statusJson() const {
  stat("cache_hits") = Cache.hits();
  stat("cache_misses") = Cache.misses();
  stat("cache_evictions") = Cache.evictions();
  size_t Idle = std::count_if(Pool.begin(), Pool.end(), [](const auto &P) {
    return P.second.ActiveJob == 0 && P.second.ChanFd >= 0;
  });
  char Head[640];
  std::snprintf(Head, sizeof(Head),
                "{\"pid\": %d, \"uptime_sec\": %.3f, \"draining\": %s, "
                "\"queue_depth\": %zu, \"active_jobs\": %zu, "
                "\"workers_in_use\": %u, \"worker_budget\": %u, "
                "\"cache_entries\": %zu, \"executives\": %zu, "
                "\"executives_idle\": %zu, \"counters\": ",
                static_cast<int>(::getpid()), wallSeconds() - StartTime,
                Draining ? "true" : "false", Queue.size(),
                Jobs.size() - Queue.size(), WorkersInUse, Opts.WorkerBudget,
                Cache.size(), Pool.size(), Idle);
  return Head + StatisticRegistry::instance().toJson() + "}";
}
