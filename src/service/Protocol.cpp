//===- service/Protocol.cpp -----------------------------------------------===//

#include "service/Protocol.h"

#include "runtime/Runtime.h"
#include "support/Timing.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

using namespace privateer;
using namespace privateer::service;

const char *service::jobStatusName(JobStatus S) {
  switch (S) {
  case JobStatus::Ok:
    return "ok";
  case JobStatus::Rejected:
    return "rejected";
  case JobStatus::ParseError:
    return "parse-error";
  case JobStatus::NotParallelizable:
    return "not-parallelizable";
  case JobStatus::Crashed:
    return "crashed";
  case JobStatus::TimedOut:
    return "timed-out";
  case JobStatus::Canceled:
    return "canceled";
  case JobStatus::Draining:
    return "draining";
  case JobStatus::InternalError:
    return "internal-error";
  case JobStatus::ResourceLimit:
    return "resource-limit";
  }
  return "unknown";
}

const char *service::failureCauseName(FailureCause C) {
  switch (C) {
  case FailureCause::None:
    return "none";
  case FailureCause::Deadline:
    return "deadline";
  case FailureCause::ClientGone:
    return "client-gone";
  case FailureCause::OutOfMemory:
    return "out-of-memory";
  case FailureCause::CpuLimit:
    return "cpu-limit";
  case FailureCause::Signal:
    return "signal";
  case FailureCause::NonzeroExit:
    return "nonzero-exit";
  case FailureCause::InfraFork:
    return "infra-fork";
  case FailureCause::ResultTruncated:
    return "result-truncated";
  case FailureCause::Shutdown:
    return "shutdown";
  }
  return "unknown";
}

// --- Flat field encoding -------------------------------------------------

namespace {

void putU8(std::string &B, uint8_t V) { B.push_back(static_cast<char>(V)); }

void putU32(std::string &B, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    B.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putU64(std::string &B, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    B.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putF64(std::string &B, double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  putU64(B, Bits);
}

void putStr(std::string &B, const std::string &S) {
  putU32(B, static_cast<uint32_t>(S.size()));
  B.append(S);
}

/// Bounds-checked sequential reader over a body.  Every get* returns
/// false once the body is exhausted, so truncated frames decode to a
/// clean error rather than UB.
struct Cursor {
  const uint8_t *P;
  size_t Left;

  explicit Cursor(const std::string &B)
      : P(reinterpret_cast<const uint8_t *>(B.data())), Left(B.size()) {}

  bool getU8(uint8_t &V) {
    if (Left < 1)
      return false;
    V = *P++;
    --Left;
    return true;
  }

  bool getU32(uint32_t &V) {
    if (Left < 4)
      return false;
    V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(P[I]) << (8 * I);
    P += 4;
    Left -= 4;
    return true;
  }

  bool getU64(uint64_t &V) {
    if (Left < 8)
      return false;
    V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(P[I]) << (8 * I);
    P += 8;
    Left -= 8;
    return true;
  }

  bool getF64(double &V) {
    uint64_t Bits;
    if (!getU64(Bits))
      return false;
    std::memcpy(&V, &Bits, sizeof(V));
    return true;
  }

  bool getStr(std::string &S) {
    uint32_t Len;
    if (!getU32(Len) || Left < Len)
      return false;
    S.assign(reinterpret_cast<const char *>(P), Len);
    P += Len;
    Left -= Len;
    return true;
  }
};

} // namespace

std::string service::encodeJobRequest(const JobRequest &R) {
  std::string B;
  putU8(B, kProtocolVersion);
  putStr(B, R.ModuleText);
  putU8(B, static_cast<uint8_t>(R.Mode));

  putU32(B, R.NumWorkers);
  putU64(B, R.CheckpointPeriod);
  putU64(B, R.MaxSlotsPerEpoch);
  putF64(B, R.InjectMisspecRate);
  putU64(B, R.InjectSeed);
  putU8(B, R.EagerCommit ? 1 : 0);
  putF64(B, R.StallTimeoutSec);
  putF64(B, R.DeadlineSec);
  putStr(B, R.TracePath);
  putU64(B, R.IdempotencyKey);
  putU64(B, R.MaxMemoryBytes);
  putU32(B, R.MaxCpuSec);
  putU32(B, R.MaxOpenFiles);
  putU8(B, R.FaultKillSupervisor ? 1 : 0);
  putU32(B, R.FaultKillWorker);
  putU64(B, R.FaultKillAtIter);
  putU32(B, R.FaultStallWorker);
  putU64(B, R.FaultStallAtIter);
  putF64(B, R.FaultStallSeconds);
  putF64(B, R.FaultKillRate);
  putU64(B, R.FaultSeed);
  putU32(B, R.FaultSupervisorSignal);
  putU32(B, R.FaultSupervisorExit);
  putU32(B, R.FaultOomAttempts);
  putU64(B, R.FaultAllocBytes);
  putF64(B, R.FaultBurnCpuSec);
  putU8(B, R.Strat);
  putU32(B, R.NumStages);
  return B;
}

bool service::decodeJobRequest(const std::string &Body, JobRequest &R,
                               std::string &Err) {
  Cursor C(Body);
  uint8_t Version = 0, Mode = 0, Eager = 0, KillSup = 0;
  if (!C.getU8(Version)) {
    Err = "empty SubmitJob body";
    return false;
  }
  if (Version != kProtocolVersion) {
    Err = "unsupported protocol version " + std::to_string(Version);
    return false;
  }
  bool Ok =
      C.getStr(R.ModuleText) && C.getU8(Mode) &&
      C.getU32(R.NumWorkers) && C.getU64(R.CheckpointPeriod) &&
      C.getU64(R.MaxSlotsPerEpoch) && C.getF64(R.InjectMisspecRate) &&
      C.getU64(R.InjectSeed) && C.getU8(Eager) &&
      C.getF64(R.StallTimeoutSec) && C.getF64(R.DeadlineSec) &&
      C.getStr(R.TracePath) && C.getU64(R.IdempotencyKey) &&
      C.getU64(R.MaxMemoryBytes) && C.getU32(R.MaxCpuSec) &&
      C.getU32(R.MaxOpenFiles) && C.getU8(KillSup) &&
      C.getU32(R.FaultKillWorker) && C.getU64(R.FaultKillAtIter) &&
      C.getU32(R.FaultStallWorker) && C.getU64(R.FaultStallAtIter) &&
      C.getF64(R.FaultStallSeconds) && C.getF64(R.FaultKillRate) &&
      C.getU64(R.FaultSeed) && C.getU32(R.FaultSupervisorSignal) &&
      C.getU32(R.FaultSupervisorExit) && C.getU32(R.FaultOomAttempts) &&
      C.getU64(R.FaultAllocBytes) && C.getF64(R.FaultBurnCpuSec) &&
      C.getU8(R.Strat) && C.getU32(R.NumStages);
  if (!Ok) {
    Err = "truncated SubmitJob body";
    return false;
  }
  if (Mode > static_cast<uint8_t>(JobMode::Sequential)) {
    Err = "bad job mode " + std::to_string(Mode);
    return false;
  }
  if (R.Strat > static_cast<uint8_t>(Strategy::Pipeline)) {
    Err = "bad strategy " + std::to_string(R.Strat);
    return false;
  }
  R.Mode = static_cast<JobMode>(Mode);
  R.EagerCommit = Eager != 0;
  R.FaultKillSupervisor = KillSup != 0;
  return true;
}

std::string service::encodeJobReply(const JobReply &R) {
  std::string B;
  putU8(B, kProtocolVersion);
  putU8(B, static_cast<uint8_t>(R.Status));
  putU8(B, static_cast<uint8_t>(R.Cause));
  putU32(B, R.TermSignal);
  putU32(B, R.SupExitCode);
  putU32(B, R.Attempts);
  putU8(B, R.IdempotentReplay ? 1 : 0);
  putStr(B, R.Error);
  putStr(B, R.Output);
  putU64(B, static_cast<uint64_t>(R.ExitValue));
  putU8(B, R.CacheHit ? 1 : 0);
#define PRIVATEER_STAT_PUT(Name, Combine, Group, Key, Who) putU64(B, R.Name);
  PRIVATEER_STATS_COUNTERS(PRIVATEER_STAT_PUT)
#undef PRIVATEER_STAT_PUT
  putStr(B, R.MisspecReason);
  putF64(B, R.PipelineSec);
  putF64(B, R.ExecSec);
  putF64(B, R.QueueSec);
  putF64(B, R.WallSec);
  return B;
}

bool service::decodeJobReply(const std::string &Body, JobReply &R,
                             std::string &Err) {
  Cursor C(Body);
  uint8_t Version = 0, Status = 0, Cause = 0, Replay = 0, CacheHit = 0;
  uint64_t Exit = 0;
  if (!C.getU8(Version)) {
    Err = "empty JobResult body";
    return false;
  }
  if (Version != kProtocolVersion) {
    Err = "unsupported protocol version " + std::to_string(Version);
    return false;
  }
  if (!C.getU8(Status) || !C.getU8(Cause) || !C.getU32(R.TermSignal) ||
      !C.getU32(R.SupExitCode) || !C.getU32(R.Attempts) ||
      !C.getU8(Replay) || !C.getStr(R.Error) || !C.getStr(R.Output) ||
      !C.getU64(Exit) || !C.getU8(CacheHit) ||
#define PRIVATEER_STAT_GET(Name, Combine, Group, Key, Who) !C.getU64(R.Name) ||
      PRIVATEER_STATS_COUNTERS(PRIVATEER_STAT_GET)
#undef PRIVATEER_STAT_GET
      !C.getStr(R.MisspecReason) || !C.getF64(R.PipelineSec) ||
      !C.getF64(R.ExecSec) || !C.getF64(R.QueueSec) || !C.getF64(R.WallSec)) {
    Err = "truncated JobResult body";
    return false;
  }
  if (Status > static_cast<uint8_t>(JobStatus::ResourceLimit)) {
    Err = "bad job status " + std::to_string(Status);
    return false;
  }
  if (Cause > static_cast<uint8_t>(FailureCause::Shutdown)) {
    Err = "bad failure cause " + std::to_string(Cause);
    return false;
  }
  R.Status = static_cast<JobStatus>(Status);
  R.Cause = static_cast<FailureCause>(Cause);
  R.IdempotentReplay = Replay != 0;
  R.ExitValue = static_cast<int64_t>(Exit);
  R.CacheHit = CacheHit != 0;
  return true;
}

// --- ExecAssign ----------------------------------------------------------

std::string service::encodeExecAssign(const ExecAssignment &A) {
  std::string B;
  putU64(B, A.ProgramKey);
  putU64(B, A.Generation);
  putU8(B, A.UseParallel ? 1 : 0);
  putU32(B, A.Attempt);
  putStr(B, encodeJobRequest(A.Req));
  return B;
}

bool service::decodeExecAssign(const std::string &Body, ExecAssignment &A,
                               std::string &Err) {
  Cursor C(Body);
  uint8_t Par = 0;
  std::string ReqBody;
  if (!C.getU64(A.ProgramKey) || !C.getU64(A.Generation) || !C.getU8(Par) ||
      !C.getU32(A.Attempt) || !C.getStr(ReqBody)) {
    Err = "truncated ExecAssign body";
    return false;
  }
  A.UseParallel = Par != 0;
  return decodeJobRequest(ReqBody, A.Req, Err);
}

// --- Frame I/O -----------------------------------------------------------

bool service::writeFrame(int Fd, MsgType Type, const std::string &Body,
                         std::string &Err) {
  std::string Frame;
  Frame.reserve(5 + Body.size());
  putU32(Frame, static_cast<uint32_t>(1 + Body.size()));
  putU8(Frame, static_cast<uint8_t>(Type));
  Frame.append(Body);

  size_t Done = 0;
  while (Done < Frame.size()) {
    // MSG_NOSIGNAL: a peer that died mid-conversation must surface as
    // EPIPE for the reconnect path, not as a process-killing SIGPIPE.
    ssize_t N = ::send(Fd, Frame.data() + Done, Frame.size() - Done,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Callers use blocking fds; a non-blocking fd that fills mid-frame
        // waits for drain rather than corrupting the stream.
        pollfd P{Fd, POLLOUT, 0};
        ::poll(&P, 1, 100);
        continue;
      }
      Err = std::string("write: ") + std::strerror(errno);
      return false;
    }
    Done += static_cast<size_t>(N);
  }
  return true;
}

bool service::writeFrameWithFds(int Fd, MsgType Type, const std::string &Body,
                                const int *Fds, size_t NumFds,
                                std::string &Err) {
  if (NumFds == 0)
    return writeFrame(Fd, Type, Body, Err);

  std::string Frame;
  Frame.reserve(5 + Body.size());
  putU32(Frame, static_cast<uint32_t>(1 + Body.size()));
  putU8(Frame, static_cast<uint8_t>(Type));
  Frame.append(Body);

  // The SCM_RIGHTS cmsg rides on the first byte only: the kernel delivers
  // the descriptors with whichever recvmsg() consumes that byte, and the
  // receiver's recvWithFds collects them regardless of how the rest of the
  // frame is segmented.
  alignas(cmsghdr) char Ctrl[CMSG_SPACE(sizeof(int) * 8)];
  if (NumFds > 8) {
    Err = "too many fds for one frame";
    return false;
  }
  std::memset(Ctrl, 0, sizeof(Ctrl));
  iovec Iov{const_cast<char *>(Frame.data()), 1};
  msghdr Msg{};
  Msg.msg_iov = &Iov;
  Msg.msg_iovlen = 1;
  Msg.msg_control = Ctrl;
  Msg.msg_controllen = CMSG_SPACE(sizeof(int) * NumFds);
  cmsghdr *Cm = CMSG_FIRSTHDR(&Msg);
  Cm->cmsg_level = SOL_SOCKET;
  Cm->cmsg_type = SCM_RIGHTS;
  Cm->cmsg_len = CMSG_LEN(sizeof(int) * NumFds);
  std::memcpy(CMSG_DATA(Cm), Fds, sizeof(int) * NumFds);

  for (;;) {
    ssize_t N = ::sendmsg(Fd, &Msg, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd P{Fd, POLLOUT, 0};
        ::poll(&P, 1, 100);
        continue;
      }
      Err = std::string("sendmsg: ") + std::strerror(errno);
      return false;
    }
    break;
  }

  // Remainder of the frame goes out as ordinary stream bytes.
  size_t Done = 1;
  while (Done < Frame.size()) {
    ssize_t N = ::send(Fd, Frame.data() + Done, Frame.size() - Done,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd P{Fd, POLLOUT, 0};
        ::poll(&P, 1, 100);
        continue;
      }
      Err = std::string("write: ") + std::strerror(errno);
      return false;
    }
    Done += static_cast<size_t>(N);
  }
  return true;
}

ssize_t service::recvWithFds(int Fd, void *Buf, size_t Len,
                             std::vector<int> &Fds, bool &Truncated) {
  Truncated = false;
  alignas(cmsghdr) char Ctrl[CMSG_SPACE(sizeof(int) * 8)];
  iovec Iov{Buf, Len};
  msghdr Msg{};
  Msg.msg_iov = &Iov;
  Msg.msg_iovlen = 1;
  Msg.msg_control = Ctrl;
  Msg.msg_controllen = sizeof(Ctrl);

  ssize_t N;
  do {
    N = ::recvmsg(Fd, &Msg, MSG_CMSG_CLOEXEC);
  } while (N < 0 && errno == EINTR);
  if (N < 0)
    return N;

  if (Msg.msg_flags & MSG_CTRUNC)
    Truncated = true; // the kernel dropped fds; the stream state is suspect
  for (cmsghdr *Cm = CMSG_FIRSTHDR(&Msg); Cm; Cm = CMSG_NXTHDR(&Msg, Cm)) {
    if (Cm->cmsg_level != SOL_SOCKET || Cm->cmsg_type != SCM_RIGHTS)
      continue;
    size_t Count = (Cm->cmsg_len - CMSG_LEN(0)) / sizeof(int);
    int Got[8];
    std::memcpy(Got, CMSG_DATA(Cm), sizeof(int) * std::min<size_t>(Count, 8));
    for (size_t I = 0; I < Count && I < 8; ++I)
      Fds.push_back(Got[I]);
  }
  return N;
}

int service::sealedMemfd(const char *Name, const void *Data, size_t Bytes,
                         std::string &Err) {
  int MemFd = static_cast<int>(
      ::syscall(SYS_memfd_create, Name, MFD_CLOEXEC | MFD_ALLOW_SEALING));
  if (MemFd < 0) {
    Err = std::string("memfd_create: ") + std::strerror(errno);
    return -1;
  }
  size_t Done = 0;
  const char *P = static_cast<const char *>(Data);
  while (Done < Bytes) {
    ssize_t N = ::write(MemFd, P + Done, Bytes - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = std::string("memfd write: ") + std::strerror(errno);
      ::close(MemFd);
      return -1;
    }
    Done += static_cast<size_t>(N);
  }
  if (::fcntl(MemFd, F_ADD_SEALS,
              F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_WRITE | F_SEAL_SEAL) < 0) {
    Err = std::string("F_ADD_SEALS: ") + std::strerror(errno);
    ::close(MemFd);
    return -1;
  }
  return MemFd;
}

ReadStatus service::readFrame(int Fd, MsgType &Type, std::string &Body,
                              std::string &Err, double TimeoutSec,
                              size_t MaxFrame) {
  double Deadline = TimeoutSec > 0 ? wallSeconds() + TimeoutSec : 0;
  auto ReadExact = [&](void *Dst, size_t Len, bool &SawAny) -> ReadStatus {
    size_t Done = 0;
    while (Done < Len) {
      if (Deadline > 0) {
        double Left = Deadline - wallSeconds();
        if (Left <= 0)
          return ReadStatus::Timeout;
        pollfd P{Fd, POLLIN, 0};
        int R = ::poll(&P, 1, static_cast<int>(Left * 1000) + 1);
        if (R < 0 && errno != EINTR) {
          Err = std::string("poll: ") + std::strerror(errno);
          return ReadStatus::Error;
        }
        if (R <= 0)
          continue;
      }
      ssize_t N = ::read(Fd, static_cast<char *>(Dst) + Done, Len - Done);
      if (N < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
          continue;
        Err = std::string("read: ") + std::strerror(errno);
        return ReadStatus::Error;
      }
      if (N == 0) {
        if (!SawAny && Done == 0)
          return ReadStatus::Eof;
        Err = "connection closed mid-frame";
        return ReadStatus::Error;
      }
      SawAny = true;
      Done += static_cast<size_t>(N);
    }
    return ReadStatus::Ok;
  };

  bool SawAny = false;
  uint8_t Hdr[4];
  ReadStatus S = ReadExact(Hdr, 4, SawAny);
  if (S != ReadStatus::Ok)
    return S;
  uint32_t PayloadLen = 0;
  for (int I = 0; I < 4; ++I)
    PayloadLen |= static_cast<uint32_t>(Hdr[I]) << (8 * I);
  if (PayloadLen == 0 || PayloadLen > MaxFrame) {
    Err = "bad frame length " + std::to_string(PayloadLen);
    return ReadStatus::Error;
  }
  uint8_t TypeByte;
  S = ReadExact(&TypeByte, 1, SawAny);
  if (S != ReadStatus::Ok)
    return S == ReadStatus::Eof ? ReadStatus::Error : S;
  Body.resize(PayloadLen - 1);
  if (PayloadLen > 1) {
    S = ReadExact(Body.data(), PayloadLen - 1, SawAny);
    if (S != ReadStatus::Ok)
      return S == ReadStatus::Eof ? ReadStatus::Error : S;
  }
  Type = static_cast<MsgType>(TypeByte);
  return ReadStatus::Ok;
}

FrameAssembler::Result FrameAssembler::next(MsgType &Type, std::string &Body,
                                            std::string &Err) {
  if (Buf.size() < 4)
    return Result::NeedMore;
  uint32_t PayloadLen = 0;
  for (int I = 0; I < 4; ++I)
    PayloadLen |= static_cast<uint32_t>(static_cast<uint8_t>(Buf[I]))
                  << (8 * I);
  if (PayloadLen == 0 || PayloadLen > MaxFrame) {
    Err = "bad frame length " + std::to_string(PayloadLen);
    return Result::Malformed;
  }
  if (Buf.size() < 4 + static_cast<size_t>(PayloadLen))
    return Result::NeedMore;
  Type = static_cast<MsgType>(static_cast<uint8_t>(Buf[4]));
  Body.assign(Buf, 5, PayloadLen - 1);
  Buf.erase(0, 4 + static_cast<size_t>(PayloadLen));
  return Result::Frame;
}
