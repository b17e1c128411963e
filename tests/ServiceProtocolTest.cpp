//===- tests/ServiceProtocolTest.cpp - Wire-protocol robustness -----------===//
//
// The invocation service's length-prefixed binary protocol: field-level
// round trips, bounds-checked decoding of truncated bodies, incremental
// frame reassembly, and — against a live forked daemon — the requirement
// that junk bytes, oversized length prefixes, and truncated frames get
// the offending connection dropped with a clean error while every other
// client keeps being served.
//
//===----------------------------------------------------------------------===//

#include "ServiceTestUtil.h"
#include "runtime/Runtime.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "workloads/IrPrograms.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace privateer;
using namespace privateer::service;
using namespace privateer::servicetest;

namespace {

JobRequest sampleRequest() {
  JobRequest R;
  R.ModuleText = "func @main() {\n}\n";
  R.Mode = JobMode::Sequential;
  R.NumWorkers = 7;
  R.CheckpointPeriod = 48;
  R.InjectMisspecRate = 0.125;
  R.InjectSeed = 42;
  R.StallTimeoutSec = 2.5;
  R.DeadlineSec = 9.75;
  R.TracePath = "/tmp/trace.json";
  R.FaultKillSupervisor = true;
  R.FaultStallWorker = 1;
  R.FaultStallAtIter = 89;
  R.FaultStallSeconds = 6.5;
  R.IdempotencyKey = 0xdeadbeefcafef00dULL;
  R.MaxMemoryBytes = 3ULL << 30;
  R.MaxCpuSec = 17;
  R.MaxOpenFiles = 256;
  R.FaultSupervisorSignal = 11;
  R.FaultSupervisorExit = 42;
  R.FaultOomAttempts = 2;
  R.FaultAllocBytes = 1ULL << 47;
  R.FaultBurnCpuSec = 0.75;
  R.Strat = static_cast<uint8_t>(Strategy::Doacross);
  return R;
}

JobReply sampleReply() {
  JobReply R;
  R.Status = JobStatus::Ok;
  R.Cause = FailureCause::CpuLimit;
  R.TermSignal = 24;
  R.SupExitCode = 3;
  R.Attempts = 2;
  R.IdempotentReplay = true;
  R.Error = "none";
  R.Output = std::string("line1\nline2\n\0binary", 19);
  R.ExitValue = -77;
  R.CacheHit = true;
  // Every schema counter gets its own value, so a codec that drops,
  // duplicates or reorders one cannot round-trip.
  uint64_t Distinct = 1000;
#define PRIVATEER_STAT_SAMPLE(Name, Combine, Group, Key, Who)                  \
  R.Name = Distinct;                                                           \
  Distinct += 7;
  PRIVATEER_STATS_COUNTERS(PRIVATEER_STAT_SAMPLE)
#undef PRIVATEER_STAT_SAMPLE
  R.MisspecReason = "private_read of unwritten byte";
  R.PipelineSec = 0.25;
  R.ExecSec = 1.5;
  R.QueueSec = 0.0625;
  R.WallSec = 1.8125;
  return R;
}

TEST(ServiceProtocol, JobRequestRoundTrip) {
  JobRequest In = sampleRequest();
  std::string Body = encodeJobRequest(In);
  JobRequest Out;
  std::string Err;
  ASSERT_TRUE(decodeJobRequest(Body, Out, Err)) << Err;
  EXPECT_EQ(Out.ModuleText, In.ModuleText);
  EXPECT_EQ(Out.Mode, In.Mode);
  EXPECT_EQ(Out.NumWorkers, In.NumWorkers);
  EXPECT_EQ(Out.CheckpointPeriod, In.CheckpointPeriod);
  EXPECT_DOUBLE_EQ(Out.InjectMisspecRate, In.InjectMisspecRate);
  EXPECT_EQ(Out.InjectSeed, In.InjectSeed);
  EXPECT_DOUBLE_EQ(Out.StallTimeoutSec, In.StallTimeoutSec);
  EXPECT_DOUBLE_EQ(Out.DeadlineSec, In.DeadlineSec);
  EXPECT_EQ(Out.TracePath, In.TracePath);
  EXPECT_EQ(Out.FaultKillSupervisor, In.FaultKillSupervisor);
  EXPECT_EQ(Out.FaultStallWorker, In.FaultStallWorker);
  EXPECT_EQ(Out.FaultStallAtIter, In.FaultStallAtIter);
  EXPECT_DOUBLE_EQ(Out.FaultStallSeconds, In.FaultStallSeconds);
  EXPECT_EQ(Out.IdempotencyKey, In.IdempotencyKey);
  EXPECT_EQ(Out.MaxMemoryBytes, In.MaxMemoryBytes);
  EXPECT_EQ(Out.MaxCpuSec, In.MaxCpuSec);
  EXPECT_EQ(Out.MaxOpenFiles, In.MaxOpenFiles);
  EXPECT_EQ(Out.FaultSupervisorSignal, In.FaultSupervisorSignal);
  EXPECT_EQ(Out.FaultSupervisorExit, In.FaultSupervisorExit);
  EXPECT_EQ(Out.FaultOomAttempts, In.FaultOomAttempts);
  EXPECT_EQ(Out.FaultAllocBytes, In.FaultAllocBytes);
  EXPECT_DOUBLE_EQ(Out.FaultBurnCpuSec, In.FaultBurnCpuSec);
  EXPECT_EQ(Out.Strat, In.Strat);
}

// A strategy byte beyond the defined enum must not pass validation.
TEST(ServiceProtocol, BadStrategyByteRejected) {
  JobRequest In = sampleRequest();
  In.Strat = static_cast<uint8_t>(Strategy::Doacross) + 1;
  std::string Body = encodeJobRequest(In);
  JobRequest Out;
  std::string Err;
  EXPECT_FALSE(decodeJobRequest(Body, Out, Err));
  EXPECT_NE(Err.find("strategy"), std::string::npos) << Err;
}

TEST(ServiceProtocol, JobReplyRoundTrip) {
  JobReply In = sampleReply();
  std::string Body = encodeJobReply(In);
  JobReply Out;
  std::string Err;
  ASSERT_TRUE(decodeJobReply(Body, Out, Err)) << Err;
  EXPECT_EQ(Out.Status, In.Status);
  EXPECT_EQ(Out.Cause, In.Cause);
  EXPECT_EQ(Out.TermSignal, In.TermSignal);
  EXPECT_EQ(Out.SupExitCode, In.SupExitCode);
  EXPECT_EQ(Out.Attempts, In.Attempts);
  EXPECT_EQ(Out.IdempotentReplay, In.IdempotentReplay);
  EXPECT_EQ(Out.Error, In.Error);
  EXPECT_EQ(Out.Output, In.Output);
  EXPECT_EQ(Out.ExitValue, In.ExitValue);
  EXPECT_EQ(Out.CacheHit, In.CacheHit);
#define PRIVATEER_STAT_CHECK(Name, Combine, Group, Key, Who)                   \
  EXPECT_EQ(Out.Name, In.Name) << #Name;
  PRIVATEER_STATS_COUNTERS(PRIVATEER_STAT_CHECK)
#undef PRIVATEER_STAT_CHECK
  EXPECT_EQ(Out.MisspecReason, In.MisspecReason);
  EXPECT_DOUBLE_EQ(Out.PipelineSec, In.PipelineSec);
  EXPECT_DOUBLE_EQ(Out.ExecSec, In.ExecSec);
  EXPECT_DOUBLE_EQ(Out.QueueSec, In.QueueSec);
  EXPECT_DOUBLE_EQ(Out.WallSec, In.WallSec);
}

// Every strict prefix of a valid body must decode to a clean error — the
// cursor is bounds-checked, never out-of-range.
TEST(ServiceProtocol, TruncatedBodiesRejected) {
  std::string Req = encodeJobRequest(sampleRequest());
  for (size_t Len = 0; Len < Req.size(); ++Len) {
    JobRequest Out;
    std::string Err;
    EXPECT_FALSE(decodeJobRequest(Req.substr(0, Len), Out, Err))
        << "prefix of " << Len << " bytes decoded";
    EXPECT_FALSE(Err.empty());
  }
  std::string Rep = encodeJobReply(sampleReply());
  for (size_t Len = 0; Len < Rep.size(); ++Len) {
    JobReply Out;
    std::string Err;
    EXPECT_FALSE(decodeJobReply(Rep.substr(0, Len), Out, Err))
        << "prefix of " << Len << " bytes decoded";
  }
}

// A string field whose length prefix points past the end of the body must
// not be honored.
TEST(ServiceProtocol, LyingStringLengthRejected) {
  std::string Body;
  Body.push_back(static_cast<char>(kProtocolVersion));
  // ModuleText claims 1 GiB but carries 3 bytes.
  uint32_t Lie = 1u << 30;
  for (int I = 0; I < 4; ++I)
    Body.push_back(static_cast<char>((Lie >> (8 * I)) & 0xff));
  Body += "abc";
  JobRequest Out;
  std::string Err;
  EXPECT_FALSE(decodeJobRequest(Body, Out, Err));
}

TEST(ServiceProtocol, AssemblerReassemblesByteByByte) {
  std::string Payload = "\x02" + encodeJobReply(sampleReply());
  std::string Frame;
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  for (int I = 0; I < 4; ++I)
    Frame.push_back(static_cast<char>((Len >> (8 * I)) & 0xff));
  Frame += Payload;

  FrameAssembler A;
  MsgType Type;
  std::string Body, Err;
  for (size_t I = 0; I + 1 < Frame.size(); ++I) {
    A.feed(&Frame[I], 1);
    EXPECT_EQ(A.next(Type, Body, Err), FrameAssembler::Result::NeedMore);
  }
  A.feed(&Frame[Frame.size() - 1], 1);
  ASSERT_EQ(A.next(Type, Body, Err), FrameAssembler::Result::Frame);
  EXPECT_EQ(Type, MsgType::JobResult);
  JobReply Out;
  ASSERT_TRUE(decodeJobReply(Body, Out, Err)) << Err;
  EXPECT_EQ(Out.Output, sampleReply().Output);
  // Nothing left over.
  EXPECT_EQ(A.next(Type, Body, Err), FrameAssembler::Result::NeedMore);
  EXPECT_EQ(A.buffered(), 0u);
}

TEST(ServiceProtocol, AssemblerRejectsBadLengthPrefixes) {
  {
    FrameAssembler A;
    const char Zero[4] = {0, 0, 0, 0};
    A.feed(Zero, 4);
    MsgType T;
    std::string B, E;
    EXPECT_EQ(A.next(T, B, E), FrameAssembler::Result::Malformed);
  }
  {
    FrameAssembler A;
    const char Huge[4] = {'\xff', '\xff', '\xff', '\xff'};
    A.feed(Huge, 4);
    MsgType T;
    std::string B, E;
    EXPECT_EQ(A.next(T, B, E), FrameAssembler::Result::Malformed);
    EXPECT_NE(E.find("length"), std::string::npos);
  }
}

// --- Live-daemon robustness ----------------------------------------------

int rawConnect(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Sends raw bytes and returns true once the daemon closes the
/// connection (EOF after at most a courtesy Error frame).
bool sendJunkAndExpectClose(const std::string &Socket, const void *Bytes,
                            size_t Len) {
  int Fd = rawConnect(Socket);
  if (Fd < 0)
    return false;
  ::signal(SIGPIPE, SIG_IGN);
  (void)!::write(Fd, Bytes, Len);
  char Buf[4096];
  double Deadline = wallSeconds() + 10 * timeoutScale();
  bool Closed = false;
  while (wallSeconds() < Deadline) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N == 0) {
      Closed = true;
      break;
    }
    if (N < 0 && errno != EINTR && errno != EAGAIN) {
      Closed = true; // reset counts as closed
      break;
    }
  }
  ::close(Fd);
  return Closed;
}

TEST(ServiceProtocol, DaemonSurvivesGarbageAndKeepsServing) {
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath();
  Opts.WorkerBudget = 8;
  ForkedDaemon D(Opts);
  ASSERT_TRUE(D.forked());

  {
    service::Client Ready;
    std::string Err;
    ASSERT_TRUE(Ready.connect(D.socket(), Err, 10 * timeoutScale())) << Err;
  }

  // (a) An HTTP request: "GET " decodes as a ~542 MB length prefix.
  const char Http[] = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  EXPECT_TRUE(sendJunkAndExpectClose(D.socket(), Http, sizeof(Http) - 1));

  // (b) An oversized length prefix.
  const unsigned char Huge[5] = {0xff, 0xff, 0xff, 0xff, 0x01};
  EXPECT_TRUE(sendJunkAndExpectClose(D.socket(), Huge, sizeof(Huge)));

  // (c) A zero-length frame.
  const unsigned char Zero[4] = {0, 0, 0, 0};
  EXPECT_TRUE(sendJunkAndExpectClose(D.socket(), Zero, sizeof(Zero)));

  // (d) A truncated frame: valid header promising 100 bytes, then EOF.
  {
    int Fd = rawConnect(D.socket());
    ASSERT_GE(Fd, 0);
    const unsigned char Trunc[10] = {100, 0, 0, 0, 1, 'x', 'x', 'x', 'x', 'x'};
    (void)!::write(Fd, Trunc, sizeof(Trunc));
    ::close(Fd);
  }

  // (e) A syntactically valid frame of an impossible type.
  const unsigned char BadType[5] = {1, 0, 0, 0, 0x7f};
  EXPECT_TRUE(sendJunkAndExpectClose(D.socket(), BadType, sizeof(BadType)));

  // The daemon is still alive and still serves real jobs.
  ASSERT_TRUE(D.alive());
  service::Client C;
  std::string Err;
  ASSERT_TRUE(C.connect(D.socket(), Err)) << Err;
  JobRequest Req;
  Req.ModuleText = reductionSumIrText(200);
  Req.NumWorkers = 2;
  JobReply R;
  ASSERT_TRUE(C.submit(Req, R, Err, 60 * timeoutScale())) << Err;
  EXPECT_EQ(R.Status, JobStatus::Ok) << R.Error;

  std::string Json;
  ASSERT_TRUE(C.status(Json, Err)) << Err;
  EXPECT_GE(jsonInt(Json, "malformed_frames"), 4);
  EXPECT_EQ(jsonInt(Json, "jobs_completed"), 1);
  EXPECT_EQ(jsonInt(Json, "pid"), D.pid());
}

// --- Old protocol versions -----------------------------------------------
//
// Every client lives in this repository and speaks kProtocolVersion, so
// bodies in the older layouts (v2: no Engine byte; v3: no tenant/submit
// tail; v4: no strategy/stage tail; v5: a reply with six counters; v4 to
// v6: a request carrying the tenant id and submit mode that v7 dropped;
// v3 to v7: a request carrying the engine byte that v8 dropped; v2 to v8:
// a request carrying the slot, eager-commit, worker-kill and stage knobs
// that v9 dropped) are rejected outright, as are versions that never
// existed.

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
  std::memcpy(&Bits, &V, 8);
  putU64(B, Bits);
}
void putStr(std::string &B, const std::string &S) {
  putU32(B, static_cast<uint32_t>(S.size()));
  B += S;
}

/// Encodes \p R exactly as a v2 to v8 client would have, with the bytecode
/// engine, the anonymous tenant and in-band submission where the layout
/// carries them, and the defaults of the knobs v9 dropped (slots per epoch,
/// eager commit, targeted and random worker kills, stage count).
std::string encodeLegacyRequest(const JobRequest &R, uint8_t Version) {
  std::string B;
  putU8(B, Version);
  putStr(B, R.ModuleText);
  putU8(B, static_cast<uint8_t>(R.Mode));
  if (Version >= 3 && Version <= 7)
    putU8(B, 0); // engine: bytecode
  putU32(B, R.NumWorkers);
  putU64(B, R.CheckpointPeriod);
  putU64(B, 32); // max slots per epoch
  putF64(B, R.InjectMisspecRate);
  putU64(B, R.InjectSeed);
  putU8(B, 1); // eager commit
  putF64(B, R.StallTimeoutSec);
  putF64(B, R.DeadlineSec);
  putStr(B, R.TracePath);
  putU64(B, R.IdempotencyKey);
  putU64(B, R.MaxMemoryBytes);
  putU32(B, R.MaxCpuSec);
  putU32(B, R.MaxOpenFiles);
  putU8(B, R.FaultKillSupervisor ? 1 : 0);
  putU32(B, ~0u);   // kill worker: none
  putU64(B, ~0ULL); // kill at iteration: none
  putU32(B, R.FaultStallWorker);
  putU64(B, R.FaultStallAtIter);
  putF64(B, R.FaultStallSeconds);
  putF64(B, 0.0); // kill rate
  putU64(B, 1);   // fault seed
  putU32(B, R.FaultSupervisorSignal);
  putU32(B, R.FaultSupervisorExit);
  putU32(B, R.FaultOomAttempts);
  putU64(B, R.FaultAllocBytes);
  putF64(B, R.FaultBurnCpuSec);
  if (Version >= 4 && Version <= 6) {
    putStr(B, ""); // tenant id
    putU8(B, 0);   // submit mode: in-band
  }
  if (Version >= 5) {
    putU8(B, R.Strat);
    putU32(B, 0); // stage count
  }
  return B;
}

/// Encodes \p R in the v5 reply layout, which carried only six counters.
std::string encodeV5Reply(const JobReply &R) {
  std::string B;
  putU8(B, 5);
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
  putU64(B, R.Iterations);
  putU64(B, R.Checkpoints);
  putU64(B, R.Misspecs);
  putU64(B, R.RecoveredIterations);
  putStr(B, R.MisspecReason);
  putF64(B, R.PipelineSec);
  putF64(B, R.ExecSec);
  putF64(B, R.QueueSec);
  putF64(B, R.WallSec);
  putU64(B, R.ComUpdates);
  putU64(B, R.ComRecordsCommitted);
  return B;
}

TEST(ServiceProtocol, CrossVersionRequestsRejected) {
  JobRequest In = sampleRequest();
  for (uint8_t V : {uint8_t(2), uint8_t(3), uint8_t(4), uint8_t(5),
                    uint8_t(6), uint8_t(7), uint8_t(8)}) {
    JobRequest Out;
    std::string Err;
    EXPECT_FALSE(decodeJobRequest(encodeLegacyRequest(In, V), Out, Err))
        << "v" << int(V) << " request decoded";
    EXPECT_EQ(Err, "unsupported protocol version " + std::to_string(V));
  }

  {
    JobReply Out;
    std::string Err;
    EXPECT_FALSE(decodeJobReply(encodeV5Reply(sampleReply()), Out, Err))
        << "v5 reply decoded";
    EXPECT_NE(Err.find("unsupported protocol version"), std::string::npos)
        << Err;
  }

  // Any other version byte on a current-layout body, of either kind.
  for (uint8_t V : {uint8_t(0), uint8_t(1), uint8_t(4), uint8_t(5),
                    uint8_t(6), uint8_t(7), uint8_t(8),
                    uint8_t(kProtocolVersion + 1)}) {
    std::string Body = encodeJobRequest(In);
    Body[0] = static_cast<char>(V);
    JobRequest Out;
    std::string Err;
    EXPECT_FALSE(decodeJobRequest(Body, Out, Err)) << "version " << int(V);
    EXPECT_NE(Err.find("unsupported protocol version"), std::string::npos)
        << Err;

    std::string ReplyBody = encodeJobReply(JobReply());
    ReplyBody[0] = static_cast<char>(V);
    JobReply R;
    EXPECT_FALSE(decodeJobReply(ReplyBody, R, Err)) << "version " << int(V);
    EXPECT_NE(Err.find("unsupported protocol version"), std::string::npos)
        << Err;
  }
}

} // namespace
