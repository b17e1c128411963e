//===- service/Executive.cpp - The one job runner -------------------------===//

#include "service/Executive.h"

#include "bytecode/Image.h"
#include "service/ProgramCache.h"
#include "support/Timing.h"
#include "transform/Pipeline.h"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <new>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace privateer;
using namespace privateer::service;

namespace {

/// Per-executive program cache: (daemon program key, cache generation,
/// parallel-vs-sequential image) -> deserialized program.  Bounded LRU —
/// an executive outlives many daemon cache generations.
class LocalPrograms {
public:
  explicit LocalPrograms(size_t Max = 32) : Max(Max) {}

  using Key = std::tuple<uint64_t, uint64_t, bool>;

  const bytecode::BytecodeProgram *find(const Key &K) {
    auto It = Map.find(K);
    if (It == Map.end())
      return nullptr;
    touch(K);
    return It->second.get();
  }

  const bytecode::BytecodeProgram *
  insert(const Key &K, std::unique_ptr<bytecode::BytecodeProgram> P) {
    while (Map.size() >= Max && !Order.empty()) {
      Map.erase(Order.back());
      Order.pop_back();
    }
    touch(K);
    auto &Slot = Map[K];
    Slot = std::move(P);
    return Slot.get();
  }

private:
  void touch(const Key &K) {
    for (auto It = Order.begin(); It != Order.end(); ++It)
      if (*It == K) {
        Order.erase(It);
        break;
      }
    Order.push_front(K);
  }

  size_t Max;
  std::map<Key, std::unique_ptr<bytecode::BytecodeProgram>> Map;
  std::deque<Key> Order; ///< front = most recently used
};

/// Maps the sealed image memfd, deserializes, closes the fd.
std::unique_ptr<bytecode::BytecodeProgram> loadImage(int MemFd,
                                                     std::string &Err) {
  struct stat St{};
  if (::fstat(MemFd, &St) != 0 || St.st_size <= 0) {
    Err = "image fstat failed";
    ::close(MemFd);
    return nullptr;
  }
  size_t Bytes = static_cast<size_t>(St.st_size);
  void *P = ::mmap(nullptr, Bytes, PROT_READ, MAP_PRIVATE, MemFd, 0);
  if (P == MAP_FAILED) {
    Err = std::string("image mmap: ") + std::strerror(errno);
    ::close(MemFd);
    return nullptr;
  }
  auto Prog = bytecode::deserializeProgram(P, Bytes, Err);
  ::munmap(P, Bytes);
  ::close(MemFd);
  return Prog;
}

} // namespace

JobReply service::runJob(const ExecAssignment &A,
                         const bytecode::BytecodeProgram &BP) {
  const JobRequest &Req = A.Req;

  // Process-level faults kill this executive (the daemon triages the
  // corpse); the OOM knobs below answer in band.
  if (Req.FaultKillSupervisor)
    ::raise(SIGKILL);
  if (Req.FaultSupervisorSignal != 0) {
    // Reset first: the daemon may have inherited the runtime's SIGSEGV
    // speculation handler from an in-process training run.
    ::signal(static_cast<int>(Req.FaultSupervisorSignal), SIG_DFL);
    ::raise(static_cast<int>(Req.FaultSupervisorSignal));
  }
  if (Req.FaultSupervisorExit != kNoFaultExit)
    ::_exit(static_cast<int>(Req.FaultSupervisorExit));
  if (Req.FaultBurnCpuSec > 0) {
    double End = cpuSeconds() + Req.FaultBurnCpuSec;
    volatile uint64_t Sink = 0;
    while (cpuSeconds() < End)
      for (int I = 0; I < 4096; ++I)
        Sink = Sink + static_cast<uint64_t>(I) * 2654435761u;
  }

  JobReply R;
  auto Oom = [&R](const std::string &Why) {
    R.Status = JobStatus::ResourceLimit;
    R.Cause = FailureCause::OutOfMemory;
    R.Error = Why;
    return R;
  };
  if (A.Attempt < Req.FaultOomAttempts)
    return Oom("fault injection: simulated allocation failure on attempt " +
               std::to_string(A.Attempt + 1));
  if (Req.FaultAllocBytes > 0) {
    // Direct operator call: a new[]/delete[] pair is elidable at -O3,
    // which would silently defuse the fault.  The nothrow form, because
    // ASan's throwing new aborts on a huge request even when
    // allocator_may_return_null=1.
    void *P = ::operator new[](Req.FaultAllocBytes, std::nothrow);
    if (!P)
      return Oom("allocation of " + std::to_string(Req.FaultAllocBytes) +
                 " bytes failed (bad_alloc)");
    ::operator delete[](P);
  }

  char *OutBuf = nullptr;
  size_t OutLen = 0;
  std::FILE *Out = ::open_memstream(&OutBuf, &OutLen);
  if (!Out) {
    R.Status = JobStatus::InternalError;
    R.Error = "open_memstream failed";
    return R;
  }

  ParallelOptions Par;
  Par.NumWorkers = Req.NumWorkers;
  Par.CheckpointPeriod = Req.CheckpointPeriod;
  Par.InjectMisspecRate = Req.InjectMisspecRate;
  Par.InjectSeed = Req.InjectSeed;
  // Scaled like the per-job deadline: sanitizer builds run several-fold
  // slower and the watchdog must not reap healthy workers.
  Par.StallTimeoutSec = Req.StallTimeoutSec * timeoutScale();
  Par.TracePath = Req.TracePath;
  Par.Faults.StallWorker = Req.FaultStallWorker;
  Par.Faults.StallAtIter = Req.FaultStallAtIter;
  Par.Faults.StallSeconds = Req.FaultStallSeconds;

  // The strategy was a compile-time choice, already applied by the
  // daemon's program cache; the image carries its dependence channels.
  transform::PipelineOptions PO;

  double T0 = wallSeconds();
  try {
    if (A.UseParallel) {
      transform::ExecutionResult E = transform::executeLoadedParallel(
          BP, PO, Par, RuntimeConfig(), Out);
      R.ExitValue = E.ReturnValue.asInt();
      static_cast<RuntimeCounters &>(R) = E.Stats;
      R.MisspecReason = E.Stats.FirstMisspecReason;
      R.Status = JobStatus::Ok;
    } else {
      R.ExitValue = transform::executeLoadedSequential(BP, PO, Out).asInt();
      R.Status = JobStatus::Ok;
    }
  } catch (const std::bad_alloc &) {
    Oom("out of memory (bad_alloc) during execution");
  } catch (const std::exception &E) {
    R.Status = JobStatus::InternalError;
    R.Error = E.what();
  }
  R.ExecSec = wallSeconds() - T0;

  std::fclose(Out);
  R.Output.assign(OutBuf, OutLen);
  std::free(OutBuf);
  return R;
}

int service::executiveMain(int ChanFd) {
  ::signal(SIGPIPE, SIG_IGN);
  LocalPrograms Programs;
  FrameAssembler Frames;
  std::vector<int> Fds;

  auto Reply = [&](const JobReply &R) {
    std::string Err;
    if (!writeFrame(ChanFd, MsgType::JobResult, encodeJobReply(R), Err))
      ::_exit(4); // channel gone mid-reply: let the daemon triage a corpse
  };

  while (true) {
    MsgType Type;
    std::string Body, Err;
    FrameAssembler::Result FR = Frames.next(Type, Body, Err);
    if (FR == FrameAssembler::Result::Malformed)
      return 2; // daemon channel is private; corruption is fatal
    if (FR == FrameAssembler::Result::NeedMore) {
      char Buf[64 << 10];
      bool Truncated = false;
      ssize_t N = recvWithFds(ChanFd, Buf, sizeof(Buf), Fds, Truncated);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return 0; // EOF: the daemon is draining the pool
      if (Truncated)
        return 2;
      Frames.feed(Buf, static_cast<size_t>(N));
      continue;
    }

    // The daemon attaches the image fd to every assignment (a kernel dup
    // is cheaper than tracking which executive holds what); keep the
    // first, drop any strays.
    ExecAssignment A;
    bool Ok = Type == MsgType::ExecAssign && decodeExecAssign(Body, A, Err);
    int ImgFd = Fds.empty() ? -1 : Fds.front();
    for (size_t I = 1; I < Fds.size(); ++I)
      ::close(Fds[I]);
    Fds.clear();
    if (!Ok) {
      if (ImgFd >= 0)
        ::close(ImgFd);
      return 2;
    }

    // Resolve the program: local cache hit, else deserialize the image.
    LocalPrograms::Key K{A.ProgramKey, A.Generation, A.UseParallel};
    const bytecode::BytecodeProgram *BP = Programs.find(K);
    if (BP) {
      if (ImgFd >= 0)
        ::close(ImgFd);
    } else {
      JobReply R;
      R.Status = JobStatus::InternalError;
      if (ImgFd < 0) {
        R.Error = "executive: assignment without a program image";
        Reply(R);
        continue;
      }
      auto Loaded = loadImage(ImgFd, Err);
      if (!Loaded) {
        R.Error = "executive: bad program image: " + Err;
        Reply(R);
        continue;
      }
      BP = Programs.insert(K, std::move(Loaded));
    }

    Reply(runJob(A, *BP));
  }
}

int service::oneShotMain(int ChanFd, const ExecAssignment &A,
                         const CachedProgram &Prog) {
  const bytecode::BytecodeProgram &BP =
      A.UseParallel ? *Prog.LoweredPar : *Prog.LoweredSeq;
  std::string Err;
  return writeFrame(ChanFd, MsgType::JobResult,
                    encodeJobReply(runJob(A, BP)), Err)
             ? 0
             : 4;
}
