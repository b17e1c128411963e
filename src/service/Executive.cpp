//===- service/Executive.cpp - The one job runner -------------------------===//

#include "service/Executive.h"

#include "bytecode/Image.h"
#include "support/Timing.h"
#include "transform/Pipeline.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <utility>
#include <unistd.h>
#include <vector>

using namespace privateer;
using namespace privateer::service;

namespace {

/// Per-executive program cache: (daemon program key, cache generation) ->
/// deserialized program, shared by the program's sequential and
/// speculative jobs.  Bounded LRU — an executive outlives many daemon
/// cache generations.
class LocalPrograms {
public:
  using Key = std::pair<uint64_t, uint64_t>;

  const bytecode::BytecodeProgram *find(const Key &K) {
    auto It = Map.find(K);
    if (It == Map.end())
      return nullptr;
    It->second.LastUse = ++Clock;
    return It->second.Prog.get();
  }

  const bytecode::BytecodeProgram *
  insert(const Key &K, std::unique_ptr<bytecode::BytecodeProgram> P) {
    if (Map.size() >= kMaxPrograms)
      Map.erase(std::min_element(Map.begin(), Map.end(),
                                 [](const auto &A, const auto &B) {
                                   return A.second.LastUse < B.second.LastUse;
                                 }));
    Entry &E = Map[K];
    E = Entry{++Clock, std::move(P)};
    return E.Prog.get();
  }

private:
  static constexpr size_t kMaxPrograms = 32;
  struct Entry {
    uint64_t LastUse = 0;
    std::unique_ptr<bytecode::BytecodeProgram> Prog;
  };
  std::map<Key, Entry> Map;
  uint64_t Clock = 0;
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

/// Applies the job's rlimits (the daemon already folded its own ceilings
/// into them; 0 means none) to this process and, across fork, to its
/// worker tree.
void applyJobLimits(const JobRequest &Req) {
  if (uint64_t Mem = Req.MaxMemoryBytes) {
    rlimit L{static_cast<rlim_t>(Mem), static_cast<rlim_t>(Mem)};
    ::setrlimit(RLIMIT_AS, &L);
  }
  if (uint32_t Cpu = Req.MaxCpuSec) {
    // Scaled like deadlines: sanitizer builds are several-fold slower and
    // must not burn their CPU budget on healthy work.  Hard limit sits a
    // little above the soft one so SIGXCPU fires first, with SIGKILL as
    // the kernel's backstop.
    rlim_t Soft = static_cast<rlim_t>(
        std::max(1.0, std::ceil(static_cast<double>(Cpu) * timeoutScale())));
    rlimit L{Soft, Soft + 2};
    ::setrlimit(RLIMIT_CPU, &L);
  }
  if (uint32_t Files = Req.MaxOpenFiles) {
    rlim_t V = static_cast<rlim_t>(std::max<uint32_t>(Files, 8));
    rlimit L{V, V};
    ::setrlimit(RLIMIT_NOFILE, &L);
  }
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
    // first, drop any strays.  An assignment without one is malformed.
    ExecAssignment A;
    bool Ok = Type == MsgType::ExecAssign && decodeExecAssign(Body, A, Err);
    int ImgFd = Fds.empty() ? -1 : Fds.front();
    for (size_t I = 1; I < Fds.size(); ++I)
      ::close(Fds[I]);
    Fds.clear();
    if (!Ok || ImgFd < 0) {
      if (ImgFd >= 0)
        ::close(ImgFd);
      return 2;
    }

    // Resolve the program: local cache hit, else deserialize the image.
    LocalPrograms::Key K{A.ProgramKey, A.Generation};
    const bytecode::BytecodeProgram *BP = Programs.find(K);
    if (BP) {
      ::close(ImgFd);
    } else {
      auto Loaded = loadImage(ImgFd, Err);
      if (!Loaded) {
        JobReply R;
        R.Status = JobStatus::InternalError;
        R.Error = "executive: bad program image: " + Err;
        Reply(R);
        continue;
      }
      BP = Programs.insert(K, std::move(Loaded));
    }

    if (!A.Req.limited()) {
      Reply(runJob(A, *BP));
      continue;
    }

    // A limited job runs in a disposable child that wears its rlimits and
    // writes the reply itself.  If the child dies, this executive dies the
    // same way: the daemon triages, poisons, retries and respawns exactly
    // as for any dead executive.
    pid_t Pid = ::fork();
    if (Pid < 0) {
      JobReply R;
      R.Status = JobStatus::InternalError;
      R.Cause = FailureCause::InfraFork;
      R.Error = std::string("fork: ") + std::strerror(errno);
      Reply(R);
      continue;
    }
    if (Pid == 0) {
      applyJobLimits(A.Req);
      Reply(runJob(A, *BP));
      ::_exit(0);
    }
    int St = 0;
    while (::waitpid(Pid, &St, 0) < 0 && errno == EINTR) {
    }
    if (WIFSIGNALED(St)) {
      int Sig = WTERMSIG(St);
      ::signal(Sig, SIG_DFL);
      ::raise(Sig);
      ::_exit(128 + Sig); // a signal whose default action is not to die
    }
    if (WIFEXITED(St) && WEXITSTATUS(St) != 0)
      ::_exit(WEXITSTATUS(St));
  }
}
