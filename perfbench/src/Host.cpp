//===- perfbench/src/Host.cpp - Process-tree accounting -------------------===//

#include "Host.h"

#include "Spans.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include <dirent.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;

namespace {

struct ProcStat {
  pid_t Ppid = 0;
  double CpuSec = 0; ///< utime + stime + cutime + cstime
};

bool readStat(pid_t Pid, ProcStat &Out) {
  char Path[64];
  std::snprintf(Path, sizeof(Path), "/proc/%d/stat", static_cast<int>(Pid));
  std::FILE *F = std::fopen(Path, "r");
  if (!F)
    return false;
  char Buf[1024];
  size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  Buf[N] = 0;
  // The command name (field 2) may hold spaces; field 3 follows its ')'.
  // Fields are numbered as in proc(5): 4 is ppid, 14 to 17 are utime,
  // stime, cutime and cstime.
  char *P = std::strrchr(Buf, ')');
  if (!P)
    return false;
  long long Field[18] = {};
  unsigned I = 3;
  char *Save = nullptr;
  for (char *Tok = ::strtok_r(P + 1, " ", &Save); Tok && I < 18;
       Tok = ::strtok_r(nullptr, " ", &Save), ++I)
    Field[I] = std::strtoll(Tok, nullptr, 10);
  if (I < 18)
    return false;
  double Tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  Out.Ppid = static_cast<pid_t>(Field[4]);
  Out.CpuSec =
      static_cast<double>(Field[14] + Field[15] + Field[16] + Field[17]) /
      Tick;
  return true;
}

double vmHwmMb(pid_t Pid) {
  char Path[64];
  std::snprintf(Path, sizeof(Path), "/proc/%d/status", static_cast<int>(Pid));
  std::FILE *F = std::fopen(Path, "r");
  if (!F)
    return 0;
  char Line[256];
  double Mb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Mb = std::atof(Line + 6) / 1024.0;
  std::fclose(F);
  return Mb;
}

std::map<pid_t, ProcStat> allProcs() {
  std::map<pid_t, ProcStat> Out;
  DIR *D = ::opendir("/proc");
  if (!D)
    return Out;
  while (dirent *E = ::readdir(D)) {
    char *End = nullptr;
    long Pid = std::strtol(E->d_name, &End, 10);
    if (*End != 0 || Pid <= 0)
      continue;
    ProcStat S;
    if (readStat(static_cast<pid_t>(Pid), S))
      Out[static_cast<pid_t>(Pid)] = S;
  }
  ::closedir(D);
  return Out;
}

std::vector<pid_t> descendantsIn(const std::map<pid_t, ProcStat> &Procs) {
  std::vector<pid_t> Out;
  std::vector<pid_t> Frontier{::getpid()};
  while (!Frontier.empty()) {
    pid_t P = Frontier.back();
    Frontier.pop_back();
    for (const auto &[Pid, S] : Procs)
      if (S.Ppid == P) {
        Out.push_back(Pid);
        Frontier.push_back(Pid);
      }
  }
  return Out;
}

double seconds(const timeval &T) {
  return static_cast<double>(T.tv_sec) + 1e-6 * static_cast<double>(T.tv_usec);
}

/// Fixed CPU work that the compiler cannot fold away.
void burn() {
  uint64_t X = 88172645463325252ULL;
  for (uint64_t I = 0; I < 60'000'000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    asm volatile("" : "+r"(X));
  }
}

double burnWall(unsigned Procs) {
  std::fflush(nullptr);
  uint64_t T0 = nowNs();
  std::vector<pid_t> Pids;
  for (unsigned I = 0; I < Procs; ++I) {
    pid_t P = ::fork();
    if (P == 0) {
      burn();
      ::_exit(0);
    }
    if (P > 0)
      Pids.push_back(P);
  }
  for (pid_t P : Pids)
    ::waitpid(P, nullptr, 0);
  return static_cast<double>(nowNs() - T0) * 1e-9;
}

} // namespace

std::vector<pid_t> perfbench::descendants() {
  return descendantsIn(allProcs());
}

double perfbench::treeCpuSec() {
  rusage Self{}, Kids{};
  ::getrusage(RUSAGE_SELF, &Self);
  ::getrusage(RUSAGE_CHILDREN, &Kids);
  double Sec = seconds(Self.ru_utime) + seconds(Self.ru_stime) +
               seconds(Kids.ru_utime) + seconds(Kids.ru_stime);
  std::map<pid_t, ProcStat> Procs = allProcs();
  for (pid_t P : descendantsIn(Procs))
    Sec += Procs[P].CpuSec;
  return Sec;
}

double perfbench::peakRssMb() {
  rusage Kids{};
  ::getrusage(RUSAGE_CHILDREN, &Kids);
  double Mb = static_cast<double>(Kids.ru_maxrss) / 1024.0;
  for (pid_t P : descendants())
    Mb = std::max(Mb, vmHwmMb(P));
  return Mb;
}

double perfbench::burnEfficiency(unsigned Workers) {
  double One = burnWall(1);
  double All = burnWall(Workers);
  return All > 0 ? One / All : 0;
}

HostTicks perfbench::hostTicks() {
  HostTicks T;
  std::FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return T;
  unsigned long long V[8] = {};
  if (std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &V[0],
                  &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]) == 8) {
    for (unsigned long long X : V)
      T.Total += X;
    T.Steal = V[7];
  }
  std::fclose(F);
  return T;
}

std::string perfbench::compilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool perfbench::optimizedBuild() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}
