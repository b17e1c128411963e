//===- perfbench/src/HostTest.cpp - Checks of the process-tree accounting -===//
///
/// \file
/// perfbench_host_test: checks that treeCpuSec() counts a live child's
/// reaped children in full, user and system time, by comparing it with
/// what getrusage(RUSAGE_CHILDREN) reports once that child is reaped too.
/// Exits 0 when the two agree.  perfbench/test_perfbench.py builds and runs
/// it.
///
//===----------------------------------------------------------------------===//

#include "Host.h"

#include <cstdint>
#include <cstdio>
#include <cstring>

#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;

namespace {

double cpuSec(const rusage &U) {
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec);
}

double sysSec(const rusage &U) {
  return static_cast<double>(U.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(U.ru_stime.tv_usec);
}

/// About 0.2 s of user time and as much again of system time (page faults
/// on fresh mappings).
void busy() {
  uint64_t X = 88172645463325252ULL;
  for (uint64_t I = 0; I < 200'000'000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    asm volatile("" : "+r"(X));
  }
  const size_t Bytes = 16 << 20;
  for (int R = 0; R < 60; ++R) {
    void *M = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (M == MAP_FAILED)
      ::_exit(4);
    std::memset(M, 1, Bytes);
    ::munmap(M, Bytes);
  }
}

} // namespace

int main() {
  int Ready[2], Go[2];
  if (::pipe(Ready) != 0 || ::pipe(Go) != 0)
    return 2;
  rusage Kids0{};
  ::getrusage(RUSAGE_CHILDREN, &Kids0);
  double Tree0 = treeCpuSec();

  std::fflush(nullptr);
  pid_t Child = ::fork();
  if (Child == 0) {
    // The child forks a busy grandchild, reaps it, and stays alive until
    // told to go, so the grandchild's time sits in its cutime and cstime.
    pid_t Grandchild = ::fork();
    if (Grandchild == 0) {
      busy();
      ::_exit(0);
    }
    ::waitpid(Grandchild, nullptr, 0);
    char Byte = 'r';
    if (::write(Ready[1], &Byte, 1) != 1 || ::read(Go[0], &Byte, 1) != 1)
      ::_exit(3);
    ::_exit(0);
  }
  char Byte;
  if (Child < 0 || ::read(Ready[0], &Byte, 1) != 1)
    return 2;
  double Alive = treeCpuSec() - Tree0;

  if (::write(Go[1], "g", 1) != 1)
    return 2;
  ::waitpid(Child, nullptr, 0);
  rusage Kids1{};
  ::getrusage(RUSAGE_CHILDREN, &Kids1);
  double Reaped = cpuSec(Kids1) - cpuSec(Kids0);
  double ReapedSys = sysSec(Kids1) - sysSec(Kids0);

  std::printf("tree cpu with the child alive %.3f s, children's cpu once "
              "reaped %.3f s (system %.3f s)\n",
              Alive, Reaped, ReapedSys);
  if (ReapedSys < 0.05) {
    std::printf("FAIL: the grandchild spent too little system time for the "
                "check to mean anything\n");
    return 1;
  }
  // Clock-tick granularity plus this process's own time scanning /proc.
  double Slack = 0.05 + 0.05 * Reaped;
  if (Alive < Reaped - Slack || Alive > Reaped + Slack) {
    std::printf("FAIL: the two differ by more than %.3f s\n", Slack);
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
