//===- tests/SupportTest.cpp - Support library unit tests -----------------===//

#include "support/DeterministicRng.h"
#include "support/Fnv.h"
#include "support/IntervalMap.h"
#include "support/TableWriter.h"

#include <gtest/gtest.h>

using namespace privateer;

namespace {

TEST(IntervalMap, LookupInsideAndOutside) {
  IntervalMap<int> M;
  M.insert(100, 200, 1);
  M.insert(300, 400, 2);
  EXPECT_FALSE(M.lookup(99).has_value());
  EXPECT_EQ(M.lookup(100).value(), 1);
  EXPECT_EQ(M.lookup(199).value(), 1);
  EXPECT_FALSE(M.lookup(200).has_value());
  EXPECT_EQ(M.lookup(300).value(), 2);
  EXPECT_FALSE(M.lookup(299).has_value());
}

TEST(IntervalMap, InsertEvictsOverlaps) {
  IntervalMap<int> M;
  M.insert(100, 200, 1);
  // Overlapping insert (allocator reuse of freed space) evicts.
  M.insert(150, 250, 2);
  EXPECT_EQ(M.lookup(100).value(), 1); // Left remainder survives.
  EXPECT_EQ(M.lookup(149).value(), 1);
  EXPECT_EQ(M.lookup(150).value(), 2);
  EXPECT_EQ(M.lookup(249).value(), 2);
}

TEST(IntervalMap, EraseTrimsPartialOverlap) {
  IntervalMap<int> M;
  M.insert(100, 200, 1);
  M.erase(120, 150);
  EXPECT_EQ(M.lookup(119).value(), 1);
  EXPECT_FALSE(M.lookup(120).has_value());
  EXPECT_FALSE(M.lookup(149).has_value());
  EXPECT_EQ(M.lookup(150).value(), 1);
  EXPECT_EQ(M.lookup(199).value(), 1);
}

TEST(IntervalMap, EraseSpanningManyIntervals) {
  IntervalMap<int> M;
  for (int I = 0; I < 10; ++I)
    M.insert(I * 100, I * 100 + 50, I);
  M.erase(120, 820);
  EXPECT_EQ(M.lookup(110).value(), 1);
  EXPECT_FALSE(M.lookup(130).has_value());
  for (int I = 2; I < 8; ++I)
    EXPECT_FALSE(M.lookup(I * 100 + 10).has_value()) << I;
  EXPECT_EQ(M.lookup(830).value(), 8);
}

TEST(IntervalMap, LookupIntervalReturnsBounds) {
  IntervalMap<int> M;
  M.insert(64, 128, 7);
  auto I = M.lookupInterval(100);
  ASSERT_TRUE(I.has_value());
  EXPECT_EQ(I->Lo, 64u);
  EXPECT_EQ(I->Hi, 128u);
  EXPECT_EQ(I->Value, 7);
}

TEST(DeterministicRngTest, SameSeedSameSequence) {
  DeterministicRng A(42), B(42), C(43);
  bool Differs = false;
  for (int I = 0; I < 100; ++I) {
    uint64_t VA = A.next();
    EXPECT_EQ(VA, B.next());
    if (VA != C.next())
      Differs = true;
  }
  EXPECT_TRUE(Differs);
}

TEST(DeterministicRngTest, DoublesInRange) {
  DeterministicRng R(7);
  for (int I = 0; I < 1000; ++I) {
    double V = R.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
    double W = R.nextDouble(5.0, 6.0);
    EXPECT_GE(W, 5.0);
    EXPECT_LT(W, 6.0);
  }
}

TEST(DeterministicRngTest, GaussianMomentsRoughlyStandard) {
  DeterministicRng R(11);
  double Sum = 0, SumSq = 0;
  constexpr int N = 20000;
  for (int I = 0; I < N; ++I) {
    double G = R.nextGaussian();
    Sum += G;
    SumSq += G * G;
  }
  EXPECT_NEAR(Sum / N, 0.0, 0.05);
  EXPECT_NEAR(SumSq / N, 1.0, 0.05);
}

TEST(Fnv, DistinguishesAndIsStable) {
  EXPECT_EQ(fnv1a("hello"), fnv1a("hello"));
  EXPECT_NE(fnv1a("hello"), fnv1a("hellp"));
  EXPECT_NE(fnv1a(""), fnv1a("\0", 1));
  EXPECT_EQ(fnvHex(fnv1a("")), "cbf29ce484222325");
}

TEST(TableWriterTest, AlignedAndCsv) {
  TableWriter T({"a", "bbbb"});
  T.addRow({"xx", TableWriter::cell(uint64_t(42))});
  T.addRow({TableWriter::cell(1.5, 1), "y"});
  std::FILE *F = std::tmpfile();
  T.print(F);
  T.printCsv(F);
  std::rewind(F);
  std::string Out;
  char Buf[256];
  while (std::fgets(Buf, sizeof(Buf), F))
    Out += Buf;
  std::fclose(F);
  // Aligned output pads "xx" to the widest cell in its column.
  EXPECT_NE(Out.find("xx"), std::string::npos);
  EXPECT_NE(Out.find(" 42"), std::string::npos);
  EXPECT_NE(Out.find("a,bbbb"), std::string::npos);
  EXPECT_NE(Out.find("1.5,y"), std::string::npos);
}

} // namespace

#include "runtime/Privateer.h"
#include "support/Statistics.h"

#include <set>

#include <sys/wait.h>
#include <unistd.h>

namespace {

using privateer::HeapKind;
using privateer::Runtime;
using privateer::StatisticRegistry;

TEST(Statistics, RegistryCountsHeapAllocations) {
  StatisticRegistry &Reg = StatisticRegistry::instance();
  Reg.reset();
  EXPECT_EQ(Reg.get("heap-alloc", "private"), 0u);
  Runtime::get().initialize();
  void *A = privateer::h_alloc(16, HeapKind::Private);
  void *B = privateer::h_alloc(16, HeapKind::Private);
  void *C = privateer::h_alloc(16, HeapKind::Redux);
  EXPECT_EQ(Reg.get("heap-alloc", "private"), 2u);
  EXPECT_EQ(Reg.get("heap-alloc", "redux"), 1u);
  unsigned Groups = 0;
  Reg.forEach([&](const std::string &G, const std::string &, uint64_t) {
    Groups += G == "heap-alloc";
  });
  EXPECT_EQ(Groups, 2u);
  privateer::h_dealloc(A, HeapKind::Private);
  privateer::h_dealloc(B, HeapKind::Private);
  privateer::h_dealloc(C, HeapKind::Redux);
  Runtime::get().shutdown();
  Reg.reset();
}

// The allocation counter is a handle bound to its registry slot: it counts
// from zero again after a reset, and a forked child bumps its own copy of
// the registry, never the parent's.
TEST(Statistics, HeapAllocCountsRestartAfterReset) {
  StatisticRegistry &Reg = StatisticRegistry::instance();
  Runtime::get().initialize();
  void *A = privateer::h_alloc(16, HeapKind::Private);
  Reg.reset();
  EXPECT_FALSE(Reg.contains("heap-alloc", "private"));
  void *B = privateer::h_alloc(16, HeapKind::Private);
  EXPECT_EQ(Reg.get("heap-alloc", "private"), 1u);

  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    // Alloc and free in pairs: the heap itself is shared with the parent.
    for (int I = 0; I < 3; ++I)
      privateer::h_dealloc(privateer::h_alloc(16, HeapKind::Private),
                           HeapKind::Private);
    _exit(Reg.get("heap-alloc", "private") == 4 ? 0 : 1);
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
  EXPECT_EQ(Reg.get("heap-alloc", "private"), 1u);

  privateer::h_dealloc(A, HeapKind::Private);
  privateer::h_dealloc(B, HeapKind::Private);
  Runtime::get().shutdown();
  Reg.reset();
}

// The registry mirror is expanded from the stats schema: one runParallel
// leaves every schema key in the registry, zero or not, and no two schema
// fields share a key — not even across groups, since the daemon's status
// readers look a counter up by its bare key.
TEST(Statistics, RunParallelMirrorsEverySchemaKey) {
  StatisticRegistry &Reg = StatisticRegistry::instance();
  Reg.reset();
  Runtime &Rt = Runtime::get();
  Rt.initialize();
  privateer::ParallelOptions Opt;
  Opt.NumWorkers = 2;
  Rt.runParallel(64, Opt, [](uint64_t) {});
  Rt.shutdown();

  std::set<std::string> Keys;
  size_t Fields = 0;
#define PRIVATEER_STAT_KEY(Name, Combine, Group, Key, Who)                     \
  EXPECT_TRUE(Reg.contains(Group, Key)) << #Name;                              \
  Keys.insert(Key);                                                            \
  ++Fields;
  PRIVATEER_STATS_COUNTERS(PRIVATEER_STAT_KEY)
  PRIVATEER_STATS_SECONDS(PRIVATEER_STAT_KEY)
#undef PRIVATEER_STAT_KEY
  EXPECT_EQ(Keys.size(), Fields);
  EXPECT_EQ(Reg.get("runtime", "iterations"), 64u);
  Reg.reset();
}

} // namespace
