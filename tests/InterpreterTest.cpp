//===- tests/InterpreterTest.cpp - IR interpreter tests -------------------===//

#include "interp/Interpreter.h"
#include "ir/IRParser.h"
#include "runtime/Runtime.h"

#include <gtest/gtest.h>

using namespace privateer;
using namespace privateer::interp;
using namespace privateer::ir;

namespace {

Cell runText(const std::string &Text, const std::string &Fn,
             std::vector<Cell> Args = {}) {
  std::string Err;
  auto M = parseModule(Text, Err);
  EXPECT_NE(M, nullptr) << Err;
  PlainMemoryManager MM;
  Interpreter I(*M, MM);
  I.initializeGlobals();
  return I.run(Fn, Args);
}

TEST(Interpreter, IntegerArithmetic) {
  const char *T = "define i64 @f(i64 %a, i64 %b) {\n"
                  "entry:\n"
                  "  %s = add %a, %b\n"
                  "  %d = sub %s, 3\n"
                  "  %m = mul %d, %d\n"
                  "  %q = sdiv %m, %b\n"
                  "  %r = srem %q, 100\n"
                  "  ret %r\n"
                  "}\n";
  // a=10 b=5: s=15 d=12 m=144 q=28 r=28.
  EXPECT_EQ(runText(T, "f", {Cell::fromInt(10), Cell::fromInt(5)}).asInt(),
            28);
}

TEST(Interpreter, BitwiseAndShifts) {
  const char *T = "define i64 @f(i64 %a) {\n"
                  "entry:\n"
                  "  %x = xor %a, 255\n"
                  "  %n = and %x, 240\n"
                  "  %o = or %n, 1\n"
                  "  %l = shl %o, 4\n"
                  "  %r = shr %l, 2\n"
                  "  ret %r\n"
                  "}\n";
  // a=15: x=240 n=240 o=241 l=3856 r=964.
  EXPECT_EQ(runText(T, "f", {Cell::fromInt(15)}).asInt(), 964);
}

TEST(Interpreter, FloatingPointAndConversions) {
  const char *T = "define i64 @f(i64 %a) {\n"
                  "entry:\n"
                  "  %x = sitofp %a\n"
                  "  %y = fmul %x, 2.5\n"
                  "  %z = fadd %y, 0.75\n"
                  "  %w = fdiv %z, 0.5\n"
                  "  %c = fcmp gt, %w, 50.0\n"
                  "  %i = fptosi %w\n"
                  "  %r = add %i, %c\n"
                  "  ret %r\n"
                  "}\n";
  // a=10: x=10 y=25 z=25.75 w=51.5 c=1 i=51 r=52.
  EXPECT_EQ(runText(T, "f", {Cell::fromInt(10)}).asInt(), 52);
}

TEST(Interpreter, SubWordLoadsSignExtend) {
  const char *T = "define i64 @f() {\n"
                  "entry:\n"
                  "  %p = alloca 8\n"
                  "  store 255, %p, 1\n"
                  "  %v = load i64, %p, 1\n"
                  "  ret %v\n"
                  "}\n";
  // 0xFF as a signed byte is -1.
  EXPECT_EQ(runText(T, "f").asInt(), -1);
}

TEST(Interpreter, UntypedMemoryAllowsReinterpretation) {
  // Store a 4-byte value, read two 2-byte halves: byte-level memory, the
  // "type cast" behavior the paper requires.
  const char *T = "define i64 @f() {\n"
                  "entry:\n"
                  "  %p = alloca 8\n"
                  "  store 305419896, %p, 4\n" // 0x12345678
                  "  %lo = load i64, %p, 2\n"  // 0x5678
                  "  %hp = gep %p, 2\n"
                  "  %hi = load i64, %hp, 2\n" // 0x1234
                  "  %s = shl %hi, 16\n"
                  "  %r = or %s, %lo\n"
                  "  ret %r\n"
                  "}\n";
  EXPECT_EQ(runText(T, "f").asInt(), 0x12345678);
}

TEST(Interpreter, RecursionAndCalls) {
  const char *T = "define i64 @fib(i64 %n) {\n"
                  "entry:\n"
                  "  %c = icmp lt, %n, 2\n"
                  "  condbr %c, base, rec\n"
                  "base:\n"
                  "  ret %n\n"
                  "rec:\n"
                  "  %n1 = sub %n, 1\n"
                  "  %n2 = sub %n, 2\n"
                  "  %f1 = call @fib(%n1)\n"
                  "  %f2 = call @fib(%n2)\n"
                  "  %r = add %f1, %f2\n"
                  "  ret %r\n"
                  "}\n";
  EXPECT_EQ(runText(T, "fib", {Cell::fromInt(15)}).asInt(), 610);
}

TEST(Interpreter, LoopWithPhis) {
  const char *T = "define i64 @sum(i64 %n) {\n"
                  "entry:\n"
                  "  br loop\n"
                  "loop:\n"
                  "  %i = phi [entry: 0], [latch: %inext]\n"
                  "  %acc = phi [entry: 0], [latch: %acc2]\n"
                  "  %c = icmp lt, %i, %n\n"
                  "  condbr %c, latch, exit\n"
                  "latch:\n"
                  "  %acc2 = add %acc, %i\n"
                  "  %inext = add %i, 1\n"
                  "  br loop\n"
                  "exit:\n"
                  "  ret %acc\n"
                  "}\n";
  EXPECT_EQ(runText(T, "sum", {Cell::fromInt(100)}).asInt(), 4950);
}

TEST(Interpreter, MallocFreeAndLinkedStructure) {
  const char *T = "define i64 @f(i64 %n) {\n"
                  "entry:\n"
                  "  br loop\n"
                  "loop:\n"
                  "  %i = phi [entry: 0], [latch: %inext]\n"
                  "  %head = phi [entry: 0], [latch: %node]\n"
                  "  %c = icmp lt, %i, %n\n"
                  "  condbr %c, latch, sum\n"
                  "latch:\n"
                  "  %node = malloc 16\n"
                  "  store %i, %node, 8\n"
                  "  %np = gep %node, 8\n"
                  "  store %head, %np, 8\n"
                  "  %inext = add %i, 1\n"
                  "  br loop\n"
                  "sum:\n"
                  "  br walk\n"
                  "walk:\n"
                  "  %cur = phi [sum: %head], [wlatch: %next]\n"
                  "  %acc = phi [sum: 0], [wlatch: %acc2]\n"
                  "  %nz = icmp ne, %cur, 0\n"
                  "  condbr %nz, wlatch, done\n"
                  "wlatch:\n"
                  "  %v = load i64, %cur, 8\n"
                  "  %acc2 = add %acc, %v\n"
                  "  %nxp = gep %cur, 8\n"
                  "  %next = load ptr, %nxp, 8\n"
                  "  free %cur\n"
                  "  br walk\n"
                  "done:\n"
                  "  ret %acc\n"
                  "}\n";
  EXPECT_EQ(runText(T, "f", {Cell::fromInt(10)}).asInt(), 45);
}

TEST(Interpreter, GlobalsAreZeroInitialized) {
  const char *T = "global @g 16\n"
                  "define i64 @f() {\n"
                  "entry:\n"
                  "  %v = load i64, @g, 8\n"
                  "  %p = gep @g, 8\n"
                  "  store 9, %p, 8\n"
                  "  %w = load i64, %p, 8\n"
                  "  %r = add %v, %w\n"
                  "  ret %r\n"
                  "}\n";
  EXPECT_EQ(runText(T, "f").asInt(), 9);
}

TEST(Interpreter, PrintFormatsThroughDeferredIo) {
  const char *T = "define void @f() {\n"
                  "entry:\n"
                  "  %x = fadd 1.5, 2.0\n"
                  "  print \"i=%d f=%.2f x=%x\\n\", 42, %x, 255\n"
                  "  ret\n"
                  "}\n";
  std::FILE *Tmp = std::tmpfile();
  Runtime::get().setSequentialOutput(Tmp);
  runText(T, "f");
  Runtime::get().setSequentialOutput(nullptr);
  std::rewind(Tmp);
  char Buf[128] = {};
  ASSERT_NE(std::fgets(Buf, sizeof(Buf), Tmp), nullptr);
  std::fclose(Tmp);
  EXPECT_STREQ(Buf, "i=42 f=3.50 x=ff\n");
}

TEST(Interpreter, InstructionBudgetStopsRunaways) {
  const char *T = "define void @f() {\n"
                  "entry:\n"
                  "  br entry\n"
                  "}\n";
  std::string Err;
  auto M = parseModule(T, Err);
  ASSERT_NE(M, nullptr);
  PlainMemoryManager MM;
  Interpreter I(*M, MM);
  I.setInstructionBudget(1000);
  I.initializeGlobals();
  EXPECT_DEATH(I.run("f", {}), "budget");
}

TEST(Interpreter, SelectAndComparisonPredicates) {
  const char *T = "define i64 @f(i64 %a, i64 %b) {\n"
                  "entry:\n"
                  "  %lt = icmp lt, %a, %b\n"
                  "  %le = icmp le, %a, %b\n"
                  "  %eq = icmp eq, %a, %b\n"
                  "  %ne = icmp ne, %a, %b\n"
                  "  %ge = icmp ge, %a, %b\n"
                  "  %gt = icmp gt, %a, %b\n"
                  "  %max = select %gt, %a, %b\n"
                  "  %bits = add %lt, %le\n"
                  "  %bits2 = add %bits, %eq\n"
                  "  %bits3 = add %bits2, %ne\n"
                  "  %bits4 = add %bits3, %ge\n"
                  "  %bits5 = add %bits4, %gt\n"
                  "  %r = mul %max, 10\n"
                  "  %out = add %r, %bits5\n"
                  "  ret %out\n"
                  "}\n";
  // a=3 b=7: lt=1 le=1 eq=0 ne=1 ge=0 gt=0 -> bits=3; max=7 -> 73.
  EXPECT_EQ(runText(T, "f", {Cell::fromInt(3), Cell::fromInt(7)}).asInt(),
            73);
}

} // namespace
