//===- tests/RandomIrPrograms.cpp - Seeded IR program generators ----------===//

#include "RandomIrPrograms.h"

#include "support/DeterministicRng.h"

#include <cstdio>

namespace privateer {

/// Seeded generator of a privatization-friendly kernel: write-then-read
/// private scratch, a read-only table, per-iteration live-out stores, a
/// load-add-store sum reduction — the shape the paper's Figure 2/4
/// workloads share — with randomized sizes and constants.  Every kernel
/// also folds in a cluster of defined-semantics edge operands (sdiv/srem
/// by -1 and INT64_MIN, fptosi of NaN/±inf/1e300) so the sweep pins the
/// bytecode VM and the interpreter to the same wraparound/saturation
/// contract, not just the happy path.
std::string randomIrProgram(uint64_t Seed, uint64_t &IterationsOut) {
  DeterministicRng Rng(Seed * 0x9e3779b97f4a7c15ULL + 17);
  uint64_t N = 96 + Rng.nextBelow(128); // Kernel trip count.
  unsigned Slots = 1 + static_cast<unsigned>(Rng.nextBelow(4));
  uint64_t OutSlots = 16 + Rng.nextBelow(48);
  uint64_t TabSlots = 8 + Rng.nextBelow(24);
  uint64_t C1 = 1 + Rng.nextBelow(1000003);
  uint64_t C2 = 1 + Rng.nextBelow(997);
  uint64_t C3 = 2 + Rng.nextBelow(89);
  uint64_t PrintMod = 3 + Rng.nextBelow(9);
  bool ShortLived = (Rng.next() & 1) != 0;
  bool Print = (Rng.next() & 1) != 0;
  IterationsOut = N;

  std::string S;
  char Buf[512];
  auto Emit = [&](const char *Fmt, auto... Args) {
    std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
    S += Buf;
  };
  auto U = [](uint64_t V) { return static_cast<unsigned long long>(V); };

  Emit("global @tab %llu\n", U(TabSlots * 8));
  Emit("global @scratch %llu\n", U(Slots * 8));
  Emit("global @out %llu\n", U(OutSlots * 8));
  S += "global @acc 8\n\n";

  // Fill the read-only table before the kernel runs.
  S += "define void @fill(i64 %n) {\n"
       "entry:\n  br loop\n"
       "loop:\n  %i = phi [entry: 0], [latch: %inext]\n"
       "  %c = icmp lt, %i, %n\n  condbr %c, latch, exit\n"
       "latch:\n";
  Emit("  %%h = mul %%i, %llu\n", U(C1));
  Emit("  %%v = srem %%h, %llu\n", U(1 + C2));
  S += "  %off = mul %i, 8\n  %p = gep @tab, %off\n  store %v, %p, 8\n"
       "  %inext = add %i, 1\n  br loop\n"
       "exit:\n  ret\n}\n\n";

  S += "define void @kernel(i64 %n) {\n"
       "entry:\n  br loop\n"
       "loop:\n  %i = phi [entry: 0], [latch: %inext]\n"
       "  %c = icmp lt, %i, %n\n  condbr %c, body, exit\n"
       "body:\n";
  // Read-only table load.
  Emit("  %%tmod = srem %%i, %llu\n", U(TabSlots));
  S += "  %toff = mul %tmod, 8\n  %tp = gep @tab, %toff\n"
       "  %t = load i64, %tp, 8\n";
  Emit("  %%h = mul %%i, %llu\n", U(C1));
  // Private scratch: overwrite every slot, then read them all back, so
  // each iteration's reads see only its own writes (privatizable).
  for (unsigned J = 0; J < Slots; ++J) {
    Emit("  %%w%u = add %%h, %llu\n", J, U(C2 + J * C3));
    Emit("  %%sp%u = gep @scratch, %u\n", J, J * 8);
    Emit("  store %%w%u, %%sp%u, 8\n", J, J);
  }
  S += "  %sum0 = add %t, 0\n";
  for (unsigned J = 0; J < Slots; ++J) {
    Emit("  %%r%u = load i64, %%sp%u, 8\n", J, J);
    Emit("  %%m%u = srem %%r%u, %llu\n", J, J, U(1 + C3 + J));
    Emit("  %%sum%u = add %%sum%u, %%m%u\n", J + 1, J, J);
  }
  Emit("  %%sum = xor %%sum%u, %%tmod\n", Slots);
  // Edge-operand cluster: INT64_MIN / -1 wraps (no SIGFPE), x % -1 is 0,
  // fptosi saturates (NaN -> 0).  Divisors are compile-time nonzero; the
  // seed picks which results feed the live-out mix.
  S += "  %emin = add 0, -9223372036854775808\n"
       "  %eneg = add 0, -1\n"
       "  %ed1 = sdiv %emin, %eneg\n"
       "  %er1 = srem %emin, %eneg\n"
       "  %ed2 = sdiv %sum, -1\n"
       "  %er2 = srem %i, %emin\n"
       "  %finf = fdiv 1.0, 0.0\n"
       "  %fninf = fdiv -1.0, 0.0\n"
       "  %fnan = fsub %finf, %finf\n"
       "  %ci = fptosi %finf\n"
       "  %cni = fptosi %fninf\n"
       "  %cn = fptosi %fnan\n"
       "  %cb = fptosi 1e300\n"
       "  %eg0 = add %ed1, %er1\n"
       "  %eg1 = add %eg0, %ed2\n"
       "  %eg2 = add %eg1, %er2\n"
       "  %eg3 = add %eg2, %ci\n"
       "  %eg4 = add %eg3, %cni\n"
       "  %eg5 = add %eg4, %cn\n"
       "  %eg6 = add %eg5, %cb\n";
  Emit("  %%esel = srem %%eg6, %llu\n", U(3 + Rng.nextBelow(61)));
  S += "  %sumx = xor %sum, %esel\n";
  if (ShortLived) {
    // A node allocated and freed inside the iteration: lifetime
    // speculation's short-lived heap.
    S += "  %node = malloc 16\n"
         "  store %sumx, %node, 8\n"
         "  %np = gep %node, 8\n"
         "  store %h, %np, 8\n"
         "  %nv0 = load i64, %node, 8\n"
         "  %nv1 = load i64, %np, 8\n"
         "  %nv = add %nv0, %nv1\n"
         "  free %node\n";
  } else {
    S += "  %nv = add %sumx, %h\n";
  }
  // Live-out store (last writer of the slot wins, like the native sweep).
  Emit("  %%omod = srem %%i, %llu\n", U(OutSlots));
  S += "  %ooff = mul %omod, 8\n  %op = gep @out, %ooff\n"
       "  store %nv, %op, 8\n";
  // Sum reduction (load-add-store on @acc).
  S += "  %old = load i64, @acc, 8\n"
       "  %new = add %old, %sum\n"
       "  store %new, @acc, 8\n";
  if (Print) {
    Emit("  %%pm = srem %%sum, %llu\n", U(PrintMod));
    S += "  %pc = icmp eq, %pm, 0\n"
         "  condbr %pc, doprint, latch\n"
         "doprint:\n"
         "  print \"it %d v %d\\n\", %i, %sum\n"
         "  br latch\n";
  } else {
    S += "  br latch\n";
  }
  S += "latch:\n  %inext = add %i, 1\n  br loop\n"
       "exit:\n  ret\n}\n\n";

  // @main prints every live-out so text comparison covers final state.
  S += "define i64 @main() {\n"
       "entry:\n";
  Emit("  call @fill(%llu)\n", U(TabSlots));
  Emit("  call @kernel(%llu)\n", U(N));
  S += "  br sumloop\n"
       "sumloop:\n"
       "  %i = phi [entry: 0], [slatch: %inext]\n"
       "  %acc = phi [entry: 0], [slatch: %acc2]\n";
  Emit("  %%c = icmp lt, %%i, %llu\n", U(OutSlots));
  S += "  condbr %c, slatch, done\n"
       "slatch:\n"
       "  %off = mul %i, 8\n  %p = gep @out, %off\n"
       "  %v = load i64, %p, 8\n"
       "  %acc2 = add %acc, %v\n"
       "  %inext = add %i, 1\n  br sumloop\n"
       "done:\n"
       "  %red = load i64, @acc, 8\n"
       "  print \"outsum %d red %d\\n\", %acc, %red\n"
       "  %r = add %acc, %red\n"
       "  ret %r\n}\n";
  return S;
}

/// Seeded generator of a dependence-carrying kernel.  Always emits @a
/// (array recurrence storage), @b (per-iteration live-outs), and @acc
/// (sum reduction) so @main can digest every observable identically
/// across shapes; the seed decides which dependences actually exist.
std::string randomDepLoopProgram(uint64_t Seed, uint64_t &IterationsOut) {
  DeterministicRng Rng(Seed * 0x9e3779b97f4a7c15ULL + 41);
  uint64_t N = 96 + Rng.nextBelow(160);
  bool HasArray = (Rng.next() & 1) != 0;
  bool Variable = HasArray && (Rng.next() & 1) != 0;
  bool HasScalar = !HasArray || (Rng.next() & 1) != 0;
  bool HasRedux = (Rng.next() & 1) != 0;
  bool Print = (Rng.next() & 1) != 0;
  uint64_t Mask = (1ull << (1 + Rng.nextBelow(3))) - 1; // 1, 3, or 7.
  uint64_t Dist = 1 + Rng.nextBelow(6);
  uint64_t Begin = HasArray ? (Variable ? Mask + 1 : Dist) : 0;
  uint64_t C1 = 3 + Rng.nextBelow(97);
  uint64_t C2 = 7 + Rng.nextBelow(1000003);
  uint64_t C3 = 3 + Rng.nextBelow(89);
  uint64_t C4 = 11 + Rng.nextBelow(99991);
  uint64_t PrintMod = 3 + Rng.nextBelow(9);
  IterationsOut = N - Begin;

  std::string S;
  char Buf[512];
  auto Emit = [&](const char *Fmt, auto... Args) {
    std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
    S += Buf;
  };
  auto U = [](uint64_t V) { return static_cast<unsigned long long>(V); };

  Emit("global @a %llu\n", U(N * 8));
  Emit("global @b %llu\n", U(N * 8));
  S += "global @acc 8\n\n";

  // Seed the recurrence's pre-loop elements (straight-line; Begin <= 8).
  S += "define void @seedfn() {\nentry:\n";
  for (uint64_t K = 0; K < Begin; ++K) {
    if (K == 0) {
      Emit("  store %llu, @a, 8\n", U(10 + C1));
    } else {
      Emit("  %%sp%llu = gep @a, %llu\n", U(K), U(K * 8));
      Emit("  store %llu, %%sp%llu, 8\n", U(10 + C1 + K * C3), U(K));
    }
  }
  S += "  ret\n}\n\n";

  S += "define void @kernel(i64 %n) {\n"
       "entry:\n  br loop\n"
       "loop:\n";
  Emit("  %%i = phi [entry: %llu], [latch: %%inext]\n", U(Begin));
  if (HasScalar)
    S += "  %s = phi [entry: 5], [latch: %sn]\n";
  S += "  %c = icmp lt, %i, %n\n  condbr %c, body, exit\n"
       "body:\n"
       "  %ioff = mul %i, 8\n";
  std::string Mix = "%i";
  if (HasArray) {
    // Back-index: fixed IV - Dist, or IV - x with x = (i & Mask) + 1 —
    // the interval analysis proves x in [1, Mask + 1].
    if (Variable) {
      Emit("  %%hx = and %%i, %llu\n", U(Mask));
      S += "  %x = add %hx, 1\n"
           "  %j = sub %i, %x\n";
    } else {
      Emit("  %%j = sub %%i, %llu\n", U(Dist));
    }
    S += "  %joff = mul %j, 8\n"
         "  %jp = gep @a, %joff\n"
         "  %prev = load i64, %jp, 8\n";
    Emit("  %%av0 = mul %%prev, %llu\n", U(C1));
    S += "  %av1 = add %av0, %i\n";
    Emit("  %%av = srem %%av1, %llu\n", U(C2));
    S += "  %ip = gep @a, %ioff\n"
         "  store %av, %ip, 8\n";
    Mix = "%av";
  }
  if (HasScalar) {
    Emit("  %%sm = mul %%s, %llu\n", U(C3));
    Emit("  %%sa = add %%sm, %s\n", Mix.c_str());
    Emit("  %%sn = srem %%sa, %llu\n", U(C4));
    Mix = "%sn";
  }
  Emit("  %%mix = xor %s, %%i\n", Mix.c_str());
  S += "  %bp = gep @b, %ioff\n"
       "  store %mix, %bp, 8\n";
  if (HasRedux)
    S += "  %old = load i64, @acc, 8\n"
         "  %new = add %old, %mix\n"
         "  store %new, @acc, 8\n";
  if (Print) {
    Emit("  %%pm = srem %%mix, %llu\n", U(PrintMod));
    S += "  %pc = icmp eq, %pm, 0\n"
         "  condbr %pc, doprint, latch\n"
         "doprint:\n"
         "  print \"it %d v %d\\n\", %i, %mix\n"
         "  br latch\n";
  } else {
    S += "  br latch\n";
  }
  S += "latch:\n  %inext = add %i, 1\n  br loop\n"
       "exit:\n  ret\n}\n\n";

  // @main digests every observable: all of @b, the recurrence's last
  // element, and the reduction cell.
  S += "define i64 @main() {\n"
       "entry:\n"
       "  call @seedfn()\n";
  Emit("  call @kernel(%llu)\n", U(N));
  S += "  br sumloop\n"
       "sumloop:\n"
       "  %i = phi [entry: 0], [slatch: %inext]\n"
       "  %acc = phi [entry: 0], [slatch: %acc2]\n";
  Emit("  %%c = icmp lt, %%i, %llu\n", U(N));
  S += "  condbr %c, slatch, done\n"
       "slatch:\n"
       "  %off = mul %i, 8\n  %p = gep @b, %off\n"
       "  %v = load i64, %p, 8\n"
       "  %acc2 = add %acc, %v\n"
       "  %inext = add %i, 1\n  br sumloop\n"
       "done:\n";
  Emit("  %%ap = gep @a, %llu\n", U((N - 1) * 8));
  S += "  %alast = load i64, %ap, 8\n"
       "  %red = load i64, @acc, 8\n"
       "  print \"bsum %d alast %d red %d\\n\", %acc, %alast, %red\n"
       "  %r0 = add %acc, %alast\n"
       "  %r = add %r0, %red\n"
       "  ret %r\n}\n";
  return S;
}

/// Seeded generator of a commutative-update kernel: one or two hashed
/// tables, each updated through a randomly chosen ReduxOp (pattern A folds
/// or pattern B min/max with randomized predicate direction and select
/// arm order), plus per-iteration live-out stores and optional deferred
/// output.
std::string randomComLoopProgram(uint64_t Seed, uint64_t &IterationsOut) {
  DeterministicRng Rng(Seed * 0x9e3779b97f4a7c15ULL + 73);
  uint64_t N = 96 + Rng.nextBelow(128);
  uint64_t TabSlots = 8 + Rng.nextBelow(24);
  uint64_t Tab2Slots = 8 + Rng.nextBelow(24);
  uint64_t OutSlots = 16 + Rng.nextBelow(48);
  uint64_t C1 = 3 + Rng.nextBelow(1000003);
  uint64_t C2 = 7 + Rng.nextBelow(99991);
  uint64_t C3 = 11 + Rng.nextBelow(997);
  uint64_t C4 = 5 + Rng.nextBelow(9973);
  uint64_t PrintMod = 3 + Rng.nextBelow(9);
  unsigned Op1 = static_cast<unsigned>(Rng.nextBelow(7));
  unsigned Op2 = static_cast<unsigned>(Rng.nextBelow(7));
  bool Second = (Rng.next() & 1) != 0;
  bool Print = (Rng.next() & 1) != 0;
  IterationsOut = N;

  std::string S;
  char Buf[512];
  auto Emit = [&](const char *Fmt, auto... Args) {
    std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
    S += Buf;
  };
  auto U = [](uint64_t V) { return static_cast<unsigned long long>(V); };

  // Op encoding: 0 add, 1 mul, 2 and, 3 or, 4 xor, 5 min, 6 max.  The
  // identity each table is filled with before the kernel runs.
  auto InitFor = [](unsigned Op) -> long long {
    switch (Op) {
    case 1:
      return 1; // mul
    case 2:
      return -1; // and: all ones
    case 5:
      return 4611686018427387903LL; // min: large sentinel
    default:
      return 0; // add/or/xor/max (values are nonnegative)
    }
  };

  // The RMW cluster: load through one gep, combine, store through a
  // *recomputed* gep of the same offset.
  auto EmitRmw = [&](const char *Pfx, const char *Tab, unsigned Op,
                     const char *Val, const char *Off) {
    Emit("  %%%sp = gep @%s, %%%s\n", Pfx, Tab, Off);
    Emit("  %%%sold = load i64, %%%sp, 8\n", Pfx, Pfx);
    switch (Op) {
    case 0:
      Emit("  %%%snew = add %%%sold, %%%s\n", Pfx, Pfx, Val);
      break;
    case 1:
      // Odd multiplier keeps the product chain nontrivial; i64
      // wraparound multiply is still fully commutative/associative.
      Emit("  %%%sodd = or %%%s, 1\n", Pfx, Val);
      Emit("  %%%snew = mul %%%sold, %%%sodd\n", Pfx, Pfx, Pfx);
      break;
    case 2:
      Emit("  %%%snew = and %%%sold, %%%s\n", Pfx, Pfx, Val);
      break;
    case 3:
      Emit("  %%%snew = or %%%sold, %%%s\n", Pfx, Pfx, Val);
      break;
    case 4:
      Emit("  %%%snew = xor %%%sold, %%%s\n", Pfx, Pfx, Val);
      break;
    default: {
      // Pattern B with a random orientation: the recognizer accepts
      // either predicate direction and either select arm order.
      bool WantMin = Op == 5;
      bool SwapArms = (Rng.next() & 1) != 0;
      // Straight arms (select c, old, v): min iff the predicate is an
      // ordering-less-than; swapped arms flip it.
      bool PredLt = WantMin == !SwapArms;
      Emit("  %%%sc = icmp %s, %%%sold, %%%s\n", Pfx, PredLt ? "lt" : "gt",
           Pfx, Val);
      if (SwapArms)
        Emit("  %%%snew = select %%%sc, %%%s, %%%sold\n", Pfx, Pfx, Val, Pfx);
      else
        Emit("  %%%snew = select %%%sc, %%%sold, %%%s\n", Pfx, Pfx, Pfx, Val);
      break;
    }
    }
    Emit("  %%%sq = gep @%s, %%%s\n", Pfx, Tab, Off);
    Emit("  store %%%snew, %%%sq, 8\n", Pfx, Pfx);
  };

  Emit("global @tab %llu\n", U(TabSlots * 8));
  if (Second)
    Emit("global @tab2 %llu\n", U(Tab2Slots * 8));
  Emit("global @out %llu\n\n", U(OutSlots * 8));

  // Fill both tables with their operator identities.
  S += "define void @init() {\n"
       "entry:\n  br loop\n"
       "loop:\n  %i = phi [entry: 0], [cont: %inext]\n";
  Emit("  %%c = icmp lt, %%i, %llu\n", U(TabSlots > Tab2Slots || !Second
                                             ? TabSlots
                                             : Tab2Slots));
  S += "  condbr %c, latch, exit\n"
       "latch:\n  %off = mul %i, 8\n";
  Emit("  %%bc = icmp lt, %%i, %llu\n", U(TabSlots));
  S += "  condbr %bc, store1, next1\n"
       "store1:\n  %p = gep @tab, %off\n";
  Emit("  store %lld, %%p, 8\n", InitFor(Op1));
  S += "  br next1\nnext1:\n";
  if (Second) {
    Emit("  %%bc2 = icmp lt, %%i, %llu\n", U(Tab2Slots));
    S += "  condbr %bc2, store2, cont\n"
         "store2:\n  %p2 = gep @tab2, %off\n";
    Emit("  store %lld, %%p2, 8\n", InitFor(Op2));
    S += "  br cont\n";
  } else {
    S += "  br cont\n";
  }
  S += "cont:\n  %inext = add %i, 1\n  br loop\n"
       "exit:\n  ret\n}\n\n";

  S += "define void @kernel(i64 %n) {\n"
       "entry:\n  br loop\n"
       "loop:\n  %i = phi [entry: 0], [latch: %inext]\n"
       "  %c = icmp lt, %i, %n\n  condbr %c, body, exit\n"
       "body:\n";
  Emit("  %%h = mul %%i, %llu\n", U(C1));
  Emit("  %%v = srem %%h, %llu\n", U(C2));
  Emit("  %%bmod = srem %%h, %llu\n", U(TabSlots));
  S += "  %boff = mul %bmod, 8\n";
  EmitRmw("t", "tab", Op1, "v", "boff");
  if (Second) {
    Emit("  %%h2 = add %%h, %llu\n", U(C3));
    Emit("  %%v2 = srem %%h2, %llu\n", U(C4));
    Emit("  %%bmod2 = srem %%h2, %llu\n", U(Tab2Slots));
    S += "  %boff2 = mul %bmod2, 8\n";
    EmitRmw("u", "tab2", Op2, "v2", "boff2");
  }
  // Per-iteration live-out (last writer of the slot wins).
  Emit("  %%omod = srem %%i, %llu\n", U(OutSlots));
  S += "  %ooff = mul %omod, 8\n  %lp = gep @out, %ooff\n"
       "  %lv = xor %h, %i\n"
       "  store %lv, %lp, 8\n";
  if (Print) {
    Emit("  %%pm = srem %%i, %llu\n", U(PrintMod));
    S += "  %pc = icmp eq, %pm, 0\n"
         "  condbr %pc, doprint, latch\n"
         "doprint:\n"
         "  print \"it %d v %d\\n\", %i, %lv\n"
         "  br latch\n";
  } else {
    S += "  br latch\n";
  }
  S += "latch:\n  %inext = add %i, 1\n  br loop\n"
       "exit:\n  ret\n}\n\n";

  // @main digests every table cell and live-out slot.
  S += "define i64 @main() {\n"
       "entry:\n  call @init()\n";
  Emit("  call @kernel(%llu)\n", U(N));
  S += "  br tloop\n"
       "tloop:\n"
       "  %i = phi [entry: 0], [tlatch: %inext]\n"
       "  %acc = phi [entry: 0], [tlatch: %acc2]\n";
  Emit("  %%c = icmp lt, %%i, %llu\n", U(TabSlots));
  S += "  condbr %c, tlatch, t2\n"
       "tlatch:\n"
       "  %off = mul %i, 8\n  %p = gep @tab, %off\n"
       "  %v = load i64, %p, 8\n"
       "  %acc2 = add %acc, %v\n"
       "  %inext = add %i, 1\n  br tloop\n"
       "t2:\n";
  if (Second) {
    S += "  br t2loop\n"
         "t2loop:\n"
         "  %i2 = phi [t2: 0], [t2latch: %i2next]\n"
         "  %bacc = phi [t2: %acc], [t2latch: %bacc2]\n";
    Emit("  %%c2 = icmp lt, %%i2, %llu\n", U(Tab2Slots));
    S += "  condbr %c2, t2latch, oloop0\n"
         "t2latch:\n"
         "  %off2 = mul %i2, 8\n  %p2 = gep @tab2, %off2\n"
         "  %v2 = load i64, %p2, 8\n"
         "  %bacc2 = add %bacc, %v2\n"
         "  %i2next = add %i2, 1\n  br t2loop\n"
         "oloop0:\n  br oloop\n";
  } else {
    S += "  br oloop\n";
  }
  S += "oloop:\n";
  Emit("  %%j = phi [%s: 0], [olatch: %%jnext]\n", Second ? "oloop0" : "t2");
  Emit("  %%oacc = phi [%s: %s], [olatch: %%oacc2]\n",
       Second ? "oloop0" : "t2", Second ? "%bacc" : "%acc");
  Emit("  %%oc = icmp lt, %%j, %llu\n", U(OutSlots));
  S += "  condbr %oc, olatch, done\n"
       "olatch:\n"
       "  %joff = mul %j, 8\n  %jp = gep @out, %joff\n"
       "  %jv = load i64, %jp, 8\n"
       "  %oacc2 = add %oacc, %jv\n"
       "  %jnext = add %j, 1\n  br oloop\n"
       "done:\n"
       "  print \"digest %d\\n\", %oacc\n"
       "  ret %oacc\n}\n";
  return S;
}

} // namespace privateer
