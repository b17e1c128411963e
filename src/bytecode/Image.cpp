//===- bytecode/Image.cpp - Relocatable lowered-program images ------------===//

#include "bytecode/Image.h"

#include <cstring>

using namespace privateer;
using namespace privateer::bytecode;

namespace {

constexpr uint64_t kImageMagic = 0x5052495642434947ull; // "PRIVBCIG"
// v2: + NumDepChannels; v3: + commutative registrations; v4: - them;
// v5: bitwise and sub-word reductions, alloc-site reductions.
constexpr uint32_t kImageVersion = 5;

// Hard ceilings on embedded counts: an image is at most tens of MB, so a
// count beyond these is corruption, not a big program.
constexpr uint64_t kMaxVecElems = 64u << 20;
constexpr uint64_t kMaxStrBytes = 64u << 20;

void putU8(std::string &B, uint8_t V) { B.push_back(static_cast<char>(V)); }
void putU16(std::string &B, uint16_t V) {
  for (int I = 0; I < 2; ++I)
    B.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}
void putU32(std::string &B, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    B.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}
void putU64(std::string &B, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    B.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}
void putStr(std::string &B, const std::string &S) {
  putU64(B, S.size());
  B.append(S);
}

/// Bounds-checked reader over the raw image bytes.
struct Cursor {
  const uint8_t *P;
  size_t Len;
  size_t Off = 0;
  bool Fail = false;
  std::string Why;

  bool need(size_t N) {
    if (Fail || Len - Off < N) {
      if (!Fail) {
        Fail = true;
        Why = "truncated image";
      }
      return false;
    }
    return true;
  }
  uint8_t getU8() {
    if (!need(1))
      return 0;
    return P[Off++];
  }
  uint16_t getU16() {
    if (!need(2))
      return 0;
    uint16_t V = 0;
    for (int I = 0; I < 2; ++I)
      V |= static_cast<uint16_t>(P[Off + I]) << (8 * I);
    Off += 2;
    return V;
  }
  uint32_t getU32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(P[Off + I]) << (8 * I);
    Off += 4;
    return V;
  }
  uint64_t getU64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(P[Off + I]) << (8 * I);
    Off += 8;
    return V;
  }
  std::string getStr() {
    uint64_t N = getU64();
    if (N > kMaxStrBytes) {
      Fail = true;
      Why = "string length exceeds image limits";
      return {};
    }
    if (!need(N))
      return {};
    std::string S(reinterpret_cast<const char *>(P + Off), N);
    Off += N;
    return S;
  }
  /// Element count prefix for a fixed-stride vector: checked against both
  /// the sanity ceiling and the bytes actually remaining.
  uint64_t getCount(size_t Stride) {
    uint64_t N = getU64();
    if (N > kMaxVecElems || (Stride && !Fail && Len - Off < N * Stride)) {
      Fail = true;
      Why = "element count exceeds image size";
      return 0;
    }
    return N;
  }
};

void putFunction(std::string &B, const BcFunction &F) {
  putStr(B, F.Name);
  putU16(B, F.NumArgs);
  putU16(B, F.NumRegs);
  putU8(B, F.HasRetValue ? 1 : 0);
  putU64(B, F.Code.size());
  for (const BcInst &I : F.Code) {
    putU16(B, I.Op);
    putU16(B, I.A);
    putU16(B, I.B);
    putU16(B, I.C);
    putU64(B, static_cast<uint64_t>(I.Imm));
  }
  putU64(B, F.ConstInit.size());
  for (const auto &[Reg, Bits] : F.ConstInit) {
    putU16(B, Reg);
    putU64(B, Bits);
  }
  putU64(B, F.GlobalInit.size());
  for (const auto &[Reg, GIdx] : F.GlobalInit) {
    putU16(B, Reg);
    putU32(B, GIdx);
  }
  putU64(B, F.RegPool.size());
  for (uint16_t R : F.RegPool)
    putU16(B, R);
  putU64(B, F.CallSites.size());
  for (const BcCallSite &C : F.CallSites) {
    putU32(B, C.Callee);
    putU32(B, C.ArgStart);
    putU16(B, C.ArgCount);
  }
  putU64(B, F.PrintSites.size());
  for (const BcPrintSite &P : F.PrintSites) {
    putStr(B, P.Format);
    putU32(B, P.ArgStart);
    putU16(B, P.ArgCount);
  }
  putU64(B, F.ParSites.size());
  for (const BcParLoopSite &S : F.ParSites) {
    putU16(B, S.BeginReg);
    putU16(B, S.BoundReg);
    putU16(B, S.IvReg);
    putU32(B, S.BodyEntryPc);
    putU32(B, S.ExitEntryPc);
  }
  putU64(B, F.AllocSites.size());
  for (const BcAllocSite &S : F.AllocSites) {
    putU8(B, S.HasHeap ? 1 : 0);
    putU8(B, static_cast<uint8_t>(S.Heap));
    putU8(B, S.Reduces ? 1 : 0);
    putU8(B, static_cast<uint8_t>(S.Elem));
    putU8(B, static_cast<uint8_t>(S.Op));
  }
}

bool getReduction(Cursor &C, ReduxElem &Elem, ReduxOp &Op) {
  uint8_t E = C.getU8(), O = C.getU8();
  Elem = static_cast<ReduxElem>(E);
  Op = static_cast<ReduxOp>(O);
  if (!C.Fail && (E > uint8_t(ReduxElem::F64) || O > uint8_t(ReduxOp::Max) ||
                  !reduxValid(Elem, Op))) {
    C.Fail = true;
    C.Why = "bad reduction registration";
  }
  return !C.Fail;
}

bool getHeapKind(Cursor &C, HeapKind &K) {
  uint8_t V = C.getU8();
  if (V >= kNumHeapKinds) {
    C.Fail = true;
    C.Why = "bad heap kind";
    return false;
  }
  K = static_cast<HeapKind>(V);
  return true;
}

bool getFunction(Cursor &C, BcFunction &F, uint32_t NumFunctions,
                 uint32_t NumGlobals) {
  F.Name = C.getStr();
  F.NumArgs = C.getU16();
  F.NumRegs = C.getU16();
  F.HasRetValue = C.getU8() != 0;
  uint64_t NCode = C.getCount(16);
  F.Code.resize(C.Fail ? 0 : NCode);
  for (BcInst &I : F.Code) {
    I.Op = C.getU16();
    I.A = C.getU16();
    I.B = C.getU16();
    I.C = C.getU16();
    I.Imm = static_cast<int64_t>(C.getU64());
    if (I.Op >= kNumBcOps) {
      C.Fail = true;
      C.Why = "bad opcode";
      return false;
    }
    if (I.Op >= kFirstEventOp) {
      // Event operands index pointer tables of the lowering process.
      C.Fail = true;
      C.Why = "training-run event opcode in an image";
      return false;
    }
  }
  uint64_t NConst = C.getCount(10);
  F.ConstInit.resize(C.Fail ? 0 : NConst);
  for (auto &[Reg, Bits] : F.ConstInit) {
    Reg = C.getU16();
    Bits = C.getU64();
  }
  uint64_t NGlob = C.getCount(6);
  F.GlobalInit.resize(C.Fail ? 0 : NGlob);
  for (auto &[Reg, GIdx] : F.GlobalInit) {
    Reg = C.getU16();
    GIdx = C.getU32();
    if (!C.Fail && GIdx >= NumGlobals) {
      C.Fail = true;
      C.Why = "global index out of range";
      return false;
    }
  }
  uint64_t NPool = C.getCount(2);
  F.RegPool.resize(C.Fail ? 0 : NPool);
  for (uint16_t &R : F.RegPool)
    R = C.getU16();
  uint64_t NCall = C.getCount(10);
  F.CallSites.resize(C.Fail ? 0 : NCall);
  for (BcCallSite &S : F.CallSites) {
    S.Callee = C.getU32();
    S.ArgStart = C.getU32();
    S.ArgCount = C.getU16();
    if (!C.Fail && (S.Callee >= NumFunctions ||
                    uint64_t(S.ArgStart) + S.ArgCount > F.RegPool.size())) {
      C.Fail = true;
      C.Why = "call site out of range";
      return false;
    }
  }
  uint64_t NPrint = C.getCount(8);
  F.PrintSites.resize(C.Fail ? 0 : NPrint);
  for (BcPrintSite &S : F.PrintSites) {
    S.Format = C.getStr();
    S.ArgStart = C.getU32();
    S.ArgCount = C.getU16();
    if (!C.Fail && uint64_t(S.ArgStart) + S.ArgCount > F.RegPool.size()) {
      C.Fail = true;
      C.Why = "print site out of range";
      return false;
    }
  }
  uint64_t NPar = C.getCount(14);
  F.ParSites.resize(C.Fail ? 0 : NPar);
  for (BcParLoopSite &S : F.ParSites) {
    S.BeginReg = C.getU16();
    S.BoundReg = C.getU16();
    S.IvReg = C.getU16();
    S.BodyEntryPc = C.getU32();
    S.ExitEntryPc = C.getU32();
    if (!C.Fail &&
        (S.BodyEntryPc > F.Code.size() || S.ExitEntryPc > F.Code.size())) {
      C.Fail = true;
      C.Why = "parallel site pc out of range";
      return false;
    }
  }
  uint64_t NAlloc = C.getCount(5);
  F.AllocSites.resize(C.Fail ? 0 : NAlloc);
  for (BcAllocSite &S : F.AllocSites) {
    S.HasHeap = C.getU8() != 0;
    if (!getHeapKind(C, S.Heap))
      return false;
    S.Reduces = C.getU8() != 0;
    if (!getReduction(C, S.Elem, S.Op))
      return false;
  }
  return !C.Fail;
}

} // namespace

std::string bytecode::serializeProgram(const BytecodeProgram &Prog) {
  std::string B;
  putU64(B, kImageMagic);
  putU32(B, kImageVersion);
  putU32(B, Prog.NumDepChannels);
  putU64(B, Prog.Globals.size());
  for (const BcGlobal &G : Prog.Globals) {
    putStr(B, G.Name);
    putU64(B, G.SizeBytes);
    putU8(B, G.HasHeap ? 1 : 0);
    putU8(B, static_cast<uint8_t>(G.Heap));
  }
  putU64(B, Prog.ReduxGlobals.size());
  for (const BcReduxGlobal &R : Prog.ReduxGlobals) {
    putU32(B, R.GlobalIdx);
    putU8(B, static_cast<uint8_t>(R.Elem));
    putU8(B, static_cast<uint8_t>(R.Op));
  }
  putU64(B, Prog.Functions.size());
  for (const BcFunction &F : Prog.Functions)
    putFunction(B, F);
  return B;
}

std::unique_ptr<BytecodeProgram>
bytecode::deserializeProgram(const void *Image, size_t Bytes,
                             std::string &Err) {
  Cursor C{static_cast<const uint8_t *>(Image), Bytes, 0, false, {}};
  auto Bad = [&](const std::string &Why) {
    Err = "bytecode image: " + Why;
    return std::unique_ptr<BytecodeProgram>();
  };
  if (C.getU64() != kImageMagic)
    return Bad("bad magic");
  if (C.getU32() != kImageVersion)
    return Bad("unsupported image version");

  auto Prog = std::make_unique<BytecodeProgram>();
  Prog->NumDepChannels = C.getU32();
  uint64_t NumGlobals = C.getCount(10);
  if (C.Fail)
    return Bad(C.Why);
  Prog->Globals.resize(NumGlobals);
  for (uint64_t I = 0; I < NumGlobals; ++I) {
    BcGlobal &G = Prog->Globals[I];
    G.Name = C.getStr();
    G.SizeBytes = C.getU64();
    G.HasHeap = C.getU8() != 0;
    if (!getHeapKind(C, G.Heap))
      return Bad(C.Why);
    if (Prog->GlobalIdx.count(G.Name))
      return Bad("duplicate global name");
    Prog->GlobalIdx[G.Name] = static_cast<uint32_t>(I);
  }
  uint64_t NumRedux = C.getCount(6);
  if (C.Fail)
    return Bad(C.Why);
  Prog->ReduxGlobals.resize(NumRedux);
  for (BcReduxGlobal &R : Prog->ReduxGlobals) {
    R.GlobalIdx = C.getU32();
    if (!getReduction(C, R.Elem, R.Op))
      return Bad(C.Why);
    if (R.GlobalIdx >= NumGlobals)
      return Bad("bad reduction registration");
  }
  uint64_t NumFunctions = C.getCount(0);
  if (C.Fail || NumFunctions > kMaxVecElems)
    return Bad(C.Fail ? C.Why : "function count exceeds image limits");
  Prog->Functions.resize(NumFunctions);
  for (uint64_t I = 0; I < NumFunctions; ++I) {
    if (!getFunction(C, Prog->Functions[I],
                     static_cast<uint32_t>(NumFunctions),
                     static_cast<uint32_t>(NumGlobals)))
      return Bad(C.Why);
    const std::string &Name = Prog->Functions[I].Name;
    if (Prog->FunctionIdx.count(Name))
      return Bad("duplicate function name");
    Prog->FunctionIdx[Name] = static_cast<uint32_t>(I);
  }
  if (C.Off != C.Len)
    return Bad("trailing bytes after program");
  return Prog;
}
