//===- profiling/ProfileSerialization.cpp ---------------------------------===//

#include "profiling/ProfileSerialization.h"

#include <algorithm>
#include <map>
#include <sstream>

using namespace privateer;
using namespace privateer::profiling;
using namespace privateer::analysis;
using namespace privateer::ir;

namespace {

/// Stable instruction coordinate: function@block@index.
std::string instRef(const Instruction *I) {
  const BasicBlock *B = I->parent();
  return B->parent()->name() + "@" + B->name() + "@" +
         std::to_string(B->indexOf(I));
}

/// Stable loop coordinate: function@header.
std::string loopRef(const Loop *L) {
  return L->header()->parent()->name() + "@" + L->header()->name();
}

/// Object token: "G:<name>" or "S:<instref>|<context-or-minus>".
std::string objectRef(const ObjectKey &K) {
  if (K.Global)
    return "G:" + K.Global->name();
  return "S:" + instRef(K.AllocSite) + "|" +
         (K.Context.empty() ? "-" : K.Context);
}

} // namespace

std::string profiling::serializeProfile(const Profile &P, const Module &M) {
  (void)M;
  // The profile's maps are keyed by pointers, whose iteration order is
  // not deterministic across runs; emit records sorted by their textual
  // form so the serialization is canonical.
  std::vector<std::string> Lines;
  for (const ObjectKey &K : P.Objects)
    Lines.push_back("object " + objectRef(K));
  for (const auto &[G, Base] : P.GlobalBases)
    Lines.push_back("globalbase " + G->name() + " " + std::to_string(Base));
  for (const auto &[I, Objs] : P.InstObjects) {
    std::string L = "instobj " + instRef(I);
    // ObjectKey sets are pointer-ordered too; sort their refs.
    std::vector<std::string> Refs;
    for (const ObjectKey &K : Objs)
      Refs.push_back(objectRef(K));
    std::sort(Refs.begin(), Refs.end());
    for (const std::string &R : Refs)
      L += " " + R;
    Lines.push_back(std::move(L));
  }
  for (const auto &[Key, Counts] : P.Lifetime)
    Lines.push_back("lifetime " + objectRef(Key.first) + " " +
                    loopRef(Key.second) + " " +
                    std::to_string(Counts.first) + " " +
                    std::to_string(Counts.second));
  for (const auto &[L, Deps] : P.FlowDeps)
    for (const FlowDep &D : Deps)
      Lines.push_back("flowdep " + loopRef(L) + " " + instRef(D.Src) +
                      " " + instRef(D.Dst));
  for (const auto &[Key, DS] : P.DepDistances)
    Lines.push_back("depdist " + loopRef(Key.first) + " " +
                    instRef(Key.second.Src) + " " + instRef(Key.second.Dst) +
                    " " + std::to_string(DS.Min) + " " +
                    std::to_string(DS.Max) + " " +
                    std::to_string(DS.Samples));
  for (const auto &[Key, PL] : P.Predictables)
    Lines.push_back("pred " + instRef(Key.first) + " " +
                    loopRef(Key.second) + " " + std::to_string(PL.Address) +
                    " " + std::to_string(PL.Bytes) + " " +
                    std::to_string(PL.Value));
  for (const auto &[L, S] : P.Loops)
    Lines.push_back("loop " + loopRef(L) + " " +
                    std::to_string(S.Invocations) + " " +
                    std::to_string(S.Iterations) + " " +
                    std::to_string(S.Weight));
  for (const auto &[I, C] : P.Branches)
    Lines.push_back("branch " + instRef(I) + " " + std::to_string(C.first) +
                    " " + std::to_string(C.second));
  std::sort(Lines.begin(), Lines.end());

  std::string Out = "privateer-profile v1\n";
  for (const std::string &L : Lines) {
    Out += L;
    Out += "\n";
  }
  return Out;
}

std::string profiling::normalizedProfile(const Profile &P, const Module &M) {
  std::istringstream In(serializeProfile(P, M));
  std::string Header, Line;
  std::getline(In, Header);
  std::vector<std::string> Lines;
  std::map<uint64_t, const GlobalVariable *> Bases;
  while (std::getline(In, Line)) {
    Lines.push_back(Line);
    std::istringstream S(Line);
    std::string Kw, Name;
    uint64_t Base = 0;
    if (S >> Kw >> Name >> Base && Kw == "globalbase")
      Bases[Base] = M.globalByName(Name);
  }
  // Values below 2^32 are program integers and stay as they are; a larger
  // value is an address.
  auto Sym = [&](const std::string &Tok) {
    if (Tok[0] == '-' || std::stoull(Tok) < (1ull << 32))
      return Tok;
    uint64_t V = std::stoull(Tok);
    auto It = Bases.upper_bound(V);
    if (It != Bases.begin()) {
      --It;
      if (It->second && V < It->first + It->second->sizeBytes())
        return "@" + It->second->name() + "+" + std::to_string(V - It->first);
    }
    return std::string("heap");
  };
  for (std::string &L : Lines) {
    std::istringstream S(L);
    std::vector<std::string> Toks;
    for (std::string T; S >> T;)
      Toks.push_back(T);
    if (Toks.size() == 3 && Toks[0] == "globalbase")
      Toks[2] = Sym(Toks[2]);
    else if (Toks.size() == 6 && Toks[0] == "pred") {
      Toks[3] = Sym(Toks[3]);
      Toks[5] = Sym(Toks[5]);
    }
    L.clear();
    for (const std::string &T : Toks)
      L += (L.empty() ? "" : " ") + T;
  }
  std::sort(Lines.begin(), Lines.end());
  std::string Out = Header + "\n";
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}
