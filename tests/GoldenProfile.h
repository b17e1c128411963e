//===- tests/GoldenProfile.h - Golden training profiles ---------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The programs whose serialized training profiles are committed under
/// tests/golden/, and the normalization that makes a profile comparable
/// across processes.  A serialized profile holds absolute addresses
/// (global bases, predicted-load addresses, pointer values); the
/// normalized text writes an address inside a global as "@name+offset"
/// and any other address-like value as "heap", then re-sorts the lines.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_TESTS_GOLDENPROFILE_H
#define PRIVATEER_TESTS_GOLDENPROFILE_H

#include "ir/IR.h"
#include "workloads/IrPrograms.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace privateer {
namespace golden {

struct GoldenProgram {
  std::string Name; ///< file stem under tests/golden/
  std::string Text;
  std::string Entry; ///< the training entry the profile comes from
};

/// Every generator of workloads/IrPrograms.h at a small size, plus the
/// separate training entries of dijkstra, histogram and degree-count
/// (dedup has none).
inline std::vector<GoldenProgram> goldenPrograms() {
  return {
      {"dijkstra", dijkstraIrText(8), "main"},
      {"dijkstra.main_train", dijkstraIrText(8), "main_train"},
      {"redsum", reductionSumIrText(200), "main"},
      {"recurrence", recurrenceIrText(64), "main"},
      {"fppricing", fpPricingIrText(64), "main"},
      {"array-recurrence", arrayRecurrenceIrText(64, 4), "main"},
      {"scalar-carry", scalarCarryIrText(64), "main"},
      {"histogram", histogramIrText(128, 32, 2), "main"},
      {"histogram.train", histogramIrText(128, 32, 2), "train"},
      {"degree-count", degreeCountIrText(32, 256, 2), "main"},
      {"degree-count.train", degreeCountIrText(32, 256, 2), "train"},
      {"dedup", dedupIrText(128, 8, 2), "main"},
  };
}

/// Rewrites the absolute addresses of a serializeProfile() text of \p M.
/// Values below 2^32 are program integers and stay as they are; a larger
/// value is an address ("@global+offset" when inside a global, "heap"
/// otherwise).
inline std::string normalizeProfile(const std::string &Serialized,
                                    const ir::Module &M) {
  std::istringstream In(Serialized);
  std::string Header, Line;
  std::getline(In, Header);
  std::vector<std::string> Lines;
  std::map<uint64_t, const ir::GlobalVariable *> Bases;
  while (std::getline(In, Line)) {
    Lines.push_back(Line);
    std::istringstream S(Line);
    std::string Kw, Name;
    uint64_t Base = 0;
    if (S >> Kw >> Name >> Base && Kw == "globalbase")
      Bases[Base] = M.globalByName(Name);
  }
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

} // namespace golden
} // namespace privateer

#endif // PRIVATEER_TESTS_GOLDENPROFILE_H
