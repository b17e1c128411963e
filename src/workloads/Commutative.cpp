//===- workloads/Commutative.cpp ------------------------------------------===//

#include "workloads/Commutative.h"

#include "runtime/Privateer.h"

#include <cstring>
#include <vector>

using namespace privateer;

namespace {

constexpr int64_t kMinInit = 1'000'000'000;

/// The same mixing recurrence the IR workloads use: a few LCG rounds over
/// a small prime field, deterministic and cheap to reproduce in plain C++.
uint64_t mixKey(uint64_t X, uint64_t Rounds) {
  for (uint64_t R = 0; R < Rounds; ++R)
    X = (X * 1103515245 + 12345) % 1000003;
  return X;
}

} // namespace

CommutativeWorkload::CommutativeWorkload(Kind K, Scale S) : K(K) {
  bool Small = S == Scale::Small;
  Rounds = Small ? 6 : 24;
  switch (K) {
  case Kind::Histogram:
    Iterations = Small ? 3000 : 300000;
    Buckets = Small ? 128 : 4096;
    break;
  case Kind::Degree:
    Iterations = Small ? 3000 : 300000;
    Nodes = Small ? 96 : 4096;
    break;
  case Kind::Dedup:
    Iterations = Small ? 3000 : 300000;
    Words = Small ? 64 : 2048;
    break;
  }
}

const char *CommutativeWorkload::name() const {
  switch (K) {
  case Kind::Histogram:
    return "histogram";
  case Kind::Degree:
    return "degree-count";
  case Kind::Dedup:
    return "dedup";
  }
  return "commutative";
}

HeapSites CommutativeWorkload::ourSites() const {
  HeapSites S;
  switch (K) {
  case Kind::Histogram:
    S.Commutative = 2;
    break;
  case Kind::Degree:
    S.ReadOnly = 2;
    S.Commutative = 1;
    break;
  case Kind::Dedup:
    S.Commutative = 1;
    break;
  }
  return S;
}

void CommutativeWorkload::setUp() {
  // Each table is a commutative object: registered, it gets one copy per
  // worker that the checkpoints combine.
  auto Table = [](uint64_t Count, ComOp Op) {
    void *P = h_alloc(Count * sizeof(int64_t), HeapKind::Commutative);
    std::memset(P, 0, Count * sizeof(int64_t));
    Runtime::get().registerReduction(P, Count * sizeof(int64_t),
                                     ReduxElem::I64, Op);
    return static_cast<int64_t *>(P);
  };
  switch (K) {
  case Kind::Histogram:
    Hist = Table(Buckets, ComOp::Add);
    HMin = Table(Buckets, ComOp::Min);
    for (uint64_t B = 0; B < Buckets; ++B)
      HMin[B] = kMinInit;
    break;
  case Kind::Degree:
    Src = static_cast<int64_t *>(
        h_alloc(Iterations * sizeof(int64_t), HeapKind::ReadOnly));
    Dst = static_cast<int64_t *>(
        h_alloc(Iterations * sizeof(int64_t), HeapKind::ReadOnly));
    Deg = Table(Nodes, ComOp::Add);
    for (uint64_t E = 0; E < Iterations; ++E) {
      Src[E] = static_cast<int64_t>((E * 2654435761u) % Nodes);
      Dst[E] = static_cast<int64_t>((E * 40503 + 17) % Nodes);
    }
    break;
  case Kind::Dedup:
    Seen = Table(Words, ComOp::Or);
    break;
  }
}

void CommutativeWorkload::tearDown() {
  for (int64_t *P : {Hist, HMin, Deg, Seen})
    if (P)
      h_dealloc(P, HeapKind::Commutative);
  for (int64_t *P : {Src, Dst})
    if (P)
      h_dealloc(P, HeapKind::ReadOnly);
  Hist = HMin = Src = Dst = Deg = Seen = nullptr;
}

void CommutativeWorkload::body(uint64_t I) {
  switch (K) {
  case Kind::Histogram: {
    uint64_t H = mixKey(I, Rounds);
    uint64_t B = H % Buckets;
    com_update(&Hist[B], ComOp::Add, 8, 1);
    com_update(&HMin[B], ComOp::Min, 8, static_cast<int64_t>(H % 4096));
    break;
  }
  case Kind::Degree:
    com_update(&Deg[Src[I]], ComOp::Add, 8, 1);
    com_update(&Deg[Dst[I]], ComOp::Add, 8, 1);
    break;
  case Kind::Dedup: {
    uint64_t Bit = mixKey(I, Rounds) % (Words * 64);
    com_update(&Seen[Bit / 64], ComOp::Or, 8,
               static_cast<int64_t>(1ull << (Bit % 64)));
    break;
  }
  }
}

void CommutativeWorkload::appendLiveOut(std::string &Out) const {
  auto Append = [&Out](const int64_t *P, uint64_t Count) {
    Out.append(reinterpret_cast<const char *>(P), Count * sizeof(int64_t));
  };
  switch (K) {
  case Kind::Histogram:
    Append(Hist, Buckets);
    Append(HMin, Buckets);
    break;
  case Kind::Degree:
    Append(Deg, Nodes);
    break;
  case Kind::Dedup:
    Append(Seen, Words);
    break;
  }
}

std::string CommutativeWorkload::referenceDigest() const {
  std::string LiveOut;
  auto Append = [&LiveOut](const std::vector<int64_t> &V) {
    LiveOut.append(reinterpret_cast<const char *>(V.data()),
                   V.size() * sizeof(int64_t));
  };
  switch (K) {
  case Kind::Histogram: {
    std::vector<int64_t> RefHist(Buckets, 0);
    std::vector<int64_t> RefMin(Buckets, kMinInit);
    for (uint64_t I = 0; I < Iterations; ++I) {
      uint64_t H = mixKey(I, Rounds);
      uint64_t B = H % Buckets;
      RefHist[B] += 1;
      int64_t V = static_cast<int64_t>(H % 4096);
      if (V < RefMin[B])
        RefMin[B] = V;
    }
    Append(RefHist);
    Append(RefMin);
    break;
  }
  case Kind::Degree: {
    std::vector<int64_t> RefDeg(Nodes, 0);
    for (uint64_t E = 0; E < Iterations; ++E) {
      RefDeg[(E * 2654435761u) % Nodes] += 1;
      RefDeg[(E * 40503 + 17) % Nodes] += 1;
    }
    Append(RefDeg);
    break;
  }
  case Kind::Dedup: {
    std::vector<int64_t> RefSeen(Words, 0);
    for (uint64_t I = 0; I < Iterations; ++I) {
      uint64_t Bit = mixKey(I, Rounds) % (Words * 64);
      RefSeen[Bit / 64] |= static_cast<int64_t>(1ull << (Bit % 64));
    }
    Append(RefSeen);
    break;
  }
  }
  return combineDigest(LiveOut, "");
}
