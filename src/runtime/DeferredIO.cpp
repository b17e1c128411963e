//===- runtime/DeferredIO.cpp ---------------------------------------------===//

#include "runtime/DeferredIO.h"

#include <algorithm>

using namespace privateer;

bool privateer::serializeIoRecords(const std::vector<IoRecord> &Records,
                                   uint8_t *Buf, uint64_t Cap,
                                   uint64_t &Used) {
  for (const IoRecord &R : Records) {
    uint64_t Need = 8 + 4 + 4 + R.Text.size();
    if (Used > Cap || Need > Cap - Used) // A scribbled Used must not wrap.
      return false;
    std::memcpy(Buf + Used, &R.Iteration, 8);
    Used += 8;
    std::memcpy(Buf + Used, &R.Sequence, 4);
    Used += 4;
    uint32_t Len = static_cast<uint32_t>(R.Text.size());
    std::memcpy(Buf + Used, &Len, 4);
    Used += 4;
    std::memcpy(Buf + Used, R.Text.data(), Len);
    Used += Len;
  }
  return true;
}

void privateer::deserializeIoRecords(const uint8_t *Buf, uint64_t Used,
                                     std::vector<IoRecord> &Out) {
  uint64_t Off = 0;
  while (Off + 16 <= Used) {
    IoRecord R;
    std::memcpy(&R.Iteration, Buf + Off, 8);
    Off += 8;
    std::memcpy(&R.Sequence, Buf + Off, 4);
    Off += 4;
    uint32_t Len = 0;
    std::memcpy(&Len, Buf + Off, 4);
    Off += 4;
    if (Off + Len > Used)
      return; // Truncated record; drop it.
    R.Text.assign(reinterpret_cast<const char *>(Buf + Off), Len);
    Off += Len;
    Out.push_back(std::move(R));
  }
}

void privateer::sortIoRecords(std::vector<IoRecord> &Records) {
  std::stable_sort(Records.begin(), Records.end(),
                   [](const IoRecord &A, const IoRecord &B) {
                     if (A.Iteration != B.Iteration)
                       return A.Iteration < B.Iteration;
                     return A.Sequence < B.Sequence;
                   });
}
