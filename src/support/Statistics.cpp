//===- support/Statistics.cpp ---------------------------------------------===//

#include "support/Statistics.h"

#include <cstdio>

using namespace privateer;

StatisticRegistry &StatisticRegistry::instance() {
  // Intentionally leaked, like the trace collector: handles bumped from
  // static destructors must never find the registry gone.
  static StatisticRegistry *Registry = new StatisticRegistry;
  return *Registry;
}

uint64_t &Statistic::bind() {
  StatisticRegistry &Reg = StatisticRegistry::instance();
  Slot = &Reg.counter(Group, Name);
  Reg.Bound.push_back(this);
  return *Slot;
}

uint64_t &StatisticRegistry::counter(const std::string &Group,
                                     const std::string &Name) {
  return Counters[{Group, Name}];
}

uint64_t StatisticRegistry::get(const std::string &Group,
                                const std::string &Name) const {
  auto It = Counters.find({Group, Name});
  return It == Counters.end() ? 0 : It->second;
}

bool StatisticRegistry::contains(const std::string &Group,
                                 const std::string &Name) const {
  return Counters.count({Group, Name}) || RealCounters.count({Group, Name});
}

double &StatisticRegistry::real(const std::string &Group,
                                const std::string &Name) {
  return RealCounters[{Group, Name}];
}

void StatisticRegistry::reset() {
  for (Statistic *S : Bound)
    S->Slot = nullptr;
  Bound.clear();
  Counters.clear();
  RealCounters.clear();
}

std::string StatisticRegistry::toJson() const {
  // Counter names are straight identifiers, but escape defensively so a
  // future name cannot corrupt the document.
  auto Escape = [](const std::string &S) {
    std::string Out;
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out.push_back('\\');
      if (static_cast<unsigned char>(C) >= 0x20)
        Out.push_back(C);
    }
    return Out;
  };

  // group -> "name": value fragments, integer and real planes merged.
  std::map<std::string, std::string> Groups;
  auto Add = [&](const std::string &Group, const std::string &Fragment) {
    std::string &G = Groups[Group];
    if (!G.empty())
      G += ", ";
    G += Fragment;
  };
  for (const auto &[Key, Value] : Counters)
    Add(Key.first,
        "\"" + Escape(Key.second) + "\": " + std::to_string(Value));
  for (const auto &[Key, Value] : RealCounters) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.9g", Value);
    Add(Key.first, "\"" + Escape(Key.second) + "\": " + Buf);
  }

  std::string Out = "{";
  bool FirstGroup = true;
  for (const auto &[Group, Body] : Groups) {
    if (!FirstGroup)
      Out += ", ";
    FirstGroup = false;
    Out += "\"" + Escape(Group) + "\": {" + Body + "}";
  }
  Out += "}";
  return Out;
}
