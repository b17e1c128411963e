//===- perfbench/src/Spans.cpp - In-memory layer spans --------------------===//

#include "Spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ctime>
#include <unordered_map>

#include <unistd.h>

using namespace perfbench;

namespace {

struct ThreadState {
  bool On = false;
  uint64_t Job = 0;
  int Tid = 0;
  Tracer::Sink Out;
  std::vector<uint64_t> Open;
};

thread_local ThreadState TS;

/// Ids stay unique across runner restarts: the high half is the pid.
std::atomic<uint64_t> NextId{0};
std::atomic<int> NextTid{1};

uint64_t freshId() {
  return (static_cast<uint64_t>(::getpid()) << 32) | ++NextId;
}

/// Length of the union of [S, E) intervals.
double coveredNs(std::vector<std::pair<uint64_t, uint64_t>> Iv) {
  std::sort(Iv.begin(), Iv.end());
  uint64_t Total = 0, CurS = 0, CurE = 0;
  bool Have = false;
  for (auto [S, E] : Iv) {
    if (Have && S <= CurE) {
      CurE = std::max(CurE, E);
      continue;
    }
    if (Have)
      Total += CurE - CurS;
    CurS = S;
    CurE = E;
    Have = true;
  }
  if (Have)
    Total += CurE - CurS;
  return static_cast<double>(Total);
}

} // namespace

uint64_t perfbench::nowNs() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(Ts.tv_nsec);
}

std::string perfbench::layerOf(const std::string &SpanName) {
  return SpanName.substr(0, SpanName.find('.'));
}

void Tracer::begin(bool On, uint64_t Job, Sink S) {
  TS.On = On;
  TS.Job = Job;
  TS.Out = std::move(S);
  TS.Open.clear();
  if (TS.Tid == 0)
    TS.Tid = NextTid++;
}

Tracer::Span::Span(const char *N) : Name(N) {
  if (!TS.On)
    return;
  Id = freshId();
  Parent = TS.Open.empty() ? 0 : TS.Open.back();
  TS.Open.push_back(Id);
  StartNs = nowNs();
}

Tracer::Span::~Span() {
  if (Id == 0)
    return;
  SpanRec R;
  R.EndNs = nowNs();
  R.Name = Name;
  R.Id = Id;
  R.Parent = Parent;
  R.Job = TS.Job;
  R.StartNs = StartNs;
  R.Tid = TS.Tid;
  if (!TS.Open.empty() && TS.Open.back() == Id)
    TS.Open.pop_back();
  if (TS.Out)
    TS.Out(R);
}

SpanSummary perfbench::summarize(const std::vector<SpanRec> &Spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      Children;
  for (const SpanRec &S : Spans)
    if (S.Parent != 0)
      Children[S.Parent].push_back({S.StartNs, S.EndNs});

  SpanSummary Sum;
  for (const SpanRec &S : Spans) {
    double Dur = static_cast<double>(S.EndNs - S.StartNs);
    double Covered = 0;
    auto It = Children.find(S.Id);
    if (It != Children.end())
      Covered = std::min(Dur, coveredNs(It->second));
    Sum.SelfSec[layerOf(S.Name)] += (Dur - Covered) * 1e-9;
    Sum.TotalSec[S.Name] += Dur * 1e-9;
    if (S.Parent == 0) {
      Sum.RootSec += Dur * 1e-9;
      Sum.RootUncoveredSec += (Dur - Covered) * 1e-9;
    }
  }
  return Sum;
}

bool perfbench::writeChromeTrace(const std::string &Path,
                                 const std::vector<SpanRec> &Spans,
                                 const std::string &MetaJson) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t T0 = ~0ULL;
  for (const SpanRec &S : Spans)
    T0 = std::min(T0, S.StartNs);
  std::fprintf(F, "{\"metadata\": %s,\n\"traceEvents\": [\n", MetaJson.c_str());
  bool First = true;
  for (const SpanRec &S : Spans) {
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"job\": %llu, \"id\": %llu, \"parent\": %llu}}",
                 First ? "" : ",\n", S.Name.c_str(), layerOf(S.Name).c_str(),
                 static_cast<double>(S.StartNs - T0) * 1e-3,
                 static_cast<double>(S.EndNs - S.StartNs) * 1e-3, S.Tid,
                 static_cast<unsigned long long>(S.Job),
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent));
    First = false;
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
