//===- support/Trace.cpp - Cross-process runtime event tracing ------------===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Statistics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace privateer {
namespace trace {

const char *kindName(Kind K) {
  switch (K) {
  case Kind::Invocation:
    return "invocation";
  case Kind::Epoch:
    return "epoch";
  case Kind::WorkerFork:
    return "worker_fork";
  case Kind::WorkerBegin:
    return "worker_begin";
  case Kind::WorkerExit:
    return "worker_exit";
  case Kind::WorkerStallKill:
    return "worker_stall_kill";
  case Kind::Heartbeat:
    return "heartbeat";
  case Kind::SlotMerge:
    return "slot_merge";
  case Kind::CheckpointScan:
    return "checkpoint_scan";
  case Kind::CommitEager:
    return "commit_eager";
  case Kind::Misspec:
    return "misspec";
  case Kind::EarlyCutoff:
    return "early_cutoff";
  case Kind::RecoveryClamp:
    return "recovery_clamp";
  case Kind::Recovery:
    return "recovery";
  case Kind::Degraded:
    return "degraded";
  case Kind::LockBroken:
    return "lock_broken";
  case Kind::RingDrops:
    return "ring_drops";
  case Kind::DepPost:
    return "dep_post";
  case Kind::DepWait:
    return "dep_wait";
  case Kind::kNumKinds:
    break;
  }
  return "unknown";
}

bool kindIsSpan(Kind K) {
  switch (K) {
  case Kind::Invocation:
  case Kind::Epoch:
  case Kind::SlotMerge:
  case Kind::CommitEager:
  case Kind::Recovery:
  case Kind::Degraded:
  case Kind::DepWait:
    return true;
  default:
    return false;
  }
}

Reason reasonCode(const char *Why) {
  if (!Why)
    return Reason::Generic;
  auto Has = [&](const char *Needle) { return std::strstr(Why, Needle); };
  if (Has("inject"))
    return Reason::Injected;
  if (Has("separation") || Has("pointer outside"))
    return Reason::SeparationCheck;
  if (Has("privacy"))
    return Reason::PrivacyBounds;
  if (Has("short-lived"))
    return Reason::ShortLivedEscape;
  if (Has("watchdog"))
    return Reason::Watchdog;
  if (Has("terminated abnormally"))
    return Reason::WorkerLost;
  if (Has("protected"))
    return Reason::ProtectedStore;
  return Reason::Generic;
}

const char *reasonName(Reason R) {
  switch (R) {
  case Reason::Generic:
    return "generic";
  case Reason::Injected:
    return "injected";
  case Reason::FlowDependence:
    return "flow_dependence";
  case Reason::SamePeriodConflict:
    return "same_period_conflict";
  case Reason::SeparationCheck:
    return "separation_check";
  case Reason::PrivacyBounds:
    return "privacy_bounds";
  case Reason::ShortLivedEscape:
    return "short_lived_escape";
  case Reason::IoOverflow:
    return "io_overflow";
  case Reason::CorruptSlot:
    return "corrupt_slot";
  case Reason::TornSlot:
    return "torn_slot";
  case Reason::Watchdog:
    return "watchdog";
  case Reason::WorkerLost:
    return "worker_lost";
  case Reason::ProtectedStore:
    return "protected_store";
  case Reason::OrphanedLock:
    return "orphaned_lock";
  case Reason::kNumReasons:
    break;
  }
  return "unknown";
}

namespace {

/// Events recorded per kind, the registry's group "trace".
constexpr size_t kKinds = static_cast<size_t>(Kind::kNumKinds);
std::array<Statistic, kKinds> KindCounts = makeStatistics<kKinds>(
    "trace", [](size_t I) { return kindName(static_cast<Kind>(I)); });

} // namespace

Collector &Collector::instance() {
  // Intentionally leaked: Runtime::shutdown() runs from a static
  // destructor and must be able to flush a still-armed collector, so the
  // collector can never be destroyed before the runtime singleton.
  static Collector *C = new Collector;
  return *C;
}

void Collector::enable(const std::string &NewPath) {
  if (NewPath != Path)
    reset();
  Path = NewPath;
}

void Collector::record(const Event &E, const std::string &Note) {
  Kind K = static_cast<Kind>(E.KindCode);
  if (K < Kind::kNumKinds)
    ++KindCounts[E.KindCode];
  if (Path.empty())
    return;
  if (Records.size() >= kMaxRecords) {
    ++DroppedEvents;
    return;
  }
  if (Records.empty() || E.TimeNs < BaseNs) {
    uint64_t Start = kindIsSpan(K) && E.A && E.A < E.TimeNs ? E.A : E.TimeNs;
    BaseNs = Records.empty() ? Start : std::min(BaseNs, Start);
  }
  Record R;
  R.E = E;
  R.Note = 0;
  if (!Note.empty()) {
    Notes.push_back(Note);
    R.Note = static_cast<uint32_t>(Notes.size());
  }
  Records.push_back(R);
}

uint32_t Collector::drainRing(Ring &R) {
  return R.drain([this](const Event &E) { record(E); });
}

void Collector::noteDrops(unsigned Worker, uint64_t Count) {
  if (!Count)
    return;
  StatisticRegistry::instance().counter("trace", "dropped") += Count;
  DroppedEvents += Count;
  if (!Path.empty())
    record(makeEvent(Kind::RingDrops, static_cast<uint16_t>(1 + Worker),
                     Records.empty() ? 0 : Records.back().E.TimeNs, Count, 0,
                     Worker));
}

namespace {

/// Escapes a note string for embedding in a JSON string literal.
void writeJsonString(FILE *F, const std::string &S) {
  std::fputc('"', F);
  for (char C : S) {
    switch (C) {
    case '"':
      std::fputs("\\\"", F);
      break;
    case '\\':
      std::fputs("\\\\", F);
      break;
    case '\n':
      std::fputs("\\n", F);
      break;
    case '\t':
      std::fputs("\\t", F);
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        std::fprintf(F, "\\u%04x", C);
      else
        std::fputc(C, F);
    }
  }
  std::fputc('"', F);
}

} // namespace

bool Collector::flush(std::string &Err) {
  if (Path.empty())
    return true;
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    Err = "trace: cannot open " + Path + " for writing";
    return false;
  }

  // Which timeline rows appear, so we only emit metadata for live rows.
  bool RowSeen[1 + 64] = {false};
  RowSeen[0] = true;
  for (const Record &R : Records)
    if (R.E.Worker < sizeof(RowSeen))
      RowSeen[R.E.Worker] = true;

  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", F);
  bool First = true;
  auto Sep = [&] {
    if (!First)
      std::fputs(",\n", F);
    First = false;
  };

  // Chrome metadata rows: pid 0 is the main process (and commit pump),
  // pid 1+w is worker w's process timeline.
  for (unsigned Row = 0; Row < sizeof(RowSeen); ++Row) {
    if (!RowSeen[Row])
      continue;
    Sep();
    std::fprintf(F,
                 "{\"ph\":\"M\",\"pid\":%u,\"name\":\"process_name\","
                 "\"args\":{\"name\":",
                 Row);
    if (Row == 0)
      writeJsonString(F, "main (commit pump)");
    else
      writeJsonString(F, "worker " + std::to_string(Row - 1));
    std::fputs("}}", F);
  }

  auto Micro = [&](uint64_t Ns) {
    uint64_t Rel = Ns >= BaseNs ? Ns - BaseNs : 0;
    return static_cast<double>(Rel) / 1000.0;
  };

  for (const Record &R : Records) {
    const Event &E = R.E;
    Kind K = static_cast<Kind>(E.KindCode);
    Sep();
    if (kindIsSpan(K)) {
      // Span: A holds the start timestamp; dur clamps to >= 0.
      double Ts = Micro(E.A && E.A <= E.TimeNs ? E.A : E.TimeNs);
      double Dur = E.A && E.A <= E.TimeNs ? Micro(E.TimeNs) - Ts : 0.0;
      std::fprintf(F,
                   "{\"ph\":\"X\",\"pid\":%u,\"tid\":0,\"name\":\"%s\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"b\":%" PRIu64
                   ",\"arg\":%u",
                   E.Worker, kindName(K), Ts, Dur, E.B, E.Arg);
    } else {
      std::fprintf(F,
                   "{\"ph\":\"i\",\"pid\":%u,\"tid\":0,\"s\":\"p\","
                   "\"name\":\"%s\",\"ts\":%.3f,\"args\":{\"a\":%" PRIu64
                   ",\"b\":%" PRIu64 ",\"arg\":%u",
                   E.Worker, kindName(K), Micro(E.TimeNs), E.A, E.B, E.Arg);
    }
    if (K == Kind::Misspec) {
      std::fputs(",\"reason\":", F);
      writeJsonString(F, reasonName(static_cast<Reason>(E.Arg)));
    }
    if (R.Note) {
      std::fputs(",\"note\":", F);
      writeJsonString(F, Notes[R.Note - 1]);
    }
    std::fputs("}}", F);
  }

  std::fprintf(F, "\n],\"otherData\":{\"dropped_events\":%" PRIu64 "}}\n",
               DroppedEvents);
  bool Ok = std::fflush(F) == 0 && !std::ferror(F);
  std::fclose(F);
  if (!Ok)
    Err = "trace: short write to " + Path;
  return Ok;
}

void Collector::reset() {
  Records.clear();
  Notes.clear();
  BaseNs = 0;
  DroppedEvents = 0;
}

} // namespace trace
} // namespace privateer
