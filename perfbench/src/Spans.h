//===- perfbench/src/Spans.h - In-memory layer spans ------------*- C++ -*-===//
///
/// \file
/// Spans the benchmark records around each call it makes into a layer of
/// the system.  A span has a name ("<layer>.<call>"), start and end times,
/// the span that was open when it began (its parent) and the job it belongs
/// to.  Recording is off unless the run is traced; a disabled span costs
/// one branch.
///
/// Spans are kept in memory by the process that runs the jobs and handed to
/// a sink when they close; the sink ships them to the parent process, which
/// computes layer self times and writes the Chrome-trace file at the end.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRec {
  std::string Name;
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = a job's root span
  uint64_t Job = 0;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int Tid = 0; ///< recording thread, for the trace viewer's lanes
};

/// Monotonic nanoseconds.
uint64_t nowNs();

/// The layer a span name belongs to: the text before its first '.'.
std::string layerOf(const std::string &SpanName);

/// Per-thread span recording.  Each thread keeps its own stack of open
/// spans, so the two service client threads never see each other's
/// parents.
class Tracer {
public:
  using Sink = std::function<void(const SpanRec &)>;

  /// Arms or disarms recording for the calling thread; \p Job tags every
  /// span the thread opens until the next call.
  static void begin(bool On, uint64_t Job, Sink S);

  class Span {
  public:
    explicit Span(const char *Name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *Name;
    uint64_t Id = 0;
    uint64_t Parent = 0;
    uint64_t StartNs = 0;
  };
};

/// Layer self times and coverage of one set of spans.
struct SpanSummary {
  /// Summed self time (duration minus the part of its interval that child
  /// spans cover) per layer, in seconds.
  std::map<std::string, double> SelfSec;
  /// Summed duration per span name, in seconds.
  std::map<std::string, double> TotalSec;
  /// Root (job) spans: summed duration and the part no child covers.
  double RootSec = 0;
  double RootUncoveredSec = 0;
};

SpanSummary summarize(const std::vector<SpanRec> &Spans);

/// Writes \p Spans as Chrome-trace JSON ("X" complete events, one lane per
/// recording thread) with \p MetaJson as the trace's metadata object.
bool writeChromeTrace(const std::string &Path,
                      const std::vector<SpanRec> &Spans,
                      const std::string &MetaJson);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
