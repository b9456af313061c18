//===- spans.h - In-memory spans for the benchmark's traced run -----------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run records one span around every call the benchmark makes
/// into a public layer function (parseProgram, buildDepGraph, ...), plus
/// the counts that explain that call's cost, attached to the same span.
/// Spans stay in memory and are written out once the run ends.  Nothing
/// inside the analyzer is instrumented: the spans are the benchmark's own.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_PERFBENCH_SPANS_H
#define SPA_PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
double nowSeconds();

struct Span {
  std::string Name;
  double Start = 0, End = 0; ///< Seconds since the log was enabled.
  int32_t Parent = -1;       ///< Index into the log; -1 for a root.
  uint32_t RunId = 0;        ///< One id per program or request.
  uint32_t Process = 0;      ///< The pid that recorded the span.
  std::vector<std::pair<std::string, double>> Counts;

  double seconds() const { return End - Start; }
};

/// Thread-safe span store.  While disabled, opening a span costs one
/// branch and records nothing.
class SpanLog {
public:
  void enable();
  bool enabled() const { return On; }

  /// Returns the new span's index (-1 while disabled).
  int32_t open(const char *Name, int32_t Parent, uint32_t RunId);
  void close(int32_t Id);
  void count(int32_t Id, const char *Key, double V);
  uint32_t runIdOf(int32_t Id) const;

  /// Snapshot of every span; call once all recording threads finished.
  std::vector<Span> spans() const;


private:
  mutable std::mutex M;
  std::vector<Span> Spans; ///< Guarded by M.
  bool On = false;
  double Epoch = 0;
};

/// RAII span.  A root span carries the run id; a nested one inherits the
/// run id of the span open on the same thread.
class SpanScope {
public:
  SpanScope(SpanLog &Log, const char *Name, uint32_t RunId);
  SpanScope(SpanLog &Log, const char *Name);
  ~SpanScope();
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

  void count(const char *Key, double V) { Log.count(Id, Key, V); }

private:
  SpanLog &Log;
  int32_t Id;
  int32_t Saved;
};

/// Text form of \p Spans for shipping them out of a child process: one
/// span per line, "name start end parent run pid" then key/value counts.
std::string serializeSpans(const std::vector<Span> &Spans);

/// Appends the spans of serializeSpans() text to \p Out, shifting their
/// parent indexes past the spans already there and their times by
/// \p Offset seconds.
void appendSpans(const std::string &Text, double Offset, std::vector<Span> &Out);

/// Writes spans as a Chrome trace-event JSON document.
bool writeTraceJson(const std::string &Path, const std::vector<Span> &Spans);

/// Per-name aggregate of a span set: calls, total and self time (a
/// span's duration minus the part its child spans cover), and the sum
/// of every count recorded on spans of that name.
struct LayerRow {
  uint64_t Calls = 0;
  double Total = 0, Self = 0;
  std::map<std::string, double> Counts;
};
std::map<std::string, LayerRow> aggregate(const std::vector<Span> &Spans);

} // namespace perfbench

#endif // SPA_PERFBENCH_SPANS_H
