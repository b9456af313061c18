//===- spans.cpp - In-memory spans for the benchmark's traced run ---------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "spans.h"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <unistd.h>

using namespace perfbench;

namespace {

/// The innermost open span of the calling thread (its children's parent).
thread_local int32_t CurrentSpan = -1;

} // namespace

double perfbench::nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::enable() {
  std::lock_guard<std::mutex> L(M);
  On = true;
  Epoch = nowSeconds();
}

int32_t SpanLog::open(const char *Name, int32_t Parent, uint32_t RunId) {
  if (!On)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Parent;
  S.RunId = RunId;
  S.Process = static_cast<uint32_t>(::getpid());
  std::lock_guard<std::mutex> L(M);
  S.Start = nowSeconds() - Epoch;
  Spans.push_back(std::move(S));
  return static_cast<int32_t>(Spans.size() - 1);
}

void SpanLog::close(int32_t Id) {
  if (Id < 0)
    return;
  double T = nowSeconds();
  std::lock_guard<std::mutex> L(M);
  Spans[Id].End = T - Epoch;
}

void SpanLog::count(int32_t Id, const char *Key, double V) {
  if (Id < 0)
    return;
  std::lock_guard<std::mutex> L(M);
  Spans[Id].Counts.emplace_back(Key, V);
}

uint32_t SpanLog::runIdOf(int32_t Id) const {
  if (Id < 0)
    return 0;
  std::lock_guard<std::mutex> L(M);
  return Spans[Id].RunId;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> L(M);
  return Spans;
}

std::string perfbench::serializeSpans(const std::vector<Span> &Spans) {
  std::ostringstream OS;
  OS.precision(17);
  for (const Span &S : Spans) {
    OS << S.Name << ' ' << S.Start << ' ' << S.End << ' ' << S.Parent << ' '
       << S.RunId << ' ' << S.Process;
    for (const auto &[Key, V] : S.Counts)
      OS << ' ' << Key << ' ' << V;
    OS << '\n';
  }
  return OS.str();
}

void perfbench::appendSpans(const std::string &Text, double Offset,
                            std::vector<Span> &Out) {
  int32_t Base = static_cast<int32_t>(Out.size());
  std::istringstream Lines(Text);
  std::string Line;
  while (std::getline(Lines, Line)) {
    std::istringstream IS(Line);
    Span S;
    if (!(IS >> S.Name >> S.Start >> S.End >> S.Parent >> S.RunId >>
          S.Process))
      continue;
    S.Start += Offset;
    S.End += Offset;
    if (S.Parent >= 0)
      S.Parent += Base;
    std::string Key;
    double V = 0;
    while (IS >> Key >> V)
      S.Counts.emplace_back(Key, V);
    Out.push_back(std::move(S));
  }
}

bool perfbench::writeTraceJson(const std::string &Path,
                               const std::vector<Span> &Spans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"traceEvents\": [");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s\n  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": %u, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %d, \"run\": %u",
                 I ? "," : "", S.Name.c_str(), S.Process, S.Process,
                 S.Start * 1e6, S.seconds() * 1e6, I, S.Parent, S.RunId);
    for (const auto &[Key, V] : S.Counts)
      std::fprintf(F, ", \"%s\": %.17g", Key.c_str(), V);
    std::fprintf(F, "}}");
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

SpanScope::SpanScope(SpanLog &Log, const char *Name, uint32_t RunId)
    : Log(Log), Id(Log.open(Name, CurrentSpan, RunId)), Saved(CurrentSpan) {
  if (Id >= 0)
    CurrentSpan = Id;
}

SpanScope::SpanScope(SpanLog &Log, const char *Name)
    : SpanScope(Log, Name, Log.runIdOf(CurrentSpan)) {}

SpanScope::~SpanScope() {
  if (Id < 0)
    return;
  Log.close(Id);
  CurrentSpan = Saved;
}

std::map<std::string, LayerRow>
perfbench::aggregate(const std::vector<Span> &Spans) {
  std::vector<double> ChildTime(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildTime[S.Parent] += S.seconds();
  std::map<std::string, LayerRow> Rows;
  for (size_t I = 0; I < Spans.size(); ++I) {
    LayerRow &R = Rows[Spans[I].Name];
    R.Calls += 1;
    R.Total += Spans[I].seconds();
    R.Self += Spans[I].seconds() - ChildTime[I];
    for (const auto &[Key, V] : Spans[I].Counts)
      R.Counts[Key] += V;
  }
  return Rows;
}
