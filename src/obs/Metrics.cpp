//===- Metrics.cpp - Low-overhead metrics registry -------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <algorithm>
#include <cmath>

#include <pthread.h>

using namespace spa::obs;

void Histogram::observe(double X) {
  if (X < 0)
    X = 0;
  if (Count == 0) {
    Min = Max = X;
  } else {
    if (X < Min)
      Min = X;
    if (X > Max)
      Max = X;
  }
  ++Count;
  Sum += X;
  // Bucket 0 holds [0, 2); bucket i holds [2^i, 2^(i+1)).
  size_t B = X < 2 ? 0 : static_cast<size_t>(std::log2(X));
  if (B >= Buckets.size())
    Buckets.resize(B + 1, 0);
  ++Buckets[B];
}

void Histogram::reset() {
  Count = 0;
  Sum = Min = Max = 0;
  Buckets.clear();
}

double Histogram::quantile(double Q) const {
  if (Count == 0)
    return 0;
  if (Q < 0)
    Q = 0;
  if (Q > 1)
    Q = 1;
  double Rank = Q * static_cast<double>(Count);
  double Cum = 0;
  for (size_t I = 0; I < Buckets.size(); ++I) {
    if (Buckets[I] == 0)
      continue;
    double Next = Cum + static_cast<double>(Buckets[I]);
    if (Next >= Rank) {
      // Bucket 0 holds [0, 2); bucket i holds [2^i, 2^(i+1)).
      double Lo = I == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(I));
      double Hi = std::ldexp(1.0, static_cast<int>(I) + 1);
      double Frac = (Rank - Cum) / static_cast<double>(Buckets[I]);
      double V = Lo + Frac * (Hi - Lo);
      return std::min(std::max(V, Min), Max);
    }
    Cum = Next;
  }
  return Max;
}

Registry::Registry() {
  pthread_atfork([] { global().M.lock(); }, [] { global().M.unlock(); },
                 [] { global().M.unlock(); });
}

Registry &Registry::global() {
  static Registry R;
  return R;
}

Counter &Registry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  return Counters[Name];
}

Gauge &Registry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  return Gauges[Name];
}

Histogram &Registry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  return Histograms[Name];
}

void Registry::reset() {
  std::lock_guard<std::mutex> Lock(M);
  for (auto &[_, C] : Counters)
    C.reset();
  for (auto &[_, G] : Gauges)
    G.reset();
  for (auto &[_, H] : Histograms)
    H.reset();
}

void Registry::resetGauges() {
  std::lock_guard<std::mutex> Lock(M);
  for (auto &[_, G] : Gauges)
    G.reset();
}

std::vector<std::pair<std::string, double>> Registry::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::pair<std::string, double>> Out;
  Out.reserve(Counters.size() + Gauges.size() + 8 * Histograms.size());
  for (const auto &[Name, C] : Counters)
    Out.push_back({Name, static_cast<double>(C.value())});
  for (const auto &[Name, G] : Gauges)
    Out.push_back({Name, G.value()});
  for (const auto &[Name, H] : Histograms) {
    Out.push_back({Name + ".count", static_cast<double>(H.count())});
    Out.push_back({Name + ".sum", H.sum()});
    Out.push_back({Name + ".min", H.min()});
    Out.push_back({Name + ".max", H.max()});
    Out.push_back({Name + ".avg", H.avg()});
    Out.push_back({Name + ".p50", H.quantile(0.50)});
    Out.push_back({Name + ".p95", H.quantile(0.95)});
    Out.push_back({Name + ".p99", H.quantile(0.99)});
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

void Registry::forEachInstrument(
    const std::function<void(const std::string &, const Counter &)> &OnCtr,
    const std::function<void(const std::string &, const Gauge &)> &OnGauge)
    const {
  std::lock_guard<std::mutex> Lock(M);
  for (const auto &[Name, C] : Counters)
    OnCtr(Name, C);
  for (const auto &[Name, G] : Gauges)
    OnGauge(Name, G);
}

double Registry::value(const std::string &Name, double Default) const {
  for (const auto &[K, V] : snapshot())
    if (K == Name)
      return V;
  return Default;
}

namespace {

/// Mangles a registry name into a Prometheus metric name: spa_ prefix,
/// every character outside [A-Za-z0-9_] (dots, dashes) to '_'.
std::string promName(const std::string &Name) {
  std::string Out = "spa_";
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_';
    Out += Ok ? C : '_';
  }
  return Out;
}

/// Prometheus sample value: integral values render without an exponent
/// or fraction, everything else as shortest round-trippable decimal.
std::string promValue(double V) {
  char Buf[64];
  if (V == static_cast<uint64_t>(V) && V >= 0 && V < 1e15)
    std::snprintf(Buf, sizeof(Buf), "%llu",
                  static_cast<unsigned long long>(V));
  else
    std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

} // namespace

std::string Registry::renderProm() const {
  std::lock_guard<std::mutex> Lock(M);
  std::string Out;
  Out.reserve(256 + 96 * (Counters.size() + Gauges.size()) +
              256 * Histograms.size());
  for (const auto &[Name, C] : Counters) {
    std::string P = promName(Name) + "_total";
    Out += "# HELP " + P + " SPA counter " + Name + "\n";
    Out += "# TYPE " + P + " counter\n";
    Out += P + " " + std::to_string(C.value()) + "\n";
  }
  for (const auto &[Name, G] : Gauges) {
    std::string P = promName(Name);
    Out += "# HELP " + P + " SPA gauge " + Name + "\n";
    Out += "# TYPE " + P + " gauge\n";
    Out += P + " " + promValue(G.value()) + "\n";
  }
  for (const auto &[Name, H] : Histograms) {
    std::string P = promName(Name);
    Out += "# HELP " + P + " SPA histogram " + Name + "\n";
    Out += "# TYPE " + P + " histogram\n";
    uint64_t Cum = 0;
    const std::vector<uint64_t> &B = H.buckets();
    for (size_t I = 0; I < B.size(); ++I) {
      Cum += B[I];
      // Bucket i's upper bound is 2^(i+1) (bucket 0 holds [0, 2)).
      Out += P + "_bucket{le=\"" +
             promValue(std::ldexp(1.0, static_cast<int>(I) + 1)) + "\"} " +
             std::to_string(Cum) + "\n";
    }
    Out += P + "_bucket{le=\"+Inf\"} " + std::to_string(H.count()) + "\n";
    Out += P + "_sum " + promValue(H.sum()) + "\n";
    Out += P + "_count " + std::to_string(H.count()) + "\n";
  }
  return Out;
}
