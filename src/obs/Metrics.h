//===- Metrics.h - Low-overhead metrics registry ---------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyzer's metrics registry: named Counter / Gauge / Histogram
/// instruments aggregated in one process-wide Registry, serialized by
/// obs/MetricsSink.h.  Instrumentation sites use the SPA_OBS_* macros,
/// which resolve the registry slot once per call site (function-local
/// static) so the steady-state cost of a hot-loop counter is a single
/// 64-bit increment.  Compiling with -DSPA_OBS_ENABLED=0 removes every
/// macro body, so the disabled build pays nothing.
///
/// The taxonomy of metric names (phase.*, fixpoint.*, depgraph.*, bdd.*,
/// oct.*, mem.*) is documented in docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_OBS_METRICS_H
#define SPA_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

/// Build-time switch: 1 (default) compiles the instrumentation in, 0
/// turns every SPA_OBS_* macro into a no-op (the CMake option SPA_OBS
/// drives this).
#ifndef SPA_OBS_ENABLED
#define SPA_OBS_ENABLED 1
#endif

namespace spa {
namespace obs {

/// Monotonically increasing event count.  Thread-safe: parallel phases
/// (support/ThreadPool.h) bump counters from worker threads; relaxed
/// atomics keep the hot-path cost at one uncontended RMW and the total
/// is scheduling-independent (addition commutes).
class Counter {
public:
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Last-written scalar (phase seconds, structure sizes, peak RSS).
/// Thread-safe stores; concurrent set() calls race benignly (last write
/// wins), so parallel code should prefer max() or per-phase gauges
/// written from the orchestrating thread.
class Gauge {
public:
  void set(double X) { V.store(X, std::memory_order_relaxed); }
  /// Keeps the running maximum (peak-style gauges).
  void max(double X) {
    double Cur = V.load(std::memory_order_relaxed);
    while (X > Cur &&
           !V.compare_exchange_weak(Cur, X, std::memory_order_relaxed)) {
    }
  }
  double value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<double> V{0};
};

/// Power-of-two bucketed distribution of non-negative samples, plus
/// count/sum/min/max.  Bucket i counts samples in [2^(i-1), 2^i) (bucket
/// 0 counts zeros and ones).
///
/// NOT thread-safe: observe() from parallel regions is a data race.
/// Histograms are reserved for single-threaded call sites (none of the
/// parallel phases sample one); use a Counter from worker code.
class Histogram {
public:
  void observe(double X);
  uint64_t count() const { return Count; }
  double sum() const { return Sum; }
  double min() const { return Count ? Min : 0; }
  double max() const { return Count ? Max : 0; }
  double avg() const { return Count ? Sum / Count : 0; }
  /// Estimated value at quantile \p Q in [0, 1]: linear interpolation
  /// inside the power-of-two bucket holding that rank, clamped to the
  /// observed [min, max].  0 when empty.
  double quantile(double Q) const;
  const std::vector<uint64_t> &buckets() const { return Buckets; }
  void reset();

private:
  uint64_t Count = 0;
  double Sum = 0, Min = 0, Max = 0;
  std::vector<uint64_t> Buckets;
};

/// Process-wide instrument registry.  Instruments register on first use
/// and live until process exit; reset() zeroes values but never
/// invalidates references, so call sites may cache the returned
/// reference (the SPA_OBS_* macros do).
///
/// Registration and snapshots lock a registry mutex (instruments may
/// register lazily from pool workers); the steady state — bumping an
/// already-registered instrument through a cached reference — takes no
/// lock.  std::map nodes are stable, so handed-out references survive
/// later registrations.
class Registry {
public:
  static Registry &global();

  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// Zeroes every instrument (tests and multi-run drivers); registered
  /// names and references stay valid.
  void reset();

  /// Zeroes only the gauges.  Batch drivers call this between items /
  /// before the whole-batch export so last-value gauges (program.*,
  /// phase.*, analysis.degraded, ...) of the final item do not leak into
  /// the batch-level snapshot, while monotone counters keep accumulating
  /// across the batch.
  void resetGauges();

  /// Flat numeric view, sorted by name.  Histograms expand into
  /// name.count / name.sum / name.min / name.max / name.avg plus the
  /// estimated name.p50 / name.p95 / name.p99 quantile leaves.
  std::vector<std::pair<std::string, double>> snapshot() const;

  /// Prometheus text exposition (version 0.0.4) of every instrument:
  /// counters as `spa_<name>_total`, gauges as `spa_<name>`, histograms
  /// as `spa_<name>` with cumulative `le` buckets at the power-of-two
  /// upper bounds plus `_sum`/`_count`.  Dots and dashes in metric
  /// names mangle to underscores; output is sorted by name, each family
  /// preceded by `# HELP` and `# TYPE`.
  std::string renderProm() const;

  /// Value of one snapshot leaf; \p Default when absent (a metric whose
  /// instrumentation site never ran).
  double value(const std::string &Name, double Default = 0) const;

  /// Enumerates counters and gauges with their *stable addresses* (map
  /// nodes never move or erase), under the registry mutex.  The crash
  /// postmortem (obs/Postmortem.h) uses this in normal context to build
  /// a frozen name/address index its signal handler can later read with
  /// atomics only.  Histograms are excluded: they are not readable
  /// without synchronization.
  void forEachInstrument(
      const std::function<void(const std::string &, const Counter &)> &OnCtr,
      const std::function<void(const std::string &, const Gauge &)> &OnGauge)
      const;

private:
  /// Registers pthread_atfork handlers that hold M across fork(): a child
  /// forked while another thread registers an instrument would otherwise
  /// inherit M locked with no owner, and hang on its first registration.
  Registry();
  mutable std::mutex M;
  std::map<std::string, Counter> Counters;
  std::map<std::string, Gauge> Gauges;
  std::map<std::string, Histogram> Histograms;
};

} // namespace obs
} // namespace spa

#define SPA_OBS_CONCAT_IMPL(A, B) A##B
#define SPA_OBS_CONCAT(A, B) SPA_OBS_CONCAT_IMPL(A, B)

#if SPA_OBS_ENABLED

/// Bumps counter \p Name by \p N.  The registry lookup happens once per
/// call site.
#define SPA_OBS_COUNT(Name, N)                                                 \
  do {                                                                         \
    static ::spa::obs::Counter &SPA_OBS_CONCAT(ObsCnt_, __LINE__) =            \
        ::spa::obs::Registry::global().counter(Name);                          \
    SPA_OBS_CONCAT(ObsCnt_, __LINE__).add(N);                                  \
  } while (0)

/// Sets gauge \p Name to \p V (cold paths: phase boundaries, run ends).
#define SPA_OBS_GAUGE_SET(Name, V)                                             \
  ::spa::obs::Registry::global().gauge(Name).set(static_cast<double>(V))

/// Raises gauge \p Name to \p V if larger (peak-style gauges).
#define SPA_OBS_GAUGE_MAX(Name, V)                                             \
  ::spa::obs::Registry::global().gauge(Name).max(static_cast<double>(V))

/// Records one sample into histogram \p Name.
#define SPA_OBS_HIST(Name, V)                                                  \
  do {                                                                         \
    static ::spa::obs::Histogram &SPA_OBS_CONCAT(ObsHist_, __LINE__) =         \
        ::spa::obs::Registry::global().histogram(Name);                        \
    SPA_OBS_CONCAT(ObsHist_, __LINE__).observe(static_cast<double>(V));        \
  } while (0)

#else

// The value expression is kept in never-taken dead code so variables
// that feed only the metrics layer still count as used (the compiler
// removes it; side effects never run, matching the enabled-mode
// contract that V is evaluated at most once).
#define SPA_OBS_DISCARD(V)                                                     \
  do {                                                                         \
    if (false)                                                                 \
      (void)(V);                                                               \
  } while (0)

#define SPA_OBS_COUNT(Name, N) SPA_OBS_DISCARD(N)
#define SPA_OBS_GAUGE_SET(Name, V) SPA_OBS_DISCARD(V)
#define SPA_OBS_GAUGE_MAX(Name, V) SPA_OBS_DISCARD(V)
#define SPA_OBS_HIST(Name, V) SPA_OBS_DISCARD(V)

#endif // SPA_OBS_ENABLED

#endif // SPA_OBS_METRICS_H
