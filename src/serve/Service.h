//===- Service.h - Resident incremental analysis service ------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's brain, socket-free so tests and benches can drive it
/// in-process: an LRU-bounded cache of analyzed programs keyed by
/// spa-ir-v1 content digests, plus the incremental path (docs/SERVER.md).
/// On a request whose program differs from every cached entry, the
/// service runs the normal pipeline up to the dependency graph, computes
/// a content signature per dependency-graph partition (union-find
/// component), and re-runs the sparse fixpoint only for partitions whose
/// signature matches no cached partition — untouched partitions' In/Out
/// buffers are copied from cache.  Components are closed fixpoint
/// subsystems (core/Fixpoint.h), so the combined result is
/// bit-identical to a cold run; tests/server_test.cpp enforces this
/// across an edit-storm at several --jobs values.
///
/// Not thread-safe: the server handles one connection at a time, which
/// also keeps per-request metrics scoping (Registry::resetGauges)
/// race-free.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_SERVE_SERVICE_H
#define SPA_SERVE_SERVICE_H

#include "core/Analyzer.h"
#include "serve/Protocol.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace spa {
namespace serve {

struct ServiceOptions {
  /// Base analyzer configuration for every request.  Engine is forced to
  /// Sparse; the bypass contraction is left on (its default) because the
  /// dependency partitions only separate under it — see Service.cpp.
  AnalyzerOptions Analyzer;
  /// Partition-level reuse.  Off = every request is a cold run
  /// (the --no-incremental ablation); the cache is neither read nor
  /// written so warm results cannot leak into the baseline.
  bool Incremental = true;
  /// LRU bounds on resident fixpoint solutions.
  uint64_t MaxCacheBytes = 256ull << 20;
  size_t MaxCacheEntries = 64;
  /// One-shot injected fault (SPA_FAULT=crash@serve, parsed at daemon
  /// start): the first request fails with ServeErrc::Injected instead of
  /// killing the daemon, then the trap disarms — the client sees a typed
  /// error and the next request succeeds (docs/SERVER.md "Faults").
  bool FaultArmed = false;
};

/// One resident analysis: full per-node state buffers plus per-partition
/// signatures so later requests can adopt untouched partitions.
struct CacheEntry {
  uint64_t ProgDigest = 0;
  std::vector<AbsState> In, Out;
  std::vector<std::vector<uint32_t>> Members; ///< Per partition, ascending.
  std::vector<uint64_t> Sigs;                 ///< Per partition.
  AnalyzeResponse Resp; ///< Response template (per-request fields blank).
  uint64_t Bytes = 0;
  uint64_t LastUse = 0;
};

class Service {
public:
  explicit Service(ServiceOptions Opts);
  ~Service();

  /// Serves one analyze request.  Returns ServeErrc::None and fills
  /// \p Resp, or a typed error code with \p Error set.  The daemon (and
  /// this object) remain usable after any error.
  ServeErrc analyze(const AnalyzeRequest &Req, AnalyzeResponse &Resp,
                    std::string &Error);

  /// Stats frame payload: a spa-serve-stats-v1 JSON document bundling
  /// daemon uptime, the shared observability epoch, cache occupancy
  /// (entries + bytes), and the full cumulative metrics registry under
  /// a nested "metrics" object.
  std::string statsJson() const;

  /// Prometheus text exposition of the metrics registry (the RespStats
  /// payload when the client set StatsFlagProm).
  std::string statsProm() const;

  /// One spa-serve-telemetry-v1 frame: monotone sequence number, uptime,
  /// request rate and serve.* counter deltas since the previous frame,
  /// cache hit ratio and occupancy.  Stateful — each call advances the
  /// delta baseline (the daemon serves one subscriber at a time, so one
  /// baseline suffices).
  std::string telemetryJson();

  size_t cacheEntries() const { return Entries.size(); }
  uint64_t cacheBytes() const { return TotalBytes; }
  double uptimeSeconds() const;

private:
  void touch(CacheEntry &E);
  void insertEntry(std::unique_ptr<CacheEntry> E, uint64_t SrcDigest);
  void evictToBudget();
  void exportCacheGauges();

  ServiceOptions Opts;
  /// Analyzed programs by canonical snapshot digest.
  std::unordered_map<uint64_t, std::unique_ptr<CacheEntry>> Entries;
  /// Raw request bytes -> program digest (skips parse + encode on
  /// byte-identical requests, the repeated-CI-request fast path).
  std::unordered_map<uint64_t, uint64_t> SrcMemo;
  /// Partition signature -> (program digest, partition index).  A
  /// multimap because distinct programs legitimately share partitions —
  /// that sharing is the whole point.
  std::unordered_multimap<uint64_t, std::pair<uint64_t, uint32_t>> SigIndex;
  uint64_t TotalBytes = 0;
  uint64_t Tick = 0;
  /// Daemon start on the shared observability timebase (obs/Trace.h).
  double StartMicros = 0;
  /// Request ids for the journal (ServeAbort carries the id of the
  /// request the injected fault killed mid-flight).
  uint64_t RequestSeq = 0;
  /// Telemetry delta baseline: counter values at the previous frame.
  uint64_t TelemetrySeq = 0;
  double LastTelemetryMicros = 0;
  std::unordered_map<std::string, double> LastCounters;
};

/// Result digest: FNV-1a over every sparse In/Out buffer (sorted COW
/// map iteration and canonical bottom intervals make this deterministic
/// for identical results, at any --jobs).  The warm-vs-cold correctness
/// bar compares exactly this.
uint64_t hashSparseStates(const SparseResult &R);

} // namespace serve
} // namespace spa

#endif // SPA_SERVE_SERVICE_H
