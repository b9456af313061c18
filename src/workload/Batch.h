//===- Batch.h - Multi-program batch analysis driver ----------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-batch front-end: analyze K programs across the thread pool, one
/// program per lane (the embarrassingly-parallel outer loop; the
/// analyzer's own parallel phases degrade to inline execution on worker
/// lanes, so nesting is safe).  Per-program results land in input-order
/// slots, so batch output is deterministic regardless of lane scheduling,
/// and throughput is reported as programs/sec via the SPA_BENCH_JSON
/// records of docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_WORKLOAD_BATCH_H
#define SPA_WORKLOAD_BATCH_H

#include "core/Analyzer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace spa {

/// One program of a batch: a display name plus its surface source text,
/// or a pre-serialized spa-ir-v1 snapshot to analyze instead of source.
struct BatchItem {
  BatchItem() = default;
  BatchItem(std::string Name, std::string Source)
      : Name(std::move(Name)), Source(std::move(Source)) {}

  std::string Name;
  std::string Source;
  /// When set, the program comes from this snapshot file and Source is
  /// ignored.  The bytes reach the strict snapshot loader *unvalidated*:
  /// a corrupt file classifies as BuildError, the snapshot equivalent of
  /// unparseable source.
  std::string SnapshotPath;
};

/// Failure taxonomy of one batch item (docs/ROBUSTNESS.md).
enum class BatchOutcome {
  Ok,         ///< Full-precision analysis completed.
  Degraded,   ///< Budget tripped; result is sound but coarse (usable).
  BuildError, ///< The source did not build.
  Timeout,    ///< The shard worker was killed at the kill limit.
  Oom,        ///< Shard worker exited with OomExitCode.
  Crash,      ///< Shard worker died on a signal, or its frame tore.
  Stalled,    ///< Watchdog: fixpoint heartbeats stopped (a hang with a
              ///< diagnosis, unlike Timeout's bare kill at the limit).
};

const char *batchOutcomeName(BatchOutcome O);

/// "vanilla" / "base" / "sparse": the engine column of bench records.
const char *batchEngineName(EngineKind E);

/// Outcome of one batch item (deterministic: independent of Jobs).
struct BatchItemResult {
  std::string Name;
  /// The item produced a usable result: Outcome is Ok or Degraded.
  bool Ok = false;
  BatchOutcome Outcome = BatchOutcome::Crash;
  std::string Error; ///< Failure reason when !Ok.
  /// The shard worker running the item was killed at the kill limit
  /// (Outcome Timeout).  A run that reaches its budget deadline degrades
  /// instead.
  bool TimedOut = false;
  /// The producing run degraded under its resource budget (provenance
  /// bit; also set on an adopted lower-tier retry result).
  bool Degraded = false;
  /// A failed first attempt was retried at a tightened budget tier.
  bool Retried = false;
  unsigned Checks = 0;      ///< Dereferences checked (with Check).
  unsigned Alarms = 0;      ///< Checker alarms (with Check).
  /// Wall time summed over this item's attempts (first attempt + retry).
  double Seconds = 0;
  /// High-water RSS of the shard worker that ran the item, measured when
  /// the item ended (sharded runs only; earlier items of the same worker
  /// count too).
  uint64_t PeakRssKiB = 0;
  /// Cooperative budget steps the adopted run consumed.  0 when the run
  /// had no budget or died before reporting (e.g. a crashed worker).
  uint64_t BudgetSteps = 0;
  /// Ledger totals of the adopted run's main fixpoint (the per-item cost
  /// rollup batch --ledger-out reports).  All zero with -DSPA_OBS=OFF or
  /// when the item produced no run (build error, crashed worker).
  uint64_t LedgerVisits = 0;
  uint64_t LedgerWidenings = 0;
  uint64_t LedgerGrowth = 0;
  uint64_t LedgerTimeMicros = 0;
  /// Human rendering of the postmortem summary a dying shard worker
  /// shipped over its result pipe ("stall in partition 3, worklist depth
  /// 17, ..."); empty when the worker died silently or completed.
  std::string CrashNote;
  /// A postmortem summary arrived for this item (CrashNote is set, and
  /// with a postmortem directory configured a .pm.json file exists).
  bool HasPostmortem = false;
};

struct BatchOptions {
  AnalyzerOptions Analyzer;
  /// Also run the buffer-overrun checker per program, on the analyzer's
  /// own (by default contracted) graph, whose widening T̂pre bounds, as
  /// `spa-analyze --check` and spa-serve do; their verdicts are equal.
  bool Check = false;
  /// Hard wall-clock kill limit per item in a shard worker, in seconds.
  /// 0 derives 4 * Budget.DeadlineSec + 1 when the deadline is set (a
  /// cooperative deadline that far overdue means the worker is stuck);
  /// unlimited when it is not.
  double KillLimitSec = 0;
  /// Stall watchdog interval for shard workers, in milliseconds (0 = no
  /// watchdog).  A worker whose fixpoint stops heartbeating for two
  /// consecutive intervals dies with a stall postmortem and its item is
  /// classified Stalled instead of waiting for the kill limit.
  uint32_t WatchdogMs = 0;
  /// Directory for per-item crash/stall/OOM postmortem files
  /// (`<dir>/<item-name>.pm.json`, schema spa-postmortem-v1).  Empty =
  /// no files; pipe summaries still flow back to the parent.
  std::string PostmortemDir;
  /// The one retry rule: an item that ends Timeout/Oom/Crash/Stalled is
  /// retried once at lowerTierOptions, and the retry is adopted when it
  /// is usable (retryable / adoptRetry below).
  bool RetryAtLowerTier = true;
};

struct BatchResult {
  std::vector<BatchItemResult> Items; ///< In input order.
  double Seconds = 0;                 ///< Whole-batch wall time.

  size_t numFailed() const; ///< Items without a usable result (!Ok).
  size_t numDegraded() const;
  size_t countOutcome(BatchOutcome O) const;
  double programsPerSec() const {
    return Seconds > 0 ? static_cast<double>(Items.size()) / Seconds : 0;
  }
};

/// Process exit code for a batch run: 0 = every item completed at full
/// precision, 3 = all usable but some degraded, 2 = at least one item
/// failed (build error, timeout, OOM, or crash).
int exitCodeFor(const BatchResult &R);

/// The retry tier: \p A with a tightened budget (halved deadline and
/// step limit; a step limit imposed if there was none) that forces early
/// sound degradation instead of repeating whatever exhausted the first
/// attempt.
AnalyzerOptions lowerTierOptions(const AnalyzerOptions &A);

/// Outcomes the retry rule retries: Timeout, Oom, Crash, Stalled.  Build
/// errors are deterministic and never retried.
bool retryable(BatchOutcome O);

/// Folds the lower-tier \p Retry into \p R, the first attempt's result:
/// a usable retry is adopted, a failed one keeps the first
/// classification (a deterministic fault re-fires, so taxonomy counts
/// stay equal to the injected faults).  Either way R is marked Retried
/// and its wall time spans both attempts.
void adoptRetry(BatchItemResult &R, BatchItemResult Retry);

/// The one item runner of in-process lanes and shard workers: builds the
/// program (from \p Snapshot when given, else from the item's snapshot
/// file or source), analyzes it with \p A, runs the checker when
/// Opts.Check, and classifies the outcome.  Name and Seconds are set;
/// PeakRssKiB is left to the caller.  The "build" and "check" fault
/// checkpoints (support/Fault.h) sit inside; they fire only under a
/// FaultScope, which only shard workers arm.
BatchItemResult runBatchItem(const BatchItem &Item,
                             const std::vector<uint8_t> *Snapshot,
                             const BatchOptions &Opts,
                             const AnalyzerOptions &A);

/// Zeroes the per-run gauges (whichever item's run wrote them last) and
/// sets the batch-scoped ones — batch.programs, batch.failed,
/// batch.degraded, batch.failures.*, ... — from \p R run on \p Lanes
/// lanes.  Counters and histograms keep accumulating.
void publishBatchGauges(const BatchResult &R, unsigned Lanes);

/// Analyzes every item in process, fanning programs out over
/// Analyzer.Jobs pool lanes, and appends one "batch" bench record
/// (SPA_BENCH_JSON) with the batch.* gauges.  Fault isolation is
/// runSharded's job (workload/ShardCoordinator.h).
BatchResult runBatch(const std::vector<BatchItem> &Items,
                     const BatchOptions &Opts);

/// The paper's 16-program suite as a batch (generated sources).
std::vector<BatchItem> suiteBatch(double Scale);

/// Loads a batch list file: one .spa program path per line; blank lines
/// and '#' comments are skipped; relative paths resolve against the list
/// file's directory.  Returns false with \p Error set on I/O failure.
bool loadBatchFile(const std::string &Path, std::vector<BatchItem> &Items,
                   std::string &Error);

} // namespace spa

#endif // SPA_WORKLOAD_BATCH_H
