//===- ShardCoordinator.h - Work-stealing multi-process shard driver -----------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one executor that forks: splits a batch across N persistent shard
/// workers with a pull-based (work-stealing) dispatch protocol over
/// pipes.  `spa-analyze --isolate` is this executor with one worker per
/// --jobs lane.  The parent serializes every program to an spa-ir-v1
/// snapshot once, forks the workers (which inherit the snapshot bytes
/// copy-on-write), and then plays dealer:
///
///   parent -> worker:  16-byte frame { u32 item index, u32 tier,
///                      u64 parent trace-span id }
///                      (index 0xFFFFFFFF = shutdown)
///   worker -> parent:  length-prefixed result frame
///                      { u32 len, payload: u32 index + encoded
///                        BatchItemResult + serialized trace spans },
///                      or a postmortem summary tagged by
///                      PostmortemPipeMagic in place of the length
///
/// Each worker holds exactly one item at a time and asks for the next by
/// finishing the last, so fast workers drain the shared queue — stealing
/// items a static contiguous-block split would have pinned to a slow
/// sibling (the Steals counter measures exactly that displacement).
///
/// Every item runs under its own forensics inside the worker: the
/// SPA_FAULT plan armed under the item's name, the postmortem writer,
/// and the stall watchdog.  The parent SIGKILLs a worker whose item
/// outlives the kill limit.  The death rule: when a worker dies, the
/// parent reaps it, classifies the item it held from the exit status
/// (kill limit -> Timeout, OomExitCode -> Oom, StallExitCode -> Stalled,
/// a signal -> Crash), applies the retry rule of workload/Batch.h, and
/// forks a replacement so the lane count holds.  A malformed result
/// frame fails its item (Crash) and the worker lives on.
///
/// Results land in input-order slots, so the merged BatchResult is
/// bit-identical (deterministic fields) to a --shards=1 run and to plain
/// runBatch.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_WORKLOAD_SHARDCOORDINATOR_H
#define SPA_WORKLOAD_SHARDCOORDINATOR_H

#include "workload/Batch.h"

namespace spa {

struct ShardOptions {
  /// Per-item analysis options; Analyzer.Jobs pins to 1 inside workers
  /// (each worker is one lane of the process-level pool).
  BatchOptions Batch;
  /// Worker process count (clamped to [1, item count]).
  unsigned Shards = 2;
};

/// Dispatch/completion record of one item, in parent batch-clock seconds.
struct ShardItemTiming {
  double DispatchSeconds = 0; ///< Last dispatch of this item.
  double DoneSeconds = 0;     ///< End of the last attempt (0 if never run).
  unsigned Shard = 0;         ///< Worker lane of the last attempt.
  unsigned Assignments = 0;   ///< Attempts (2 = retried at the lower tier).
};

struct ShardRunResult {
  BatchResult Batch;                  ///< Merged, in input order.
  std::vector<ShardItemTiming> Timing; ///< Parallel to Batch.Items.
  /// Workers that died before shutdown; each one that held an item was
  /// replaced by a fresh fork.
  unsigned WorkerDeaths = 0;
  uint64_t Steals = 0; ///< Items executed off their static home shard.
};

/// Runs \p Items across Opts.Shards forked workers.  Exports the batch.*
/// and shard.* gauges and appends a "shard" bench record.
ShardRunResult runSharded(const std::vector<BatchItem> &Items,
                          const ShardOptions &Opts);

} // namespace spa

#endif // SPA_WORKLOAD_SHARDCOORDINATOR_H
