//===- Postmortem.h - Crash postmortems and the stall watchdog -------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forensics for runs that never complete (docs/OBSERVABILITY.md).  Two
/// cooperating pieces:
///
///  * The postmortem writer.  postmortemInstall() pre-opens an output
///    file and hooks SIGSEGV/SIGBUS/SIGABRT; when the process dies — or
///    when the injected oom fault calls it before exiting — an
///    async-signal-safe writer dumps the run identity, every thread's
///    journal tail (obs/Journal.h), a registry snapshot taken through a
///    pre-built index of atomic instrument addresses, and the last
///    ledger rollups as one `spa-postmortem-v1` JSON document.  The
///    handler path performs no allocation, takes no locks, and touches
///    the registry only through relaxed atomic loads.
///
///  * The watchdog.  watchdogStart(IntervalMs) spawns a monitor thread
///    that samples the per-slot heartbeat counters every fixpoint loop
///    bumps; a thread that sits inside a fixpoint scope without a single
///    heartbeat across two consecutive intervals is declared stalled.
///    The watchdog then records the stall in the journal, emits a stall
///    postmortem (stuck partition, worklist depth, last event), ships
///    the compact summary through the result pipe when one is attached,
///    and exits with StallExitCode — which the shard coordinator
///    classifies as `stalled`, distinct from `timeout`.
///
/// A compact fixed-size PostmortemSummary additionally travels over a
/// shard worker's result pipe (workload/ShardCoordinator.h), tagged by a
/// magic length prefix no legitimate frame can carry, so crash/oom/stall
/// items carry a diagnosis back to the parent instead of a bare exit
/// code.
///
/// With -DSPA_OBS=OFF everything here compiles to no-ops: install
/// reports failure, the watchdog never starts, and no handler is hooked.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_OBS_POSTMORTEM_H
#define SPA_OBS_POSTMORTEM_H

#include "obs/Journal.h"

#include <string>

namespace spa {
namespace obs {

/// Exit code of a process the watchdog killed for lack of fixpoint
/// progress.  Distinct from OomExitCode (support/Fault.h) and from any
/// signal death; the batch parent maps it to BatchOutcome::Stalled.
constexpr int StallExitCode = 87;

/// Why a postmortem was written.
enum class PostmortemReason : uint8_t {
  None = 0,
  Signal = 1, ///< SIGSEGV / SIGBUS / SIGABRT.
  Stall = 2,  ///< Watchdog: heartbeats stopped inside a fixpoint.
  Oom = 3,    ///< Out of memory (the injected oom fault).
};

const char *postmortemReasonName(PostmortemReason R);

/// Compact diagnosis shipped over a shard worker's result pipe.  All
/// fields are u64 so the struct has no padding surprises across the
/// fork boundary (same binary on both sides).
struct PostmortemSummary {
  uint64_t Reason = 0;         ///< PostmortemReason.
  uint64_t Detail = 0;         ///< Signal number, or stalled slot index.
  uint64_t HeartbeatTotal = 0; ///< Sum of all slots at death.
  uint64_t WorklistDepth = 0;  ///< Stuck/reporting slot's last depth.
  uint64_t Partition = 0;      ///< Stuck/reporting slot's partition.
  uint64_t LastEventKind = 0;  ///< JournalEventKind of the newest event.
  uint64_t LastEventA = 0;
  uint64_t LastEventB = 0;
  uint64_t ElapsedMicros = 0;  ///< Since journal epoch.
};

/// Length-prefix magic tagging a PostmortemSummary on the result pipe.
/// Greater than any legal result-frame length, so the parent's reader
/// can branch on the first u32.
constexpr uint32_t PostmortemPipeMagic = 0xDEADD00Du;

/// One line of human text for a shipped summary ("stalled in partition
/// 3, worklist depth 17, last event widen.burst").  Not signal-safe;
/// parent-side rendering only.
std::string postmortemSummaryText(const PostmortemSummary &S);

#if SPA_OBS_ENABLED

struct PostmortemOptions {
  /// Directory for the postmortem file; null or empty writes no file
  /// (the pipe summary, if any, still ships).
  const char *Dir = nullptr;
  /// Run identity baked into the file name and the JSON (batch item
  /// name, program path, ...).  Null defaults to "run".
  const char *RunId = nullptr;
  /// Write end of the shard worker's result pipe; -1 = none.
  int PipeFd = -1;
};

/// Installs the signal hooks and pre-opens the output file.  Safe to
/// call again (e.g. in a fork child) — the previous file is released.
/// Returns false when the file could not be created.
bool postmortemInstall(const PostmortemOptions &Opts);

/// Clean-exit teardown: stops the watchdog, restores default handlers,
/// and unlinks the (empty) postmortem file when nothing was written.
void postmortemUninstall();

/// True between install and uninstall.
bool postmortemActive();

/// Path of the pre-opened postmortem file ("" when none).
std::string postmortemFilePath();

/// Rebuilds the frozen registry index the signal handler reads: names
/// are copied into a static arena and instrument addresses (stable for
/// the process lifetime) are published atomically.  Call from normal
/// context only — typically once per run start; instruments registered
/// after the last refresh are absent from postmortems.
void postmortemRefreshRegistryIndex();

/// Last ledger rollup, re-published after attribution so a later crash
/// report carries the most recent completed fixpoint's totals.
void postmortemSetLedgerRollup(uint64_t Visits, uint64_t Widenings,
                               uint64_t Growth, uint64_t TimeMicros);

/// Writes the postmortem immediately (async-signal-safe; also the
/// new-handler OOM path).  \p Detail is the signal number or stalled
/// slot.  Returns true when a file was written.
bool postmortemWriteNow(PostmortemReason Reason, uint64_t Detail);

/// Starts/stops the stall watchdog.  IntervalMs <= 0 is a no-op.  The
/// watchdog declares a stall only for threads inside a fixpoint scope
/// (JournalFixScope), writes the stall postmortem, and _exits with
/// StallExitCode.
void watchdogStart(uint32_t IntervalMs);
void watchdogStop();

#else // !SPA_OBS_ENABLED

struct PostmortemOptions {
  const char *Dir = nullptr;
  const char *RunId = nullptr;
  int PipeFd = -1;
};

inline bool postmortemInstall(const PostmortemOptions &) { return false; }
inline void postmortemUninstall() {}
inline bool postmortemActive() { return false; }
inline std::string postmortemFilePath() { return ""; }
inline void postmortemRefreshRegistryIndex() {}
inline void postmortemSetLedgerRollup(uint64_t, uint64_t, uint64_t, uint64_t) {}
inline bool postmortemWriteNow(PostmortemReason, uint64_t) { return false; }
inline void watchdogStart(uint32_t) {}
inline void watchdogStop() {}

#endif // SPA_OBS_ENABLED

} // namespace obs
} // namespace spa

#endif // SPA_OBS_POSTMORTEM_H
