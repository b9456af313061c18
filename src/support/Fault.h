//===- Fault.h - Deterministic fault-injection hook ------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for testing the batch executor's failure
/// isolation (docs/ROBUSTNESS.md).  A fault plan is parsed from
///
///   SPA_FAULT=<kind>@<phase>[:<name-substr>]
///
/// where <kind> is crash | oom | timeout | stall | truncate | partial,
/// <phase> is one of the analyzer phase names (build, pre, defuse,
/// depbuild, fix, check), the amortized in-fixpoint checkpoint
/// ("fixloop" — the only site where `stall` makes sense: it hangs the
/// loop *between* heartbeats, which is what the watchdog of
/// obs/Postmortem.h exists to catch), the shard worker's per-item
/// checkpoint ("shardloop"), the coordinator's frame-reader phase
/// ("reader"), or "*", and the optional <name-substr> restricts the
/// fault to batch items whose name contains the substring.  The plan
/// only fires inside a FaultScope, which the shard coordinator installs
/// exclusively in its forked workers, around one item at a time —
/// injected faults therefore kill at most one worker and the item it
/// holds, exactly the failure domain the isolation layer must contain.
///
/// The truncate/partial kinds are the one exception: they model a result
/// frame that tore (no bytes at all, or a payload cut off mid-write),
/// which is inherently a *parent-side* failure to observe.  The
/// coordinator arms them around its frame reader instead of in the
/// worker, and the reader tears the frame itself (faultMatches below)
/// rather than killing anything.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_SUPPORT_FAULT_H
#define SPA_SUPPORT_FAULT_H

#include <string>

namespace spa {

/// Exit code of a process that ran out of memory on purpose (the
/// injected "oom" fault), distinguishable from crashes (signals) and
/// build errors; the shard coordinator classifies it Oom.
constexpr int OomExitCode = 86;

/// A parsed SPA_FAULT specification.
struct FaultPlan {
  enum class Kind { None, Crash, Oom, Timeout, Stall, Truncate, Partial };
  Kind K = Kind::None;
  std::string Phase;   ///< Phase name or "*".
  std::string NameSub; ///< Empty = any program.

  bool active() const { return K != Kind::None; }

  /// The kinds the coordinator arms in the parent (around its frame
  /// reader) instead of in the worker.
  bool parentSide() const {
    return K == Kind::Truncate || K == Kind::Partial;
  }

  /// Parses \p Spec; returns an inactive plan for null/empty/bad specs.
  static FaultPlan parse(const char *Spec);

  /// Plan from the SPA_FAULT environment variable (re-read every call so
  /// tests can vary it between batch runs).
  static FaultPlan fromEnv();
};

/// Arms \p Plan for the current thread while in scope, tagging it with
/// the item name the \p NameSub filter matches against.  Installed only
/// in shard workers (and around the coordinator's frame reader for the
/// parent-side kinds); nesting restores the outer scope.
class FaultScope {
public:
  FaultScope(const FaultPlan &Plan, std::string ProgramName);
  ~FaultScope();
  FaultScope(const FaultScope &) = delete;
  FaultScope &operator=(const FaultScope &) = delete;
};

/// Fires the armed fault if its phase filter matches \p Phase: crash
/// calls abort(), oom exits with OomExitCode, timeout and stall sleep
/// until something external reaps the process (the coordinator's kill
/// limit, or — for a stall armed at the "fixloop" checkpoint — the
/// heartbeat watchdog, which classifies it `stalled` first).  The
/// parent-side kinds (truncate/partial) are no-ops here.  No-op outside
/// a FaultScope or when the filters do not match.
void maybeInjectFault(const char *Phase);

/// True when a plan of kind \p K is armed on this thread and its
/// phase/name filters match \p Phase.  Query form for faults the caller
/// simulates itself (the frame reader's truncate/partial); never kills
/// the process.
bool faultMatches(const char *Phase, FaultPlan::Kind K);

} // namespace spa

#endif // SPA_SUPPORT_FAULT_H
