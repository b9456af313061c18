//===- Checker.h - Buffer-overrun checker ----------------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyzer client SPARROW exists for: static detection of buffer
/// overruns.  Every dereference (load or store) is checked against the
/// pointer's (offset, size) array tuple; an access is proven safe when
/// 0 ≤ offset and offset < size hold for the whole abstract value.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_CORE_CHECKER_H
#define SPA_CORE_CHECKER_H

#include "core/Analyzer.h"
#include "obs/Provenance.h"

#include <optional>
#include <string>
#include <vector>

namespace spa {

/// One checked dereference.
struct AccessCheck {
  PointId P;       ///< The dereferencing point.
  LocId Ptr;       ///< The pointer variable.
  Interval Offset; ///< Abstract offset at the access.
  Interval Size;   ///< Abstract block size at the access.
  bool IsStore = false;
  /// Verdicts: Safe (proved in bounds), Alarm (may be out of bounds),
  /// DefiniteOverrun (every concretization is out of bounds).
  enum class Verdict { Safe, Alarm, DefiniteOverrun } Result;
  /// Provenance: the producing run hit its resource budget and degraded
  /// (the verdict is still sound, but coarser — expect extra alarms).
  bool Degraded = false;

  std::string str(const Program &Prog) const;
};

struct CheckerSummary {
  std::vector<AccessCheck> Checks;
  /// Mirrors AnalysisRun::degraded() of the producing run.
  bool Degraded = false;
  unsigned numSafe() const;
  unsigned numAlarms() const; ///< Alarm + DefiniteOverrun.
};

/// Checks every dereference in \p Prog against the states of \p Run, a
/// Sparse run.  `spa-analyze --check`, the facade below, batches, shard
/// workers and spa-serve all check on the default, bypass-contracted
/// graph, so served verdicts equal cold ones.  The checker reads a
/// pointer only at points that use it, which the contraction keeps.
/// The sparse widening bounds block sizes by T̂pre (DESIGN.md §5
/// "Bounded widening"), and with that bound the contracted and the full
/// graph gave equal verdicts on every program measured; nothing proves
/// them equal in general.
CheckerSummary checkBufferOverruns(const Program &Prog,
                                   const AnalysisRun &Run);

/// Convenience: run the sparse analysis configured for checking and
/// report.
CheckerSummary analyzeAndCheck(const Program &Prog);

//===----------------------------------------------------------------------===//
// Alarm provenance (docs/OBSERVABILITY.md "Why did this alarm fire?")
//===----------------------------------------------------------------------===//

/// One node of an alarm's backward dependency slice.
struct ProvenanceEntry {
  uint32_t Node = 0;  ///< Sparse-graph node id.
  PointId P;          ///< The node's anchor point.
  uint32_t Depth = 0; ///< BFS distance from the alarm point.
  LocId Via;          ///< Location whose value flowed over the reached edge.
  bool IsPhi = false;
  bool IsWidenPoint = false; ///< Widening applies at this node.
  bool Degraded = false;     ///< Widened to the degradation tier (PR 3).
};

/// The explanation of one alarm: the bounded backward slice of the
/// sparse dependency relation that fed the alarming dereference.
struct AlarmProvenance {
  unsigned AlarmId = 0; ///< 0-based index over the non-Safe checks.
  AccessCheck Check;
  std::vector<ProvenanceEntry> Slice; ///< BFS order; the alarm node first.
  bool Truncated = false;             ///< A bound or the budget cut it short.
  uint64_t EdgesWalked = 0;
  bool TouchesDegraded = false; ///< Any slice node holds a degraded value.

  /// Multi-line text for spa-analyze --explain-alarm.
  std::string str(const Program &Prog, const AnalysisRun &Run) const;
};

/// Bounds and budget of a provenance walk.  The producing run's budget
/// token is gone by the time anyone asks for an explanation, so the
/// caller passes a fresh one (or null for an unbudgeted walk).
struct ProvenanceQuery {
  obs::ProvenanceOptions Bounds;
  Budget *Bud = nullptr;
};

/// Explains alarm \p AlarmId — the 0-based index over the non-Safe
/// entries of \p Summary.Checks in order (the numbering spa-analyze
/// prints).  Requires the sparse run that produced \p Summary; returns
/// nullopt when the id is out of range.
std::optional<AlarmProvenance> explainAlarm(const Program &Prog,
                                            const AnalysisRun &Run,
                                            const CheckerSummary &Summary,
                                            unsigned AlarmId,
                                            const ProvenanceQuery &Q = {});

/// Slices for every alarm of \p Summary (the `provenance` array of the
/// ledger JSON export).
std::vector<AlarmProvenance>
collectAlarmProvenance(const Program &Prog, const AnalysisRun &Run,
                       const CheckerSummary &Summary,
                       const ProvenanceQuery &Q = {});

/// Renders slices as the ledger JSON `provenance` array (pretty-printed
/// two-space style matching obs::Ledger::toJson; "[]" when empty).
std::string provenanceJsonArray(const Program &Prog, const AnalysisRun &Run,
                                const std::vector<AlarmProvenance> &Slices);

} // namespace spa

#endif // SPA_CORE_CHECKER_H
