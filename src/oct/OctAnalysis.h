//===- OctAnalysis.h - Packed relational (octagon) analyzers ---------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The packed relational analysis of Section 4 instantiated with octagons
/// (Table 3's Octagon_vanilla / Octagon_base / Octagon_sparse).  Abstract
/// locations are variable packs (Ŝ = Packs → Oct); definition and use
/// sets are pack sets; the sparse machinery (pre-analysis, SSA dependency
/// construction, bypass, BDD storage) and the fixpoint engine
/// (core/Fixpoint.h) are reused verbatim over pack ids.
///
/// Pointer and function-pointer reasoning is delegated to the
/// flow-insensitive pre-analysis (which Table 2's analyzers also use for
/// the callgraph): loads and stores go through the pre-analysis points-to
/// sets and degrade to interval updates on the touched singleton packs,
/// matching the paper's setup where non-numerical values are "handled in
/// the same way as the interval analysis".
///
//===----------------------------------------------------------------------===//

#ifndef SPA_OCT_OCTANALYSIS_H
#define SPA_OCT_OCTANALYSIS_H

#include "core/Analyzer.h"
#include "oct/Octagon.h"
#include "oct/Packing.h"
#include "support/FlatMap.h"

#include <optional>

namespace spa {

using OctVal = Oct;

/// Abstract state of the relational analysis: packs to octagons.
/// Missing entries are bottom for joins; transfers treat them as ⊤ (the
/// same non-strictness the interval engine has for constant effects).
using OctState = FlatMap<PackId, OctVal>;

/// Packs hold at most computePacking's default of 10 variables, and an
/// entry that changed 8 × WideningDelay times jumps to ⊤ (the hard cut).
struct OctOptions {
  EngineKind Engine = EngineKind::Sparse;
  /// Dependency construction; Dep.Jobs also sets the sparse fixpoint's
  /// lanes (results are identical for every value).
  DepOptions Dep;
  unsigned WideningDelay = 4;
  /// Resource-governance limits; same cooperative semantics as
  /// AnalyzerOptions::Budget (docs/ROBUSTNESS.md).  When the octagon
  /// fixpoint degrades, the run also runs the (cheaper) interval analyzer
  /// with a fresh budget of the same limits, so consumers keep a
  /// flow-sensitive non-relational result (OctRun::Fallback).
  BudgetLimits Budget;
};

/// Octagon results: affected points/nodes of a degraded run had their
/// packs bound to ⊤ (missing entries read as ⊥ downstream, so they must
/// be filled).
using OctDenseResult = DenseFixResult<OctState>;
using OctSparseResult = SparseFixResult<OctState>;

/// Everything one octagon-analyzer run produces.
struct OctRun {
  PreAnalysisResult Pre;
  Packing Packs;
  DefUseInfo DU; ///< Pack-space def/use ("locations" are pack ids).
  std::optional<OctDenseResult> Dense;
  std::optional<SparseGraph> Graph;
  std::optional<OctSparseResult> Sparse;
  /// Interval-analyzer fallback run, present when the octagon run
  /// degraded.
  std::optional<AnalysisRun> Fallback;

  double PreSeconds = 0;
  double DefUseSeconds = 0;
  double depSeconds() const;
  double fixSeconds() const;
  double totalSeconds() const { return depSeconds() + fixSeconds(); }
  /// The run reached Budget.DeadlineSec (the paper's ∞ table entries);
  /// its results are degraded but sound.
  bool timedOut() const { return BudgetStop == BudgetReason::Deadline; }
  /// Any phase fell back to the degradation ladder (still sound, coarser).
  bool degraded() const;

  /// Interval of location \p L at point \p P as the analysis sees it
  /// (projection from L's singleton pack; dense engines only).
  Interval denseIntervalAt(PointId P, LocId L) const;

  /// Per-point cost ledger of the octagon fixpoint (not the interval
  /// fallback's — that one lives in Fallback->Ledger).  Null with
  /// -DSPA_OBS=OFF.
  std::shared_ptr<obs::Ledger> Ledger = nullptr;

  /// Why the octagon run's budget stopped it (not the fallback's, which
  /// lives in Fallback->BudgetStop) and the steps it had consumed; same
  /// meaning as AnalysisRun::BudgetStop / BudgetSteps.
  BudgetReason BudgetStop = BudgetReason::None;
  uint64_t BudgetSteps = 0;
};

OctRun runOctAnalysis(const Program &Prog, const OctOptions &Opts);

/// Pack-space def/use sets (exposed for tests).
DefUseInfo computeOctDefUse(const Program &Prog, const PreAnalysisResult &Pre,
                            const Packing &Packs);

} // namespace spa

#endif // SPA_OCT_OCTANALYSIS_H
