//===- Analyzer.h - End-to-end analyzer facade ----------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-call drivers for the three interval analyzers of Table 2:
///
///   Vanilla — dense engine, no localization (Interval_vanilla);
///   Base    — dense engine + access-based localization (Interval_base);
///   Sparse  — pre-analysis -> D̂/Û -> data dependencies -> sparse engine
///             (Interval_sparse).
///
/// All three share the flow-insensitive pre-analysis, which resolves the
/// callgraph (function pointers) before the main fixpoint.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_CORE_ANALYZER_H
#define SPA_CORE_ANALYZER_H

#include "core/DenseAnalysis.h"
#include "core/DepBuilder.h"
#include "core/PreAnalysis.h"
#include "core/SparseAnalysis.h"
#include "obs/Ledger.h"

#include <functional>
#include <memory>
#include <optional>

namespace spa {

enum class EngineKind { Vanilla, Base, Sparse };

struct AnalyzerOptions {
  EngineKind Engine = EngineKind::Sparse;
  SemanticsOptions Sem;
  DepOptions Dep; ///< Sparse engine only.
  /// Pre-analysis flavor (Section 3.2's framework instances: the paper's
  /// own precise pre-analysis, the semi-sparse instance, or the staged
  /// pointer-only instance).
  PreAnalysisKind Pre = PreAnalysisKind::Precise;
  unsigned WideningDelay = 4;
  unsigned NarrowingPasses = 0; ///< Dense engines only.
  /// Resource-governance limits (docs/ROBUSTNESS.md).  When any limit is
  /// set the facade creates one cooperative Budget shared by every phase
  /// (pre-analysis, def/use, dependency build, fixpoint — including
  /// worker lanes); on exhaustion the run *degrades soundly* to the
  /// flow-insensitive pre-analysis invariant.  Budget.DeadlineSec is the
  /// only wall-clock limit, and a run that reaches it is still a
  /// complete, sound over-approximation (timedOut() below).
  BudgetLimits Budget;
  /// Pool lanes for the parallel phases (def/use collection, per-function
  /// dependency construction, partitioned sparse fixpoint).  Results are
  /// bit-identical for every value; 1 = fully sequential.  0 resolves to
  /// ThreadPool::defaultJobs() (SPA_JOBS or the hardware concurrency).
  unsigned Jobs = 1;
  /// Sparse engine only: invoked between dependency-graph construction
  /// and the main fixpoint, with the partially-filled run (Pre, DU and
  /// Graph are final) and the fully-populated SparseOptions about to be
  /// used.  The incremental server (docs/SERVER.md) hooks here to compute
  /// partition signatures against its cache and set
  /// SparseOptions::RestrictNodes, so untouched partitions never enter a
  /// worklist.  Anything the hook points RestrictNodes at must outlive
  /// the analyzeProgram call.  Null = no hook.
  std::function<void(const struct AnalysisRun &, SparseOptions &)>
      BeforeSparseFix;
  /// Sparse engine only: a dependency graph decoded from a v2 snapshot
  /// (core/DepSnapshot.h) to use instead of running buildDepGraph.  The
  /// graph is *moved out of* — the caller's object is left empty — and
  /// the caller is responsible for having checked depSnapshotUsable()
  /// against this options struct first.  Null = build normally.
  struct SparseGraph *PrebuiltGraph = nullptr;
};

/// Everything one analyzer run produces, with per-phase timing (the
/// Dep/Fix split of Tables 2 and 3).
struct AnalysisRun {
  PreAnalysisResult Pre;
  DefUseInfo DU;
  std::optional<DenseResult> Dense;   ///< Vanilla/Base engines.
  std::optional<SparseGraph> Graph;   ///< Sparse engine.
  std::optional<SparseResult> Sparse; ///< Sparse engine.

  /// Per-phase wall-clock times.  Each phase is measured exactly once:
  /// the pre-analysis (which Vanilla/Base also run, for callgraph
  /// resolution) and def/use computation are timed here, graph build
  /// time lives in Graph->BuildSeconds, and the engines time their own
  /// fixpoint.  The invariant
  ///
  ///   totalSeconds() == PreSeconds + DefUseSeconds + depBuildSeconds()
  ///                     + fixSeconds()
  ///
  /// holds for every engine (pinned by tests/obs_test.cpp), so no phase
  /// is double-counted across the Dep/Fix split.
  double PreSeconds = 0;
  double DefUseSeconds = 0;
  /// Dependency-graph construction time (sparse engine; 0 for dense).
  double depBuildSeconds() const;
  /// Dependency-generation time (pre-analysis + def/use + graph build),
  /// the paper's Dep column.
  double depSeconds() const;
  /// Main fixpoint time, the paper's Fix column.
  double fixSeconds() const;
  double totalSeconds() const { return depSeconds() + fixSeconds(); }
  /// The run reached Budget.DeadlineSec (the paper's ∞ table entries);
  /// its results are degraded but sound.
  bool timedOut() const { return BudgetStop == BudgetReason::Deadline; }

  /// Why the budget stopped the run (None when it never tripped or no
  /// budget was configured) and the steps it had consumed by the end.
  BudgetReason BudgetStop = BudgetReason::None;
  uint64_t BudgetSteps = 0;
  /// Any phase fell back to the degradation ladder: the results are
  /// still sound over-approximations, but coarser than a full fixpoint
  /// (the provenance bit Checker/Export/spa-analyze surface).
  bool degraded() const;

  /// Per-point cost ledger of the main fixpoint, attributed to functions
  /// and dependency partitions (docs/OBSERVABILITY.md "Ledger").  Null
  /// when the build compiles observability out (-DSPA_OBS=OFF).
  std::shared_ptr<obs::Ledger> Ledger = nullptr;
};

AnalysisRun analyzeProgram(const Program &Prog, const AnalyzerOptions &Opts);

/// Human label of a ledger/provenance node: the rendered program point,
/// or "phi(loc) @ point" for SSA phi pseudo-nodes.  \p Graph may be null
/// (dense runs: node ids are point ids).
std::string ledgerNodeLabel(const Program &Prog, const SparseGraph *Graph,
                            uint32_t Node);

/// Fills a recorded ledger's attribution (node -> function, node ->
/// dependency partition, function names) and exports the ledger.*
/// summary gauges.  Called by both analyzer facades after the fixpoint;
/// \p Graph null means a dense point-indexed ledger (one partition).
///
/// \p CG, when given with a sparse graph, enables co-attribution of
/// inter-procedural phi nodes: a phi anchored at a function entry (or a
/// return site) carries cost that belongs half to the caller and half to
/// the callee, so its row splits between the owning function and the
/// smallest co-function on the other side of the edge instead of
/// charging the callee alone.  Also publishes the rollup totals to the
/// postmortem writer so crash reports carry the last known ledger state.
void attributeLedger(obs::Ledger &Led, const Program &Prog,
                     const SparseGraph *Graph,
                     const CallGraphInfo *CG = nullptr);

/// Reads a finished run's budget: sets \p Stop and \p Steps and writes
/// the budget.* gauges and the budget.stops.<reason> counter
/// (docs/OBSERVABILITY.md).  Called at the end of both analyzer facades,
/// after everything that charges \p Bud; does nothing when \p Bud is
/// null.
void recordBudgetEnd(const Budget *Bud, BudgetReason &Stop, uint64_t &Steps);

/// Exports the value.pool.* / state.cow.* gauges (interner occupancy and
/// hit rates, COW detach counts; docs/OBSERVABILITY.md).  Called at the
/// end of every analyzer facade; the underlying pools are process-wide,
/// so the values are cumulative across runs in one process.
void exportValueSharingStats();

} // namespace spa

#endif // SPA_CORE_ANALYZER_H
