//===- DenseAnalysis.h - Dense fixpoint engines (Vanilla / Base) --------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two dense analyzers of the evaluation:
///
///  * Vanilla — the textbook global engine: each point's abstract state is
///    the whole L̂ → V̂ map, propagated along supergraph control flow
///    (Interval_vanilla / Octagon_vanilla in Tables 2 and 3);
///  * Base — Vanilla plus access-based localization [Oh, Brutschy, Yi,
///    VMCAI 2011]: a call passes the callee only the part of the state the
///    callee may access; the rest bypasses to the return site
///    (Interval_base / Octagon_base).
///
/// Both compute the fixpoint of F̂(X̂) = λc. f̂_c(⊔_{c'↪c} X̂(c')) with a
/// priority worklist, widening at loop heads and recursive entries.  The
/// loop itself is the domain-independent dense step of core/Fixpoint.h;
/// runDenseAnalysis instantiates it with the interval domain.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_CORE_DENSEANALYSIS_H
#define SPA_CORE_DENSEANALYSIS_H

#include "core/DefUse.h"
#include "core/Semantics.h"
#include "domains/AbsState.h"
#include "ir/CallGraphInfo.h"
#include "ir/Program.h"
#include "obs/Ledger.h"
#include "support/Budget.h"

#include <cstdint>
#include <vector>

namespace spa {

/// Options of the dense step.  Sem and DegradeTo configure the interval
/// domain; the octagon domain ignores them.
struct DenseOptions {
  SemanticsOptions Sem;
  /// Enable access-based localization (the Base analyzer).  Requires
  /// DefUseInfo for the per-function access sets.
  bool Localize = false;
  /// Decreasing (narrowing) iterations after stabilization (interval
  /// domain only).
  unsigned NarrowingPasses = 0;
  /// Number of changing visits of a widening point before the widening
  /// operator kicks in (plain joins until then).  Delayed widening is the
  /// standard precision lever; termination only needs *some* finite delay.
  unsigned WideningDelay = 4;
  /// Cooperative resource budget, charged once per worklist visit; on
  /// exhaustion the engine stops and *degrades soundly* (see DegradeTo).
  /// Its deadline is the only wall-clock limit.  Null = no budget, zero
  /// overhead.
  Budget *Bud = nullptr;
  /// Sound fallback state for degradation: every point forward-reachable
  /// from a pending worklist entry joins this state (normally the
  /// flow-insensitive pre-analysis invariant T̂pre, which Section 3.2
  /// proves over-approximates every reachable memory).  Null = degrade to
  /// the all-⊤ state.
  const AbsState *DegradeTo = nullptr;
  /// Per-point cost ledger (rows indexed by point id); null = no
  /// recording.  See obs/Ledger.h for the determinism contract.
  obs::Ledger *Led = nullptr;
};

/// What the dense step computes, for any domain's state type.
template <typename StateT> struct DenseFixResult {
  /// Post-state per point: X̂(c) = f̂_c(join of predecessors).
  std::vector<StateT> Post;
  /// The budget tripped; every point whose value might still have risen
  /// (pending entries and everything reachable from them) was degraded
  /// by the domain, so Post stays an over-approximation.
  bool Degraded = false;
  uint64_t Visits = 0;       ///< Worklist pops.
  uint64_t StateEntries = 0; ///< Total bound entries over all points.
  double Seconds = 0;
};

struct DenseResult : DenseFixResult<AbsState> {
  /// Input state of \p P: the join of its supergraph predecessors'
  /// post-states (what f̂_P consumed at the fixpoint).
  AbsState inputOf(const Program &Prog, const CallGraphInfo &CG,
                   PointId P) const;
};

/// Runs a dense interval analysis.  \p DU may be null unless
/// Opts.Localize is set.
DenseResult runDenseAnalysis(const Program &Prog, const CallGraphInfo &CG,
                             const DefUseInfo *DU, const DenseOptions &Opts);

} // namespace spa

#endif // SPA_CORE_DENSEANALYSIS_H
