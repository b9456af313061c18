//===- SparseAnalysis.h - Sparse fixpoint engine -------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sparse abstract semantic function F̂_s of Section 2.7: values
/// propagate along data-dependency edges instead of control flow.  Each
/// graph node keeps
///
///  * an input buffer over its use set Û(c), fed by incoming dependency
///    edges (the ⊔ over c_d ⇝ c of X̂(c_d)|l), and
///  * an output partial state over its definition set D̂(c).
///
/// A node's transfer re-runs f̂_c on the input buffer; spurious
/// definitions (D̂ − D) pass their input value through, which is exactly
/// why Definition 5 requires D̂ − D ⊆ Û.  Output publishing is a weak
/// join, so a passthrough is re-published only when its input changed
/// (it was delivered since the node's last visit) or when the transfer
/// wrote the location at the last visit and no longer does; every other
/// re-publish would be a no-op (the exactness argument is in
/// core/Fixpoint.h, "Pending locations").  Widening applies where a
/// dependency edge closes a cycle (loop-head phis and retreating edges),
/// mirroring the dense engine's widening points.  The loop is the
/// domain-independent sparse step of core/Fixpoint.h; runSparseAnalysis
/// instantiates it with the interval domain.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_CORE_SPARSEANALYSIS_H
#define SPA_CORE_SPARSEANALYSIS_H

#include "core/DepGraph.h"
#include "core/Semantics.h"
#include "domains/AbsState.h"
#include "obs/Ledger.h"
#include "support/Budget.h"

#include <cstdint>
#include <vector>

namespace spa {

/// Options of the sparse step.  Sem and DegradeTo configure the interval
/// domain; the octagon domain ignores them.
struct SparseOptions {
  SemanticsOptions Sem;
  /// Changing arrivals on a cycle-closing dependency edge before widening
  /// applies (mirrors DenseOptions::WideningDelay).
  unsigned WideningDelay = 4;
  /// Worker lanes for the partitioned fixpoint (docs/PARALLELISM.md).
  /// The engine splits the graph into connected components of the
  /// cross-procedure dependency relation; components are fully
  /// independent subsystems, so running them on per-shard worklists is
  /// bit-identical to the sequential schedule.  1 = the sequential
  /// single-worklist engine; a single-component graph falls back to it
  /// regardless of Jobs.
  unsigned Jobs = 1;
  /// Cooperative resource budget shared by all shards, charged once per
  /// node visit.  On exhaustion every shard stops within one visit and
  /// the result degrades soundly (see DegradeTo).  Null = no budget.
  Budget *Bud = nullptr;
  /// Sound degradation fallback: nodes forward-reachable from pending
  /// worklist entries join this state restricted to their def/use sets.
  /// It also bounds the widened block sizes of the interval domain.
  /// Every sparse interval run in the tree sets it to T̂pre; null means
  /// no pre-analysis is at hand (all-⊤ fallback, unbounded widening).
  const AbsState *DegradeTo = nullptr;
  /// Per-node cost ledger (docs/OBSERVABILITY.md "Ledger").  The engine
  /// resizes it to the node count and fills count rows deterministically
  /// (shards own disjoint node ids).  Null = no ledger recording.
  obs::Ledger *Led = nullptr;
  /// Optional restriction of the fixpoint to a subset of graph nodes
  /// (ascending node ids).  The set must be closed under dependency
  /// edges — i.e. a union of whole dependency components — because the
  /// engine still delivers along every outgoing edge of a visited node.
  /// Within the restricted set the computed In/Out buffers are
  /// bit-identical to a full run (each component is a closed fixpoint
  /// subsystem; see the component invariant in core/Fixpoint.h); nodes
  /// outside the set keep bottom buffers.  The incremental server
  /// (docs/SERVER.md) uses this to re-solve only invalidated partitions.
  /// Null = all nodes.
  const std::vector<uint32_t> *RestrictNodes = nullptr;
};

/// What the sparse step computes, for any domain's state type.
template <typename StateT> struct SparseFixResult {
  /// Input buffer per graph node (partial state over Û).
  std::vector<StateT> In;
  /// Output partial state per graph node (over D̂).
  std::vector<StateT> Out;
  /// The budget tripped; the affected nodes were degraded by the domain
  /// on their def/use sets, so In/Out remain over-approximations.
  bool Degraded = false;
  uint64_t Visits = 0;
  uint64_t StateEntries = 0; ///< Total entries across In and Out.
  double Seconds = 0;
  /// Nodes the sound degradation widened to the fallback state (sorted
  /// ascending; empty unless Degraded).  Alarm provenance flags slice
  /// nodes that appear here.
  std::vector<uint32_t> DegradedNodeIds;
};

struct SparseResult : SparseFixResult<AbsState> {
  /// Output value of location \p L at point \p P (bottom if P does not
  /// define L).  Lemma 2 equates this with the dense result on D̂(c).
  const Value &outValue(PointId P, LocId L) const {
    return Out[P.value()].get(L);
  }
};

/// Runs the sparse interval analysis over \p Graph.
SparseResult runSparseAnalysis(const Program &Prog, const CallGraphInfo &CG,
                               const SparseGraph &Graph,
                               const SparseOptions &Opts);

} // namespace spa

#endif // SPA_CORE_SPARSEANALYSIS_H
