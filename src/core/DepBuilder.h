//===- DepBuilder.h - Data-dependency generation -------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builders for the data-dependency graph (Section 5, "Generation of Data
/// Dependencies"):
///
///  * Ssa — per-procedure SSA construction (iterated dominance frontiers
///    + renaming) with D̂/Û as multi-location def/use sets; the default
///    and the paper's choice ("we use SSA generation because it is fast
///    and reduces the size of def-use chains");
///  * ReachingDefs — per-procedure per-location reaching definitions;
///    same dependencies as Ssa but phi-free (more edges), kept for
///    cross-validation and bench/ablation_ssa;
///  * DefUseChains — conventional def-use chains (kills only at
///    always-kill points, Section 2.8): deliberately *loses precision*,
///    reproduced to demonstrate Examples 4 and 5;
///  * WholeProgram — reaching definitions over the whole supergraph with
///    no per-procedure call summaries: the "natural extension" Section 5
///    reports as unscalably spurious (bench/ablation_interproc).
///
/// The per-procedure builders post-process with the bypass optimization:
/// contract a ⇝l b ⇝l c to a ⇝l c when b neither semantically defines
/// nor uses l (entries, exits, call plumbing, single-input phis).
///
//===----------------------------------------------------------------------===//

#ifndef SPA_CORE_DEPBUILDER_H
#define SPA_CORE_DEPBUILDER_H

#include "core/DefUse.h"
#include "core/DepGraph.h"
#include "ir/CallGraphInfo.h"
#include "ir/Program.h"

namespace spa {

enum class DepBuilderKind { Ssa, ReachingDefs, DefUseChains, WholeProgram };

struct DepOptions {
  DepBuilderKind Kind = DepBuilderKind::Ssa;
  /// Apply the bypass contraction until convergence (with an edge-growth
  /// guard: a (node, location) pair is only contracted when rewiring does
  /// not increase the edge count).  A contraction touches the edges of
  /// one location only, so each location contracts on its own flat
  /// arrays, seeded so that the highest node ids (the phis) pop first:
  /// the guarded result depends on that order, which is fixed by the
  /// program alone (DESIGN.md §5).  Off = the graph the checker reads.
  bool Bypass = true;
  /// Store the final relation in a BDD instead of adjacency vectors.
  bool UseBdd = false;
  /// Size of the "location" id space when it is not Program::numLocs()
  /// (the relational analysis passes its pack count; 0 = use numLocs).
  uint32_t NumLocsOverride = 0;
  /// Pool lanes for the per-procedure construction phase and the bypass
  /// contraction.  Functions are independent (intra-procedural SSA /
  /// reaching-defs over read-only def/use sets); per-function edge lists
  /// and phi nodes merge in function order afterwards.  Locations are
  /// independent too: lanes claim them one at a time and the survivors
  /// are gathered in location order.  So the graph — including phi node
  /// numbering — is identical for every Jobs value.
  unsigned Jobs = 1;
  /// Resource budget (docs/ROBUSTNESS.md), charged per function during
  /// construction (inside worker lanes) and per 64 worklist pops in each
  /// bypass lane.  Construction itself always completes — a partial
  /// graph would be unsound — but an exhausted budget stops the bypass
  /// optimization early in every lane (any prefix of contractions is a
  /// valid graph) and makes the downstream fixpoint degrade immediately.
  Budget *Bud = nullptr;
};

/// Builds the dependency graph for \p Prog under the resolved callgraph
/// and def/use approximations.
SparseGraph buildDepGraph(const Program &Prog, const CallGraphInfo &CG,
                          const DefUseInfo &DU, const DepOptions &Opts);

/// Sets phase.depbuild.seconds and its sub-phase gauges
/// phase.depbuild.{ssa,link,bypass,storage}.seconds from \p Graph (all 0
/// when there is none).
void exportDepBuildGauges(const SparseGraph *Graph);

} // namespace spa

#endif // SPA_CORE_DEPBUILDER_H
