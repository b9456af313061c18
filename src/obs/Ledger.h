//===- Ledger.h - Per-control-point cost ledger ----------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixpoint cost ledger: one PointCost row per control point / graph
/// node, filled by the dense, sparse, and octagon engines while they
/// run, then aggregated up to procedure and dependency-partition level
/// and exported as JSON (spa-analyze --ledger-out) with a top-K hotspot
/// table in --stats.
///
/// Determinism contract (pinned by tests/parallel_determinism_test):
/// every *count* field is bit-identical across --jobs 1/2/4/8.  The
/// partitioned sparse fixpoint gives this for free — shards own disjoint
/// node sets, so rows are written by exactly one lane and the counts do
/// not depend on lane interleaving.  TimeMicros is the one sampled
/// wall-clock field and is explicitly exempt.
///
/// Layering: obs sits below lang/ir/core, so the ledger knows nothing
/// about Program — rows are indexed by dense uint32 node ids and human
/// labels / attribution arrays are injected by the caller (the analyzer
/// facades in src/core and src/oct).
///
//===----------------------------------------------------------------------===//

#ifndef SPA_OBS_LEDGER_H
#define SPA_OBS_LEDGER_H

#include "obs/Metrics.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace spa {
namespace obs {

/// True when the build compiles instrumentation in.  Engine recording
/// sites guard with `if constexpr (LedgerEnabled)` so -DSPA_OBS=OFF
/// removes the ledger bookkeeping entirely, same as the SPA_OBS_*
/// macros.
constexpr bool LedgerEnabled = SPA_OBS_ENABLED != 0;

/// Cost of one control point / dependency-graph node across the whole
/// fixpoint run.  All fields except TimeMicros are deterministic counts.
struct PointCost {
  uint32_t Visits = 0;        ///< Times the node was popped and transferred.
  uint32_t Widenings = 0;     ///< Widening applications at this merge point.
  uint32_t Narrowings = 0;    ///< Narrowing-pass refinements.
  uint32_t Joins = 0;         ///< Plain lattice joins at this merge point.
  uint32_t NoChangeSkips = 0; ///< Arrivals absorbed by the no-change fast path.
  uint32_t Deliveries = 0;    ///< Sparse-edge values delivered into the node.
  /// Octagon closures executed while visiting this node (full sweeps and
  /// sparse incremental drains both count one; see oct_detail ticks).
  /// Zero for the interval engines.
  uint32_t Closures = 0;
  uint64_t Growth = 0;        ///< Abstract-value growth units (see engine docs).
  uint64_t TimeMicros = 0;    ///< Sampled wall time (NOT deterministic).

  bool allZero() const {
    return Visits == 0 && Widenings == 0 && Narrowings == 0 && Joins == 0 &&
           NoChangeSkips == 0 && Deliveries == 0 && Closures == 0 &&
           Growth == 0 && TimeMicros == 0;
  }

  void addFrom(const PointCost &O) {
    Visits += O.Visits;
    Widenings += O.Widenings;
    Narrowings += O.Narrowings;
    Joins += O.Joins;
    NoChangeSkips += O.NoChangeSkips;
    Deliveries += O.Deliveries;
    Closures += O.Closures;
    Growth += O.Growth;
    TimeMicros += O.TimeMicros;
  }

  /// Deterministic hotspot score: pure function of the count fields
  /// (time is excluded so rankings agree across machines and --jobs).
  /// Widenings weigh heaviest — each one is a lattice extrapolation that
  /// usually triggers a downstream re-propagation wave.  Closures are
  /// deliberately NOT part of the score: they measure domain-internal
  /// cost, not fixpoint work.
  uint64_t score() const {
    return static_cast<uint64_t>(Visits) + Joins + NoChangeSkips + Deliveries +
           Narrowings + 4 * static_cast<uint64_t>(Widenings) + Growth;
  }
};

/// One aggregated row (per function or per dependency partition).
struct LedgerGroup {
  uint32_t Id = 0;    ///< FuncId or component number.
  std::string Label;  ///< Function name; empty for partitions.
  uint32_t Nodes = 0; ///< Member nodes with any recorded cost.
  PointCost Cost;
};

/// A ranked hotspot row.
struct LedgerHotspot {
  uint32_t Node = 0;
  std::string Label; ///< Caller-provided node label.
  PointCost Cost;
};

/// The per-run ledger.  Engines call resize() once and then mutate
/// row(N) freely; the facade attributes rows to functions/partitions
/// after the run and exports.  Not internally synchronized: correctness
/// relies on the engines' disjoint-write discipline (each node id is
/// owned by exactly one shard).
class Ledger {
public:
  /// Labels a node id for human output (e.g. "p12 main: x = y + 1").
  using LabelFn = std::function<std::string(uint32_t)>;

  /// Ensures rows [0, N) exist.  Idempotent; keeps existing rows.
  void resize(uint32_t N) {
    if (N > Rows.size())
      Rows.resize(N);
  }

  uint32_t numRows() const { return static_cast<uint32_t>(Rows.size()); }

  PointCost &row(uint32_t N) { return Rows[N]; }
  const PointCost &row(uint32_t N) const { return Rows[N]; }

  /// Attribution: node -> owning function and dependency partition, plus
  /// function names.  Filled by the facade post-run; any vector may be
  /// shorter than numRows() (missing entries attribute to group 0 /
  /// "<unknown>").
  ///
  /// \p CoFuncOfNode marks inter-procedural split nodes: where
  /// CoFuncOfNode[N] differs from FuncOfNode[N], node N's cost is
  /// charged half to each function (integer halves, remainder to the
  /// primary, so per-function totals conserve every count exactly and
  /// stay deterministic).  The facade uses this for phi nodes on
  /// call-edge points — an entry phi joins values the *callers* send, a
  /// return phi joins what the *callees* return, so charging either
  /// end alone over-charges callees in the per-function hotspot table.
  /// Empty or equal entries mean unsplit.
  void attribute(std::vector<uint32_t> FuncOfNode,
                 std::vector<uint32_t> CompOfNode,
                 std::vector<std::string> FuncNames,
                 std::vector<uint32_t> CoFuncOfNode = {});

  /// Sum over all rows (deterministic field-wise).
  PointCost totals() const;

  /// Aggregates in ascending group id, skipping all-zero groups.
  std::vector<LedgerGroup> byFunction() const;
  std::vector<LedgerGroup> byComponent() const;

  /// Top-K rows by PointCost::score(), ties broken by ascending node id
  /// (fully deterministic).  All-zero rows never rank.
  std::vector<LedgerHotspot> hotspots(uint32_t K,
                                      const LabelFn &Label = nullptr) const;

  /// Ledger JSON document ("spa-ledger-v1"): totals, per-function and
  /// per-partition aggregates, top-K hotspots, and (when non-empty) a
  /// caller-rendered `provenance` array of alarm slices.
  std::string toJson(uint32_t HotspotK, const LabelFn &Label = nullptr,
                     const std::string &ProvenanceJsonArray = "") const;

  /// Human table for --stats: header + one line per hotspot.  Returns ""
  /// when the ledger recorded nothing.
  std::string hotspotText(uint32_t K, const LabelFn &Label = nullptr) const;

private:
  std::vector<PointCost> Rows;
  std::vector<uint32_t> FuncOf, CompOf, CoFuncOf;
  std::vector<std::string> Funcs;

  std::vector<LedgerGroup> aggregate(const std::vector<uint32_t> &GroupOf,
                                     bool WithNames) const;
};

} // namespace obs
} // namespace spa

#endif // SPA_OBS_LEDGER_H
