//===- DepSnapshot.h - Dependency-graph serialization ----------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encoding of a SparseGraph to/from the opaque `depgraph` section of a
/// v2 spa-ir snapshot (ir/Snapshot.h).  The IR library cannot name graph
/// types — they live up here in core — so the snapshot treats the section
/// as a checksummed byte range and this pair does the real work:
///
///   encodeDepGraph(Graph, Opts)  -> bytes to pass to saveSnapshot()
///   decodeDepGraph(Prog, bytes)  -> SparseGraph + the DepOptions it was
///                                   built under, or a one-line error
///
/// The payload records the dependency-generation options (builder kind,
/// bypass, BDD storage) it was produced with; a consumer must only adopt
/// the embedded graph when those match its own configuration — a graph
/// built with bypass contraction is *not* the graph a bypass-less run
/// would compute.  decodeDepGraph always materializes adjacency-vector
/// storage (SetDepStorage): the edge *relation* is what the fixpoint
/// consumes, and it is representation-independent.
///
/// The payload carries its own format version; a payload of any other
/// version (such as version 1, which stored a def/use list per phi and
/// the phis the contraction leaves edgeless) fails to decode, so
/// depSnapshotUsable refuses it and the consumer rebuilds the graph.
///
/// The decoder follows the snapshot loader's discipline: every count and
/// id is bounds-checked against \p Prog before use, an edge into a phi
/// must carry the phi's location (the sparse fixpoint's slot layout
/// relies on it), trailing bytes are an error, and malformed input yields
/// an error string — never UB.  The
/// section checksum upstream already caught random corruption, so what
/// arrives here is either valid producer output or a crafted payload.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_CORE_DEPSNAPSHOT_H
#define SPA_CORE_DEPSNAPSHOT_H

#include "core/DepBuilder.h"

#include <cstdint>
#include <string>
#include <vector>

namespace spa {

/// Serializes \p Graph (with the generation options that produced it) to
/// the depgraph-section payload.  Deterministic: SetDepStorage keeps
/// per-node edge lists sorted and forEachOut walks them in order, so the
/// same graph always yields the same bytes.
std::vector<uint8_t> encodeDepGraph(const SparseGraph &Graph,
                                    const DepOptions &Opts);

/// Result of decoding a depgraph payload against the Program it rides
/// with: the reconstructed graph plus the recorded generation options.
struct DepSnapshotResult {
  SparseGraph Graph;
  DepBuilderKind Kind = DepBuilderKind::Ssa;
  bool Bypass = true;
  bool UseBdd = false;
  std::string Error; ///< Non-empty on failure (Graph is then unusable).
  bool ok() const { return Error.empty(); }
};

DepSnapshotResult decodeDepGraph(const Program &Prog,
                                 const std::vector<uint8_t> &Payload);

/// True when the recorded generation options allow a consumer configured
/// with \p Opts to adopt the decoded graph (NumLocsOverride users encode
/// their own graphs and never go through snapshots, so only the three
/// semantic knobs matter).
inline bool depSnapshotUsable(const DepSnapshotResult &Dec,
                              const DepOptions &Opts) {
  return Dec.ok() && Dec.Kind == Opts.Kind && Dec.Bypass == Opts.Bypass &&
         Dec.UseBdd == Opts.UseBdd && Opts.NumLocsOverride == 0;
}

} // namespace spa

#endif // SPA_CORE_DEPSNAPSHOT_H
