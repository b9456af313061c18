//===- BddDepStorage.h - BDD-backed dependency storage -------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stores the ternary dependency relation ⇝ ⊆ C × L̂ × C as one boolean
/// function over bit-encoded (source, target, location) triples, exactly
/// as Section 5 describes: triples sharing a source share BDD prefixes,
/// triples sharing (target, location) share suffixes, which is where the
/// memory reduction over set storage comes from.  The price is slower
/// iteration (restrict + model enumeration per query), matching the
/// paper's observation that BDD set operations are "noticeably slower
/// than usual set operations".
///
//===----------------------------------------------------------------------===//

#ifndef SPA_CORE_BDDDEPSTORAGE_H
#define SPA_CORE_BDDDEPSTORAGE_H

#include "bdd/Bdd.h"
#include "core/DepGraph.h"

namespace spa {

/// DepStorage backend over a from-scratch ROBDD package.
class BddDepStorage : public DepStorage {
public:
  /// \p NumNodes bounds source/target ids; \p NumLocs bounds locations.
  BddDepStorage(uint32_t NumNodes, uint32_t NumLocs);

  bool add(uint32_t Src, LocId L, uint32_t Dst) override;
  void forEachOut(uint32_t Src, EdgeFn F) const override;
  /// Filters the forEachOut walk: models are enumerated by target first,
  /// so the labels cannot be looked up directly.
  void forEachOutOn(uint32_t Src, const std::vector<LocId> &Labels,
                    EdgeFn F) const override;
  uint64_t edgeCount() const override { return Edges; }
  /// Size of the *live* relation: nodes reachable from the root, at the
  /// node-record plus unique-table cost per node.  Dead intermediates and
  /// the transient ITE cache are excluded — they are what a collecting
  /// package (the paper's BuDDy) reclaims, not the representation the
  /// Section 5 comparison is about.
  uint64_t memoryBytes() const override {
    return static_cast<uint64_t>(Mgr.reachableCount(Root)) * 52;
  }

  /// Nodes in the underlying BDD (for the ablation report).
  size_t bddNodeCount() const { return Mgr.nodeCount(); }

private:
  static uint32_t bitsFor(uint32_t N);

  uint32_t SrcBits, DstBits, LocBits;
  mutable BddManager Mgr;
  BddRef Root;
  uint64_t Edges = 0;
  /// Source-cofactor memo: the fixpoint engine queries the same source
  /// repeatedly; the cofactors are shared sub-BDDs, so this costs a few
  /// words per queried source (invalidated on add).
  mutable std::vector<BddRef> CofactorCache;
};

} // namespace spa

#endif // SPA_CORE_BDDDEPSTORAGE_H
