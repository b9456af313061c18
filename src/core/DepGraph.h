//===- DepGraph.h - Data-dependency graph --------------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data-dependency relation ⇝ ⊆ C × L̂ × C (Definition 4) as a graph,
/// plus the storage abstraction behind it.  Section 5 of the paper stores
/// this relation in BDDs because set-based storage exhausts memory on
/// large programs; DepStorage has both backends so the trade-off can be
/// measured (bench/ablation_bdd).
///
/// Graph nodes are program points plus SSA phi pseudo-nodes: a phi node
/// (j, l) joins the values of l arriving at join point j and passes the
/// result through, which is what keeps the number of dependency edges
/// near-linear (Section 5: "SSA ... reduces the size of def-use chains").
/// After the bypass contraction the graph is dense: phis left with no
/// edge are dropped and the survivors renumbered in order.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_CORE_DEPGRAPH_H
#define SPA_CORE_DEPGRAPH_H

#include "ir/Program.h"
#include "support/Ids.h"

#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace spa {

/// A non-owning reference to an edge callback F(LocId L, uint32_t Node).
/// The edge walks take one instead of a std::function, so a walk
/// allocates nothing (the fixpoint walks once per visit); the callable
/// must outlive the call.
class EdgeFn {
public:
  template <typename F>
    requires(!std::same_as<std::remove_cvref_t<F>, EdgeFn> &&
             std::invocable<F &, LocId, uint32_t>)
  EdgeFn(F &&Fn)
      : Obj(const_cast<void *>(static_cast<const void *>(&Fn))),
        Call([](void *O, LocId L, uint32_t Node) {
          (*static_cast<std::remove_reference_t<F> *>(O))(L, Node);
        }) {}

  void operator()(LocId L, uint32_t Node) const { Call(Obj, L, Node); }

private:
  void *Obj;
  void (*Call)(void *, LocId, uint32_t);
};

/// Storage behind the ternary dependency relation.  Node ids are dense
/// indices (program points first, then phi nodes).
class DepStorage {
public:
  virtual ~DepStorage() = default;

  /// Inserts edge (Src, L, Dst); returns true if it was new.
  virtual bool add(uint32_t Src, LocId L, uint32_t Dst) = 0;

  /// Invokes \p F(L, Dst) for every out-edge of \p Src.
  virtual void forEachOut(uint32_t Src, EdgeFn F) const = 0;

  /// Invokes \p F(L, Dst) for every out-edge of \p Src labeled with a
  /// location of \p Labels (ascending, duplicate-free): the sparse
  /// fixpoint's delivery walk, which visits only the labels whose value
  /// changed.
  virtual void forEachOutOn(uint32_t Src, const std::vector<LocId> &Labels,
                            EdgeFn F) const = 0;

  virtual uint64_t edgeCount() const = 0;

  /// Estimated resident bytes of the representation (what Table 2's
  /// memory comparison for dependency storage is about).
  virtual uint64_t memoryBytes() const = 0;
};

/// Plain adjacency-vector storage: fast iteration, memory proportional to
/// the edge count.
class SetDepStorage : public DepStorage {
public:
  explicit SetDepStorage(uint32_t NumNodes) : Out(NumNodes) {}

  bool add(uint32_t Src, LocId L, uint32_t Dst) override;
  void forEachOut(uint32_t Src, EdgeFn F) const override;
  /// One forward lower_bound per label into the sorted (L, Dst) list.
  void forEachOutOn(uint32_t Src, const std::vector<LocId> &Labels,
                    EdgeFn F) const override;
  uint64_t edgeCount() const override { return Edges; }
  uint64_t memoryBytes() const override;

private:
  struct Edge {
    LocId L;
    uint32_t Dst;
    friend bool operator<(const Edge &A, const Edge &B) {
      if (A.L != B.L)
        return A.L < B.L;
      return A.Dst < B.Dst;
    }
    friend bool operator==(const Edge &A, const Edge &B) {
      return A.L == B.L && A.Dst == B.Dst;
    }
  };
  std::vector<std::vector<Edge>> Out; // Sorted per node.
  uint64_t Edges = 0;
};

/// An SSA phi pseudo-node: joins location \p L at join point \p At.
struct PhiNode {
  PointId At;
  LocId L;
};

/// The sparse analysis graph: nodes, their def/use sets, and the labeled
/// dependency edges.
struct SparseGraph {
  uint32_t NumPoints = 0;
  std::vector<PhiNode> Phis; ///< Node id = NumPoints + phi index.
  std::unique_ptr<DepStorage> Edges;

  /// Per-point defs (the partial state a point's output holds) and uses
  /// (the partial state its input buffer assembles): the DefUseInfo node
  /// sets, indexed by point id.  A phi node defs and uses exactly its
  /// location, so it carries no vectors; defs()/uses() cover every node.
  std::vector<std::vector<LocId>> NodeDefs, NodeUses;

  // Construction statistics (the Dep column of Tables 2 and 3).
  // BuildSeconds is the sum of four consecutive laps: SSA/RD per function
  // plus the merge, interprocedural linking (plus the edge sort when
  // bypass is off), the bypass contraction, and filling the DepStorage.
  double BuildSeconds = 0;
  double SsaSeconds = 0, LinkSeconds = 0, BypassSeconds = 0,
         StorageSeconds = 0;
  uint64_t EdgesBeforeBypass = 0;
  uint64_t BypassRemoved = 0;
  /// Phis the contraction left with no edge, dropped before numbering
  /// (0 without bypass).
  uint64_t PhisDropped = 0;

  size_t numNodes() const { return NumPoints + Phis.size(); }
  bool isPhi(uint32_t Node) const { return Node >= NumPoints; }
  const PhiNode &phi(uint32_t Node) const { return Phis[Node - NumPoints]; }

  /// Def and use set of any node: NodeDefs/NodeUses for a point, {L} for
  /// a phi of location L.
  std::span<const LocId> defs(uint32_t Node) const {
    return isPhi(Node) ? std::span<const LocId>(&phi(Node).L, 1)
                       : std::span<const LocId>(NodeDefs[Node]);
  }
  std::span<const LocId> uses(uint32_t Node) const {
    return isPhi(Node) ? std::span<const LocId>(&phi(Node).L, 1)
                       : std::span<const LocId>(NodeUses[Node]);
  }

  /// The program point a node evaluates at (phi nodes: their join point).
  PointId anchor(uint32_t Node) const {
    return isPhi(Node) ? phi(Node).At : PointId(Node);
  }
};

/// Connected components of the function graph induced by dependency
/// edges (functions tied by any interprocedural dependency share a
/// component; every node of a function lands in its function's
/// component).  This is the partition the parallel sparse fixpoint
/// shards by (docs/PARALLELISM.md) and the ledger aggregates by:
/// component ids are dense, numbered by smallest member function, so
/// the numbering is independent of --jobs.
struct DepComponents {
  std::vector<uint32_t> CompOfNode; ///< Graph node -> component id.
  uint32_t NumComps = 0;
};

DepComponents computeDepComponents(const Program &Prog,
                                   const SparseGraph &Graph);

/// Reverse adjacency over a SparseGraph's dependency edges, built by one
/// forward sweep.  DepStorage only enumerates out-edges (the fixpoint
/// never walks backward), but alarm provenance does: forEachIn(Dst)
/// yields every edge Src -L-> Dst in deterministic (ascending Src, then
/// storage) order.
class ReverseDepIndex {
public:
  explicit ReverseDepIndex(const SparseGraph &Graph);

  /// Invokes \p F(L, Src) for every in-edge of \p Dst.
  void forEachIn(uint32_t Dst, EdgeFn F) const;

  uint64_t edgeCount() const { return Edges; }

private:
  struct InEdge {
    LocId L;
    uint32_t Src;
  };
  std::vector<std::vector<InEdge>> In;
  uint64_t Edges = 0;
};

} // namespace spa

#endif // SPA_CORE_DEPGRAPH_H
