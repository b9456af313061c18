//===- DepGraph.cpp - Data-dependency graph storage ----------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/DepGraph.h"

#include <algorithm>

using namespace spa;

bool SetDepStorage::add(uint32_t Src, LocId L, uint32_t Dst) {
  auto &V = Out[Src];
  Edge E{L, Dst};
  auto It = std::lower_bound(V.begin(), V.end(), E);
  if (It != V.end() && *It == E)
    return false;
  V.insert(It, E);
  ++Edges;
  return true;
}

void SetDepStorage::forEachOut(uint32_t Src, EdgeFn F) const {
  for (const Edge &E : Out[Src])
    F(E.L, E.Dst);
}

void SetDepStorage::forEachOutOn(uint32_t Src,
                                 const std::vector<LocId> &Labels,
                                 EdgeFn F) const {
  const std::vector<Edge> &V = Out[Src];
  auto It = V.begin();
  for (LocId L : Labels) {
    It = std::lower_bound(It, V.end(), Edge{L, 0});
    for (; It != V.end() && It->L == L; ++It)
      F(L, It->Dst);
  }
}

uint64_t SetDepStorage::memoryBytes() const {
  uint64_t Bytes = sizeof(*this) + Out.capacity() * sizeof(Out[0]);
  for (const auto &V : Out)
    Bytes += V.capacity() * sizeof(Edge);
  return Bytes;
}

namespace {

/// Union-find over function ids (path halving + union by root id, so
/// component representatives are deterministic: smallest member wins).
class UnionFind {
public:
  explicit UnionFind(size_t N) : Parent(N) {
    for (uint32_t I = 0; I < N; ++I)
      Parent[I] = I;
  }

  uint32_t find(uint32_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }

  void unite(uint32_t A, uint32_t B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return;
    if (B < A)
      std::swap(A, B);
    Parent[B] = A;
  }

private:
  std::vector<uint32_t> Parent;
};

} // namespace

DepComponents spa::computeDepComponents(const Program &Prog,
                                        const SparseGraph &Graph) {
  size_t N = Graph.numNodes();
  auto FuncOf = [&](uint32_t Node) {
    return Prog.point(Graph.anchor(Node)).Func.value();
  };
  UnionFind UF(Prog.numFuncs());
  for (uint32_t Src = 0; Src < N; ++Src) {
    uint32_t SF = FuncOf(Src);
    Graph.Edges->forEachOut(
        Src, [&](LocId, uint32_t Dst) { UF.unite(SF, FuncOf(Dst)); });
  }

  // Dense component ids, numbered by smallest member function — the same
  // numbering for any job count, so ledger partition rows and the
  // parallel fixpoint shards agree.
  std::vector<uint32_t> CompOfFunc(Prog.numFuncs());
  uint32_t NumComps = 0;
  for (uint32_t F = 0; F < Prog.numFuncs(); ++F)
    if (UF.find(F) == F)
      CompOfFunc[F] = NumComps++;
  for (uint32_t F = 0; F < Prog.numFuncs(); ++F)
    CompOfFunc[F] = CompOfFunc[UF.find(F)];

  DepComponents DC;
  DC.NumComps = NumComps;
  DC.CompOfNode.resize(N);
  for (uint32_t Node = 0; Node < N; ++Node)
    DC.CompOfNode[Node] = CompOfFunc[FuncOf(Node)];
  return DC;
}

ReverseDepIndex::ReverseDepIndex(const SparseGraph &Graph) {
  In.resize(Graph.numNodes());
  for (uint32_t Src = 0; Src < Graph.numNodes(); ++Src)
    Graph.Edges->forEachOut(Src, [&](LocId L, uint32_t Dst) {
      In[Dst].push_back({L, Src});
      ++Edges;
    });
}

void ReverseDepIndex::forEachIn(uint32_t Dst, EdgeFn F) const {
  for (const InEdge &E : In[Dst])
    F(E.L, E.Src);
}
