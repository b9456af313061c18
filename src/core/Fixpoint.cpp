//===- Fixpoint.cpp - Non-template parts of the fixpoint engine ----------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Fixpoint.h"

#include <numeric>

using namespace spa;

std::vector<std::vector<uint32_t>>
spa::partitionNodes(const Program &Prog, const SparseGraph &Graph,
                    unsigned Jobs, const std::vector<uint32_t> *Restrict) {
  size_t N = Graph.numNodes();
  auto AllNodes = [&] {
    std::vector<std::vector<uint32_t>> One(1);
    if (Restrict) {
      One[0] = *Restrict;
    } else {
      One[0].resize(N);
      std::iota(One[0].begin(), One[0].end(), 0);
    }
    return One;
  };
  if (Jobs <= 1 || Prog.numFuncs() <= 1)
    return AllNodes();

  // Components of the function graph induced by dependency edges (the
  // same computation the ledger attributes partition rows by).
  DepComponents DC = computeDepComponents(Prog, Graph);
  size_t NumComps = DC.NumComps;
  SPA_OBS_GAUGE_SET("par.fix.partitions", NumComps);
  if (NumComps <= 1)
    return AllNodes();
  const std::vector<uint32_t> &CompOfNode = DC.CompOfNode;
  std::vector<bool> InSet;
  if (Restrict) {
    InSet.assign(N, false);
    for (uint32_t Node : *Restrict)
      InSet[Node] = true;
  }
  auto Included = [&](uint32_t Node) { return !Restrict || InSet[Node]; };
  std::vector<uint32_t> CompSize(NumComps, 0);
  for (uint32_t Node = 0; Node < N; ++Node)
    if (Included(Node))
      ++CompSize[CompOfNode[Node]];

  // Greedy balance: biggest components first onto the least-loaded
  // shard.  Deterministic (ties by id / shard index), though any
  // assignment yields identical analysis results.
  size_t NumShards = std::min<size_t>(Jobs, NumComps);
  std::vector<uint32_t> Order(NumComps);
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return CompSize[A] > CompSize[B];
  });
  std::vector<size_t> Load(NumShards, 0);
  std::vector<uint32_t> ShardOfComp(NumComps);
  for (uint32_t C : Order) {
    size_t Best = 0;
    for (size_t S = 1; S < NumShards; ++S)
      if (Load[S] < Load[Best])
        Best = S;
    ShardOfComp[C] = static_cast<uint32_t>(Best);
    Load[Best] += CompSize[C];
  }

  std::vector<std::vector<uint32_t>> Shards(NumShards);
  for (size_t S = 0; S < NumShards; ++S)
    Shards[S].reserve(Load[S]);
  for (uint32_t Node = 0; Node < N; ++Node)
    if (Included(Node))
      Shards[ShardOfComp[CompOfNode[Node]]].push_back(Node);
  return Shards;
}

SparseSchedule spa::computeSparseSchedule(const Program &Prog,
                                          const CallGraphInfo &CG,
                                          const SparseGraph &Graph) {
  size_t N = Graph.numNodes();
  std::vector<uint32_t> PointRpo = computeSuperRpo(Prog, CG);
  std::vector<bool> WidenPoint = computeWideningPoints(Prog, CG);
  SparseSchedule S;
  S.Prio.resize(N);
  S.WidenNode.resize(N);
  for (uint32_t I = 0; I < N; ++I) {
    uint32_t Anchor = Graph.anchor(I).value();
    uint32_t R2 = 2 * PointRpo[Anchor] + 1;
    S.Prio[I] = Graph.isPhi(I) ? R2 - 1 : R2;
    S.WidenNode[I] = WidenPoint[Anchor];
  }
  return S;
}

std::vector<std::vector<LocId>> spa::accessSets(const Program &Prog,
                                                const DefUseInfo &DU) {
  std::vector<std::vector<LocId>> Access(Prog.numFuncs());
  for (uint32_t F = 0; F < Prog.numFuncs(); ++F) {
    Access[F] = DU.AccessDefs[F];
    Access[F].insert(Access[F].end(), DU.AccessUses[F].begin(),
                     DU.AccessUses[F].end());
    std::sort(Access[F].begin(), Access[F].end());
    Access[F].erase(std::unique(Access[F].begin(), Access[F].end()),
                    Access[F].end());
  }
  return Access;
}

SlotLayout spa::layoutSlots(const SparseGraph &Graph) {
  uint32_t N = static_cast<uint32_t>(Graph.numNodes());
  uint32_t NP = Graph.NumPoints;
  SlotLayout S;
  SlotSide &In = S.In, &Out = S.Out;
  In.Begin.assign(N + 1, 0);
  Out.Begin.resize(N + 1);
  // One walk lays out the out-slots and counts each point's in-edges,
  // an upper bound on its in-slots; a phi has one slot per side.
  for (uint32_t Src = 0; Src < N; ++Src) {
    Out.Begin[Src] = static_cast<uint32_t>(Out.Keys.size());
    bool SrcIsPhi = Graph.isPhi(Src);
    if (SrcIsPhi)
      Out.Keys.push_back(Graph.phi(Src).L);
    Graph.Edges->forEachOut(Src, [&](LocId L, uint32_t Dst) {
      if (!SrcIsPhi)
        Out.Keys.push_back(L);
      if (Dst < NP)
        ++In.Begin[Dst + 1];
    });
    auto B = Out.Keys.begin() + Out.Begin[Src];
    std::sort(B, Out.Keys.end());
    Out.Keys.erase(std::unique(B, Out.Keys.end()), Out.Keys.end());
  }
  Out.Begin[N] = static_cast<uint32_t>(Out.Keys.size());
  for (uint32_t Node = NP; Node < N; ++Node)
    In.Begin[Node + 1] = 1;
  for (uint32_t Node = 0; Node < N; ++Node)
    In.Begin[Node + 1] += In.Begin[Node];

  // A second walk fills the points' in-edge labels; each point's range
  // is then sorted, deduplicated and packed down.
  In.Keys.resize(In.Begin[N]);
  std::vector<uint32_t> Fill(In.Begin.begin(), In.Begin.end() - 1);
  for (uint32_t Node = NP; Node < N; ++Node)
    In.Keys[Fill[Node]++] = Graph.phi(Node).L;
  for (uint32_t Src = 0; Src < N; ++Src)
    Graph.Edges->forEachOut(Src, [&](LocId L, uint32_t Dst) {
      if (Dst < NP)
        In.Keys[Fill[Dst]++] = L;
    });
  uint32_t Packed = 0;
  for (uint32_t Node = 0; Node < N; ++Node) {
    auto B = In.Keys.begin() + In.Begin[Node];
    auto E = In.Keys.begin() + In.Begin[Node + 1];
    std::sort(B, E);
    E = std::unique(B, E);
    In.Begin[Node] = Packed;
    Packed = static_cast<uint32_t>(
        std::move(B, E, In.Keys.begin() + Packed) - In.Keys.begin());
  }
  In.Begin[N] = Packed;
  In.Keys.resize(Packed);
  In.Keys.shrink_to_fit();
  Out.Keys.shrink_to_fit();
  return S;
}
