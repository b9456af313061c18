//===- DepBuilder.cpp - Data-dependency generation -----------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/DepBuilder.h"

#include "core/BddDepStorage.h"
#include "ir/Dominators.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Resource.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <numeric>
#include <tuple>
#include <unordered_map>

using namespace spa;

namespace {

struct RawEdge {
  uint32_t Src;
  LocId L;
  uint32_t Dst;
  friend bool operator<(const RawEdge &A, const RawEdge &B) {
    if (A.Src != B.Src)
      return A.Src < B.Src;
    if (A.L != B.L)
      return A.L < B.L;
    return A.Dst < B.Dst;
  }
  friend bool operator==(const RawEdge &A, const RawEdge &B) {
    return A.Src == B.Src && A.L == B.L && A.Dst == B.Dst;
  }
};

/// Tags phi references inside a function's private edge list before the
/// merge assigns global node ids: PhiLocalBase + (index into
/// FuncOut::Phis).  Point ids stay < 2^31 (they index points), so the
/// high bit is free.
constexpr uint32_t PhiLocalBase = 0x80000000u;

/// One function's construction output.  Per-procedure construction writes
/// only here (plus lane-private scratch), which is what makes the
/// function loop safe to fan out: results merge in function order
/// afterwards, reproducing the sequential phi numbering and edge list
/// exactly (DepOptions::Jobs documentation).
struct FuncOut {
  std::vector<PhiNode> Phis;
  std::vector<RawEdge> Edges;
};

/// Flat per-location renaming stacks, reused across the functions one
/// lane builds (they are empty again after each function's undo-log
/// unwinds).  Hashing here would dominate construction time on
/// summary-heavy programs.
struct SsaScratch {
  std::vector<std::vector<uint32_t>> CurDefStacks;
  std::vector<std::vector<uint32_t>> DefPointsByLoc;
  std::vector<uint32_t> TouchedLocs;

  void ensureLocCapacity(size_t NumIds) {
    if (CurDefStacks.size() < NumIds) {
      CurDefStacks.resize(NumIds);
      DefPointsByLoc.resize(NumIds);
    }
  }
};

/// A location's edge Src -> Dst as one sortable word: (Src, Dst) order.
uint64_t packPair(uint32_t Src, uint32_t Dst) {
  return (static_cast<uint64_t>(Src) << 32) | Dst;
}
uint32_t srcOf(uint64_t Pair) { return static_cast<uint32_t>(Pair >> 32); }
uint32_t dstOf(uint64_t Pair) { return static_cast<uint32_t>(Pair); }

void eraseSorted(std::vector<uint32_t> &V, uint32_t X) {
  auto It = std::lower_bound(V.begin(), V.end(), X);
  if (It != V.end() && *It == X)
    V.erase(It);
}

void insertSorted(std::vector<uint32_t> &V, uint32_t X) {
  auto It = std::lower_bound(V.begin(), V.end(), X);
  if (It == V.end() || *It != X)
    V.insert(It, X);
}

/// One lane's bypass state, reused across the locations it claims and
/// freed when the build returns.  A location's nodes get dense local ids
/// (their rank in Nodes); In/Out hold each local node's sorted local
/// neighbours for the location.
struct BypassScratch {
  static constexpr uint32_t Unmapped = UINT32_MAX;

  explicit BypassScratch(size_t NumNodes) : LocalOf(NumNodes, Unmapped) {}

  std::vector<uint32_t> LocalOf; ///< Graph node -> local id.
  std::vector<uint32_t> Nodes;   ///< Local id -> graph node, ascending.
  std::vector<std::vector<uint32_t>> In, Out;
  std::vector<uint8_t> Pseudo;
  std::vector<uint32_t> Work;
  std::vector<uint32_t> Ins, Outs; ///< The node being contracted.
  uint64_t Pops = 0;               ///< Worklist pops, for budget blocks.
  bool Stopped = false;            ///< The budget ran out.
};

/// Definition or use nodes per location (raw LocId).
using LocNodes = std::unordered_map<uint32_t, std::vector<uint32_t>>;

/// Reaching-definitions dependencies, one location at a time: the
/// bit-vector fixpoint of both reaching-definitions constructions, which
/// differ only in their node numbering (0..\p N-1), iteration \p Order,
/// predecessor walk (\p ForEachPred(P, Fn) calls Fn on each predecessor
/// of P) and kill rule (\p Kills(P, L): whether the definition of L at P
/// kills the incoming ones).  Calls \p Link(Def, L, Use) for every
/// definition of L in \p DefsOf reaching a use of L in \p UsesOf.
template <typename PredFn, typename KillFn, typename LinkFn>
void linkReachingDefs(size_t N, const LocNodes &DefsOf,
                      const LocNodes &UsesOf,
                      const std::vector<uint32_t> &Order,
                      PredFn ForEachPred, KillFn Kills, LinkFn Link) {
  for (const auto &[LRaw, Defs] : DefsOf) {
    LocId L(LRaw);
    auto UseIt = UsesOf.find(LRaw);
    if (UseIt == UsesOf.end())
      continue;

    size_t ND = Defs.size();
    size_t Words = (ND + 63) / 64;
    std::vector<uint64_t> In(N * Words, 0), Out(N * Words, 0);
    std::vector<int32_t> DefIndexAt(N, -1);
    for (size_t I = 0; I < ND; ++I)
      DefIndexAt[Defs[I]] = static_cast<int32_t>(I);

    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (uint32_t P : Order) {
        uint64_t *InP = &In[P * Words];
        ForEachPred(P, [&](uint32_t Pred) {
          const uint64_t *OutPred = &Out[Pred * Words];
          for (size_t W = 0; W < Words; ++W)
            InP[W] |= OutPred[W];
        });
        // Transfer: kill then gen.
        uint64_t *OutP = &Out[P * Words];
        bool Killed = DefIndexAt[P] >= 0 && Kills(P, L);
        for (size_t W = 0; W < Words; ++W) {
          uint64_t NewOut = Killed ? 0 : InP[W];
          if (DefIndexAt[P] >= 0 &&
              static_cast<size_t>(DefIndexAt[P]) / 64 == W)
            NewOut |= 1ULL << (DefIndexAt[P] % 64);
          if (NewOut != OutP[W]) {
            OutP[W] = NewOut;
            Changed = true;
          }
        }
      }
    }

    // A use at node u links to every definition reaching u's input.
    for (uint32_t U : UseIt->second) {
      const uint64_t *InU = &In[U * Words];
      for (size_t I = 0; I < ND; ++I)
        if (InU[I / 64] & (1ULL << (I % 64)))
          Link(Defs[I], L, U);
    }
  }
}

class Builder {
public:
  Builder(const Program &Prog, const CallGraphInfo &CG, const DefUseInfo &DU,
          const DepOptions &Opts)
      : Prog(Prog), CG(CG), DU(DU), Opts(Opts) {}

  SparseGraph run() {
    Timer Clock;
    // Pack-space construction (NumLocsOverride) reinterprets "location"
    // ids; the kill analysis of the def-use-chain mode and the
    // supergraph reaching-defs mode still read per-location program
    // metadata, so they only support the location space.
    assert((Opts.NumLocsOverride == 0 ||
            Opts.Kind == DepBuilderKind::Ssa ||
            Opts.Kind == DepBuilderKind::ReachingDefs) &&
           "pack-space graphs support the Ssa/ReachingDefs builders only");
    Graph.NumPoints = static_cast<uint32_t>(Prog.numPoints());
    Graph.NodeDefs = DU.NodeDefs;
    Graph.NodeUses = DU.NodeUses;
    uint32_t NumLocs = Opts.NumLocsOverride
                           ? Opts.NumLocsOverride
                           : static_cast<uint32_t>(Prog.numLocs());
    // The sub-phases are consecutive laps of the one build clock, and
    // BuildSeconds is their sum.
    double Mark = 0;
    auto Lap = [&] {
      double Now = Clock.seconds();
      double Span = Now - Mark;
      Mark = Now;
      return Span;
    };

    bool PerProcedure = Opts.Kind != DepBuilderKind::WholeProgram;
    if (PerProcedure)
      buildPerProcedure();
    else
      buildWholeProgram();
    Graph.SsaSeconds = Lap();

    if (PerProcedure)
      addInterProcEdges();
    bool Contract = Opts.Bypass && PerProcedure;
    if (!Contract) {
      std::sort(EdgeList.begin(), EdgeList.end());
      EdgeList.erase(std::unique(EdgeList.begin(), EdgeList.end()),
                     EdgeList.end());
      Graph.EdgesBeforeBypass = EdgeList.size();
    }
    Graph.LinkSeconds = Lap();

    if (Contract) {
      SPA_OBS_TRACE("bypass");
      runBypass(NumLocs);
      dropEdgelessPhis();
      Graph.BypassSeconds = Lap();
    }

    uint32_t NumNodes = static_cast<uint32_t>(Graph.numNodes());
    if (Opts.UseBdd)
      Graph.Edges = std::make_unique<BddDepStorage>(NumNodes, NumLocs);
    else
      Graph.Edges = std::make_unique<SetDepStorage>(NumNodes);
    {
      SPA_OBS_TRACE("dep-storage");
      for (const RawEdge &E : EdgeList)
        Graph.Edges->add(E.Src, E.L, E.Dst);
    }

    SPA_OBS_GAUGE_SET("depgraph.nodes", Graph.numNodes());
    SPA_OBS_GAUGE_SET("depgraph.phis", Graph.Phis.size());
    SPA_OBS_GAUGE_SET("depgraph.phis_dropped", Graph.PhisDropped);
    SPA_OBS_GAUGE_SET("depgraph.edges", Graph.Edges->edgeCount());
    SPA_OBS_GAUGE_SET("depgraph.edges_before_bypass",
                      Graph.EdgesBeforeBypass);
    SPA_OBS_GAUGE_SET("depgraph.bypass_removed", Graph.BypassRemoved);
    SPA_OBS_GAUGE_SET("depgraph.storage_bytes",
                      Graph.Edges->memoryBytes());
    if (Opts.UseBdd)
      SPA_OBS_GAUGE_SET(
          "bdd.nodes",
          static_cast<BddDepStorage *>(Graph.Edges.get())->bddNodeCount());

    Graph.StorageSeconds = Lap();
    Graph.BuildSeconds = Graph.SsaSeconds + Graph.LinkSeconds +
                         Graph.BypassSeconds + Graph.StorageSeconds;
    return std::move(Graph);
  }

private:
  void addEdge(uint32_t Src, LocId L, uint32_t Dst) {
    EdgeList.push_back(RawEdge{Src, L, Dst});
  }

  /// Use set of \p P for *local* (intra-procedural) linking.  At a Return
  /// point, every location the callees may define is fed exclusively by
  /// the callee-exit inter-edge — linking it to caller-side definitions
  /// would join stale pre-call values over the callee's results.
  std::vector<LocId> localUses(uint32_t P) const {
    const Command &Cmd = Prog.point(PointId(P)).Cmd;
    if (Cmd.Kind != CmdKind::Return)
      return Graph.NodeUses[P];
    std::vector<LocId> Result;
    for (LocId L : DU.Uses[P]) {
      bool DefinedByCallee = false;
      for (FuncId G : CG.callees(Cmd.Pair)) {
        const auto &AD = DU.AccessDefs[G.value()];
        if (std::binary_search(AD.begin(), AD.end(), L)) {
          DefinedByCallee = true;
          break;
        }
      }
      if (!DefinedByCallee)
        Result.push_back(L);
    }
    return Result;
  }

  /// Runs the per-procedure builder on every function (on Opts.Jobs pool
  /// lanes) and merges the results in function order.
  void buildPerProcedure() {
    size_t NF = Prog.numFuncs();
    bool Ssa = Opts.Kind == DepBuilderKind::Ssa;
    bool Chains = Opts.Kind == DepBuilderKind::DefUseChains;
    std::vector<FuncOut> Outs(NF);
    if (Opts.Jobs > 1) {
      // One span for the whole phase: the tracer's span stack is
      // process-wide, so per-function spans stay off worker lanes.
      SPA_OBS_TRACE(Ssa ? "ssa" : "rd");
      ThreadPool::global().parallelForChunks(
          NF, Opts.Jobs, [&](size_t Lo, size_t Hi) {
            SsaScratch S;
            for (size_t F = Lo; F < Hi; ++F) {
              if (Opts.Bud)
                Opts.Bud->charge();
              if (Ssa)
                buildSsaForFunction(FuncId(F), S, Outs[F]);
              else
                buildRdForFunction(FuncId(F), Chains, Outs[F]);
            }
          });
    } else {
      SsaScratch S;
      for (size_t F = 0; F < NF; ++F) {
        SPA_OBS_TRACE((Ssa ? "ssa:" : "rd:") +
                      Prog.function(FuncId(F)).Name);
        if (Opts.Bud)
          Opts.Bud->charge();
        if (Ssa)
          buildSsaForFunction(FuncId(F), S, Outs[F]);
        else
          buildRdForFunction(FuncId(F), Chains, Outs[F]);
      }
    }
    mergeFunctionResults(Outs);
  }

  //===------------------------------------------------------------------===//
  // SSA-based construction
  //===------------------------------------------------------------------===//

  /// Builds one function's SSA dependencies into \p Out using the
  /// lane-private scratch \p S.  Reads only point-level (never phi-level)
  /// graph data, so concurrent calls on distinct functions are safe.
  void buildSsaForFunction(FuncId F, SsaScratch &S, FuncOut &Out) const {
    const FunctionInfo &Info = Prog.function(F);
    Dominators Dom(Prog, F);
    uint32_t Base = Info.Points.front().value();
    size_t N = Info.Points.size();

    // Definition points per location (local offsets), in flat arrays.
    S.TouchedLocs.clear();
    for (PointId P : Info.Points) {
      for (LocId L : Graph.NodeDefs[P.value()]) {
        S.ensureLocCapacity(L.value() + 1);
        if (S.DefPointsByLoc[L.value()].empty())
          S.TouchedLocs.push_back(L.value());
        S.DefPointsByLoc[L.value()].push_back(P.value() - Base);
      }
    }

    // Phi placement at iterated dominance frontiers.
    // PhiAt[local point] = list of (loc, function-local phi ref).
    std::vector<std::vector<std::pair<LocId, uint32_t>>> PhiAt(N);
    for (uint32_t LRaw : S.TouchedLocs) {
      LocId L(LRaw);
      std::vector<uint32_t> &Defs = S.DefPointsByLoc[LRaw];
      // A location whose only definition is the entry needs no phis: the
      // entry dominates every use.  The interprocedural entry summaries
      // put most locations of call-heavy functions in this class, so
      // this prune is what keeps SSA construction near-linear.  (A single
      // non-entry definition still needs phis: it may reach uses it does
      // not dominate, through joins.)
      if (Defs.size() == 1 && PointId(Base + Defs[0]) == Info.Entry)
        continue;
      std::vector<uint32_t> Work = Defs;
      std::vector<bool> HasPhi(N, false);
      while (!Work.empty()) {
        uint32_t D = Work.back();
        Work.pop_back();
        for (PointId J : Dom.frontier(PointId(Base + D))) {
          uint32_t JL = J.value() - Base;
          if (HasPhi[JL])
            continue;
          HasPhi[JL] = true;
          uint32_t Node =
              PhiLocalBase + static_cast<uint32_t>(Out.Phis.size());
          Out.Phis.push_back(PhiNode{J, L});
          PhiAt[JL].push_back({L, Node});
          Work.push_back(JL); // A phi is itself a definition.
        }
      }
    }

    // Renaming: explicit-stack preorder walk of the dominator tree with
    // flat per-location current-definition stacks and an undo log.
    auto Push = [&](LocId L, uint32_t Node) {
      S.ensureLocCapacity(L.value() + 1);
      S.CurDefStacks[L.value()].push_back(Node);
    };
    auto Top = [&](LocId L) -> uint32_t {
      if (L.value() >= S.CurDefStacks.size() ||
          S.CurDefStacks[L.value()].empty())
        return UINT32_MAX;
      return S.CurDefStacks[L.value()].back();
    };

    struct Frame {
      PointId P;
      size_t NextChild = 0;
      uint32_t Pushes = 0;
    };
    std::vector<Frame> Stack;
    std::vector<LocId> UndoLog;

    auto EnterNode = [&](PointId P) {
      Frame Fr;
      Fr.P = P;
      uint32_t PL = P.value() - Base;
      // Phi definitions precede the point's own command.
      for (auto &[L, PhiNd] : PhiAt[PL]) {
        Push(L, PhiNd);
        UndoLog.push_back(L);
        ++Fr.Pushes;
      }
      // Uses read the incoming values.
      for (LocId L : localUses(P.value())) {
        uint32_t Def = Top(L);
        if (Def != UINT32_MAX)
          Out.Edges.push_back(RawEdge{Def, L, P.value()});
      }
      // Then the point's definitions become current.
      for (LocId L : Graph.NodeDefs[P.value()]) {
        Push(L, P.value());
        UndoLog.push_back(L);
        ++Fr.Pushes;
      }
      // Feed phi operands of CFG successors.
      for (PointId Succ : Prog.succs(P)) {
        for (auto &[L, PhiNd] : PhiAt[Succ.value() - Base]) {
          uint32_t Def = Top(L);
          if (Def != UINT32_MAX)
            Out.Edges.push_back(RawEdge{Def, L, PhiNd});
        }
      }
      Stack.push_back(Fr);
    };

    EnterNode(Info.Entry);
    while (!Stack.empty()) {
      Frame &Fr = Stack.back();
      const auto &Kids = Dom.children(Fr.P);
      if (Fr.NextChild < Kids.size()) {
        EnterNode(Kids[Fr.NextChild++]);
        continue;
      }
      for (uint32_t I = 0; I < Fr.Pushes; ++I) {
        S.CurDefStacks[UndoLog.back().value()].pop_back();
        UndoLog.pop_back();
      }
      Stack.pop_back();
    }

    // Reset the lane's def-point arrays for its next function.
    for (uint32_t LRaw : S.TouchedLocs)
      S.DefPointsByLoc[LRaw].clear();
  }

  //===------------------------------------------------------------------===//
  // Reaching-definitions construction (per procedure)
  //===------------------------------------------------------------------===//

  /// True if the command at \p P kills *every* prior value of \p L along
  /// all executions (the Dalways of Section 2.8).
  bool alwaysKills(PointId P, LocId L) const {
    const Command &Cmd = Prog.point(P).Cmd;
    switch (Cmd.Kind) {
    case CmdKind::Assign:
    case CmdKind::RetStmt:
      return Cmd.Target == L;
    case CmdKind::Return:
      return Cmd.Target.isValid() && Cmd.Target == L;
    case CmdKind::Store: {
      const auto &D = DU.Defs[P.value()];
      return D.size() == 1 && D[0] == L && !Prog.loc(L).isSummary();
    }
    default:
      return false;
    }
  }

  /// Builds one function's reaching-definition dependencies into \p Out.
  /// All mutable state is local, so concurrent calls on distinct
  /// functions are safe.
  void buildRdForFunction(FuncId F, bool DefUseChainMode,
                          FuncOut &Out) const {
    const FunctionInfo &Info = Prog.function(F);
    uint32_t Base = Info.Points.front().value();
    size_t N = Info.Points.size();

    // Gather per-location def and use point lists.
    LocNodes DefsOf, UsesOf;
    for (PointId P : Info.Points) {
      for (LocId L : Graph.NodeDefs[P.value()])
        DefsOf[L.value()].push_back(P.value() - Base);
      for (LocId L : localUses(P.value()))
        UsesOf[L.value()].push_back(P.value() - Base);
    }

    // Local RPO for iteration order.
    Dominators Dom(Prog, F);
    std::vector<uint32_t> Order;
    Order.reserve(N);
    for (PointId P : Dom.rpo())
      Order.push_back(P.value() - Base);

    linkReachingDefs(
        N, DefsOf, UsesOf, Order,
        [&](uint32_t P, auto &&Fn) {
          for (PointId Pred : Prog.preds(PointId(Base + P)))
            Fn(Pred.value() - Base);
        },
        [&](uint32_t P, LocId L) {
          return !DefUseChainMode || alwaysKills(PointId(Base + P), L);
        },
        [&](uint32_t Def, LocId L, uint32_t Use) {
          Out.Edges.push_back(RawEdge{Base + Def, L, Base + Use});
        });
  }

  /// Splices the per-function outputs into the graph in function order:
  /// function F's local phi k becomes global node NumPoints + (phis of
  /// functions before F) + k — exactly the id the sequential interleaved
  /// construction would have assigned — and edge lists concatenate with
  /// phi references remapped accordingly.
  void mergeFunctionResults(const std::vector<FuncOut> &Outs) {
    size_t TotalPhis = 0, TotalEdges = 0;
    for (const FuncOut &O : Outs) {
      TotalPhis += O.Phis.size();
      TotalEdges += O.Edges.size();
    }
    Graph.Phis.reserve(TotalPhis);
    EdgeList.reserve(EdgeList.size() + TotalEdges);
    for (const FuncOut &O : Outs) {
      uint32_t Base =
          Graph.NumPoints + static_cast<uint32_t>(Graph.Phis.size());
      Graph.Phis.insert(Graph.Phis.end(), O.Phis.begin(), O.Phis.end());
      auto Remap = [&](uint32_t N) {
        return N >= PhiLocalBase ? Base + (N - PhiLocalBase) : N;
      };
      for (const RawEdge &E : O.Edges)
        EdgeList.push_back(RawEdge{Remap(E.Src), E.L, Remap(E.Dst)});
    }
  }

  //===------------------------------------------------------------------===//
  // Whole-supergraph construction (ablation)
  //===------------------------------------------------------------------===//

  /// Reaching definitions over the entire supergraph using the semantic
  /// D̂/Û only (no call/entry summaries): Section 5's "natural extension"
  /// whose spurious interprocedural dependencies do not scale.
  void buildWholeProgram() {
    size_t N = Prog.numPoints();
    Graph.NodeDefs = DU.Defs;
    Graph.NodeUses = DU.Uses;

    LocNodes DefsOf, UsesOf;
    for (uint32_t P = 0; P < N; ++P) {
      for (LocId L : DU.Defs[P])
        DefsOf[L.value()].push_back(P);
      for (LocId L : DU.Uses[P])
        UsesOf[L.value()].push_back(P);
    }

    std::vector<uint32_t> Rpo = computeSuperRpo(Prog, CG);
    std::vector<uint32_t> Order(N);
    for (uint32_t P = 0; P < N; ++P)
      Order[Rpo[P]] = P;

    linkReachingDefs(
        N, DefsOf, UsesOf, Order,
        [&](uint32_t P, auto &&Fn) {
          CG.forEachSuperPred(Prog, PointId(P),
                              [&](PointId Pred) { Fn(Pred.value()); });
        },
        [](uint32_t, LocId) { return true; },
        [&](uint32_t Def, LocId L, uint32_t Use) { addEdge(Def, L, Use); });
  }

  //===------------------------------------------------------------------===//
  // Interprocedural linking (per-procedure modes)
  //===------------------------------------------------------------------===//

  void addInterProcEdges() {
    for (uint32_t P = 0; P < Prog.numPoints(); ++P) {
      const Command &Cmd = Prog.point(PointId(P)).Cmd;
      if (Cmd.Kind != CmdKind::Call)
        continue;
      for (FuncId G : CG.callees(PointId(P))) {
        const FunctionInfo &Callee = Prog.function(G);
        // Values the callee uses or may define flow call site -> entry
        // (may-defined locations need their pre-call value on the paths
        // that do not define them).
        for (LocId L : DU.AccessUses[G.value()])
          addEdge(P, L, Callee.Entry.value());
        for (LocId L : DU.AccessDefs[G.value()])
          addEdge(P, L, Callee.Entry.value());
        // Values defined by the callee flow exit -> return site.
        for (LocId L : DU.AccessDefs[G.value()])
          addEdge(Callee.Exit.value(), L, Cmd.Pair.value());
      }
    }
  }

  //===------------------------------------------------------------------===//
  // Bypass optimization
  //===------------------------------------------------------------------===//

  /// True when node \p N neither semantically defines nor uses \p L, i.e.
  /// its transfer is the identity on L (phi joins, entry/exit/call
  /// plumbing): the contraction precondition of Section 5.
  bool isPseudoOccurrence(uint32_t N, LocId L) const {
    if (Graph.isPhi(N))
      return true;
    return !DU.isSemanticDef(PointId(N), L) &&
           !DU.isSemanticUse(PointId(N), L);
  }

  /// The bypass contraction, one location at a time.  Contracting
  /// (N, L) only reads and rewires L-edges, so locations are independent:
  /// the merged edge list is bucketed by location, lanes claim locations
  /// one index at a time (the low ids, the globals, carry the most
  /// edges), and the survivors are gathered back in (Src, L, Dst) order.
  /// The graph depends only on the program, never on Jobs.
  void runBypass(uint32_t NumLocs) {
    std::vector<size_t> Start(NumLocs + 1, 0);
    for (const RawEdge &E : EdgeList) {
      assert(E.L.value() < NumLocs && "edge outside the location space");
      ++Start[E.L.value() + 1];
    }
    std::partial_sum(Start.begin(), Start.end(), Start.begin());
    std::vector<uint64_t> Pairs(EdgeList.size());
    {
      std::vector<size_t> Fill(Start.begin(), Start.end() - 1);
      for (const RawEdge &E : EdgeList)
        Pairs[Fill[E.L.value()]++] = packPair(E.Src, E.Dst);
    }
    std::vector<RawEdge>().swap(EdgeList);

    std::vector<size_t> Deduped(NumLocs), Kept(NumLocs);
    std::atomic<uint32_t> NextLoc{0};
    auto Lane = [&](size_t) {
      uint32_t L = NextLoc++;
      if (L >= NumLocs)
        return; // Woke after the other lanes had claimed everything.
      BypassScratch S(Graph.numNodes());
      for (; L < NumLocs; L = NextLoc++)
        std::tie(Deduped[L], Kept[L]) =
            contractLocation(LocId(L), Pairs.data() + Start[L],
                             Pairs.data() + Start[L + 1], S);
    };
    if (Opts.Jobs > 1)
      ThreadPool::global().parallelFor(Opts.Jobs, Opts.Jobs, Lane);
    else
      Lane(0);

    uint64_t Before = 0;
    for (uint32_t L = 0; L < NumLocs; ++L) {
      Before += Deduped[L];
      for (size_t I = Start[L]; I < Start[L] + Kept[L]; ++I)
        EdgeList.push_back(
            RawEdge{srcOf(Pairs[I]), LocId(L), dstOf(Pairs[I])});
    }
    std::sort(EdgeList.begin(), EdgeList.end());
    Graph.EdgesBeforeBypass = Before;
    Graph.BypassRemoved = Before - EdgeList.size();
  }

  /// Drops the phis the contraction left with no edge and renumbers the
  /// survivors in their old order (points keep their ids).  A dropped phi
  /// would only run once on an empty input and publish nothing.  The map
  /// is monotone, so EdgeList stays sorted by (Src, L, Dst) and the
  /// fixpoint pops the surviving nodes in the same (priority, id) order
  /// (DESIGN.md §5).
  void dropEdgelessPhis() {
    uint32_t NP = Graph.NumPoints;
    std::vector<uint32_t> NewId(Graph.Phis.size(), UINT32_MAX);
    for (const RawEdge &E : EdgeList) {
      if (E.Src >= NP)
        NewId[E.Src - NP] = 0;
      if (E.Dst >= NP)
        NewId[E.Dst - NP] = 0;
    }
    uint32_t Kept = 0;
    for (uint32_t I = 0; I < Graph.Phis.size(); ++I) {
      if (NewId[I] == UINT32_MAX)
        continue;
      NewId[I] = NP + Kept;
      Graph.Phis[Kept++] = Graph.Phis[I];
    }
    Graph.PhisDropped = Graph.Phis.size() - Kept;
    Graph.Phis.resize(Kept);
    Graph.Phis.shrink_to_fit();
    for (RawEdge &E : EdgeList) {
      if (E.Src >= NP)
        E.Src = NewId[E.Src - NP];
      if (E.Dst >= NP)
        E.Dst = NewId[E.Dst - NP];
    }
  }

  /// Contracts the pseudo-occurrences of location \p L.  [Begin, End)
  /// holds the location's packed (Src, Dst) pairs: they are sorted and
  /// deduped in place, and the survivors overwrite the front of the range
  /// in (Src, Dst) order (a guarded contraction never adds more edges
  /// than it removes, so they fit).  Returns {deduped, surviving} pairs.
  std::pair<size_t, size_t> contractLocation(LocId L, uint64_t *Begin,
                                             uint64_t *End,
                                             BypassScratch &S) const {
    std::sort(Begin, End);
    End = std::unique(Begin, End);
    size_t Before = static_cast<size_t>(End - Begin);
    if (S.Stopped)
      return {Before, Before};

    // Dense local ids in ascending node order.  The pairs are sorted and
    // local ids keep node order, so every In/Out list is born sorted.
    S.Nodes.clear();
    auto Note = [&](uint32_t N) {
      if (S.LocalOf[N] == BypassScratch::Unmapped) {
        S.LocalOf[N] = 0;
        S.Nodes.push_back(N);
      }
    };
    for (const uint64_t *P = Begin; P != End; ++P) {
      Note(srcOf(*P));
      Note(dstOf(*P));
    }
    std::sort(S.Nodes.begin(), S.Nodes.end());
    uint32_t NumLocal = static_cast<uint32_t>(S.Nodes.size());
    if (S.In.size() < NumLocal) {
      S.In.resize(NumLocal);
      S.Out.resize(NumLocal);
    }
    S.Pseudo.resize(NumLocal);
    for (uint32_t I = 0; I < NumLocal; ++I) {
      S.LocalOf[S.Nodes[I]] = I;
      S.In[I].clear();
      S.Out[I].clear();
      S.Pseudo[I] = isPseudoOccurrence(S.Nodes[I], L);
    }
    for (const uint64_t *P = Begin; P != End; ++P) {
      uint32_t Src = S.LocalOf[srcOf(*P)], Dst = S.LocalOf[dstOf(*P)];
      S.Out[Src].push_back(Dst);
      S.In[Dst].push_back(Src);
    }

    // Seeded in ascending order, so the highest ids pop first: phis
    // (numbered after every point) before entry/exit/call plumbing.  The
    // guarded contraction depends on order; this one makes the graph a
    // function of the program alone (DESIGN.md §5).
    S.Work.resize(NumLocal);
    std::iota(S.Work.begin(), S.Work.end(), 0u);
    while (!S.Work.empty()) {
      // An exhausted budget stops contracting: every prefix of the
      // contraction sequence leaves a valid (just less contracted)
      // dependency graph.  Charged in blocks of 64 pops per lane — this
      // loop is hot enough that a per-pop atomic shows up in the
      // guard-overhead bench — and the exhaustion is sticky, so every
      // lane stops within 64 pops of the trip.
      if (Opts.Bud && (S.Pops++ & 63) == 0 && !Opts.Bud->charge(64)) {
        S.Stopped = true;
        break;
      }
      uint32_t X = S.Work.back();
      S.Work.pop_back();
      if (!S.Pseudo[X])
        continue;
      size_t InN = S.In[X].size(), OutN = S.Out[X].size();
      if (InN == 0 && OutN == 0)
        continue;
      // Contract only when rewiring does not grow the edge count.  A
      // dangling side (no producers or no consumers) always contracts.
      bool Shrinks = InN == 0 || OutN == 0 || InN * OutN <= InN + OutN;
      if (!Shrinks)
        continue;
      S.Ins.clear();
      S.Outs.clear();
      S.Ins.swap(S.In[X]);
      S.Outs.swap(S.Out[X]);
      // Detach X ...
      for (uint32_t Src : S.Ins) {
        eraseSorted(S.Out[Src], X);
        S.Work.push_back(Src);
      }
      for (uint32_t Dst : S.Outs) {
        eraseSorted(S.In[Dst], X);
        S.Work.push_back(Dst);
      }
      // ... and rewire around it.
      for (uint32_t Src : S.Ins) {
        for (uint32_t Dst : S.Outs) {
          if (Src == X || Dst == X)
            continue;
          insertSorted(S.Out[Src], Dst);
          insertSorted(S.In[Dst], Src);
        }
      }
    }

    uint64_t *Kept = Begin;
    for (uint32_t I = 0; I < NumLocal; ++I)
      for (uint32_t J : S.Out[I])
        *Kept++ = packPair(S.Nodes[I], S.Nodes[J]);
    assert(Kept <= End && "a contraction grew the edge count");
    for (uint32_t N : S.Nodes)
      S.LocalOf[N] = BypassScratch::Unmapped;
    return {Before, static_cast<size_t>(Kept - Begin)};
  }

  const Program &Prog;
  const CallGraphInfo &CG;
  const DefUseInfo &DU;
  const DepOptions &Opts;
  SparseGraph Graph;
  std::vector<RawEdge> EdgeList;
};

} // namespace

SparseGraph spa::buildDepGraph(const Program &Prog, const CallGraphInfo &CG,
                               const DefUseInfo &DU, const DepOptions &Opts) {
  return Builder(Prog, CG, DU, Opts).run();
}

void spa::exportDepBuildGauges(const SparseGraph *Graph) {
  SparseGraph None;
  const SparseGraph &G = Graph ? *Graph : None;
  SPA_OBS_GAUGE_SET("phase.depbuild.seconds", G.BuildSeconds);
  SPA_OBS_GAUGE_SET("phase.depbuild.ssa.seconds", G.SsaSeconds);
  SPA_OBS_GAUGE_SET("phase.depbuild.link.seconds", G.LinkSeconds);
  SPA_OBS_GAUGE_SET("phase.depbuild.bypass.seconds", G.BypassSeconds);
  SPA_OBS_GAUGE_SET("phase.depbuild.storage.seconds", G.StorageSeconds);
}
