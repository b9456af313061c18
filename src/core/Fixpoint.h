//===- Fixpoint.h - The one worklist fixpoint engine ---------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixpoint engine every analyzer runs on.  The paper's framework does
/// not depend on the domain (Section 4 runs the packed octagon analysis
/// through the same pre-analysis, D̂/Û and sparse machinery as the
/// interval analysis), so neither does this engine:
///
///  * the loop driver (drainWorklist) owns the heartbeat, the fault
///    checkpoint, the time limit, the budget charge, ledger sampling and
///    the journal's partition events; degradeAffected owns sound
///    degradation over the affected set;
///  * the dense step (runDenseFixpoint) joins supergraph predecessors —
///    localized for Base — runs the transfer, applies delayed widening per
///    point, and narrows;
///  * the sparse step (runSparseFixpoint) runs phi identities and
///    transfers over input buffers and delivers changed values along
///    dependency edges, with delayed widening per (node, location) on
///    cycle-closing edges, the exact V ⊑ Old no-change skip, and
///    component shards.  A visit costs what changed: it re-publishes only
///    the locations delivered or written (see "Pending locations" below)
///    and walks only the out-edges whose label grew.
///
/// Both steps are templates over a domain adapter (IntervalDomain in
/// core/IntervalAnalysis.cpp, OctDomain in oct/OctAnalysis.cpp) that
/// supplies:
///
///   using State, Key, Val;         FlatMap-like state of Key -> Val
///   static constexpr bool Narrows; dense narrowing supported
///   static constexpr uint64_t JournalBase;  DegradeTier engine id - 1
///   static LocId locOf(Key); static Key keyOf(LocId);
///   const Val *find(const State &, Key);    null = bottom
///   bool publish(State &Out, Key, const Val &);  weak update; grew?
///   bool merge(State &Post, const State &Out, MergeOp);  changed?
///   Val extrapolate(const Val &Old, const Val &V, MergeOp);  Widen/Cut
///   uint32_t cutAfter();           changes before MergeOp::Cut applies
///   uint64_t growth(const Val *Old, const Val &New);  ledger units
///   void transfer(PointId, State &);               dense, in place
///   State transfer(PointId, const State &In, const std::vector<LocId>
///                  &Defs, std::vector<LocId> &Pending);
///                  sparse, over In: the output over Defs ∩ (written ∪
///                  Pending), ascending (walkSparseOutput); leaves this
///                  visit's written locations in Pending
///   void degrade(State &); void degrade(State &, LocId);
///   cost();   a scope whose charge() adds domain cost to a ledger row
///
/// Values provide leq, join, widen and ==.  Results are deterministic: a
/// pure function of the program, the options and the domain, for every
/// Jobs value.
///
/// Sparse shards: the dependency graph decomposes into connected
/// components of the cross-procedure edge relation (functions tied by an
/// interprocedural dependency land in one component, as do whole
/// callgraph SCCs).  No dependency edge crosses components, so each is a
/// closed fixpoint subsystem: in the sequential schedule, the pop
/// subsequence restricted to a component is exactly what a per-component
/// worklist would pop, and the per-node results — including widening
/// decisions, which only consult per-(node, location) arrival counts —
/// are bit-identical under any assignment of components to shards.
///
/// Pending locations: a point's output over its def set D̂(c) is the
/// transfer's writes plus the passthrough In[L] of every spurious
/// definition L (D̂ − D, and the callee summaries Section 5 folds into
/// call, entry, exit and return points).  Publishing is a weak join, so
/// re-publishing a passthrough whose input did not change since it was
/// last published changes nothing.  Each point therefore keeps the
/// locations whose passthrough may have moved — those delivered into its
/// input since its last visit, plus those its transfer wrote at its last
/// visit — and its next visit emits only these and its fresh writes.
/// The written set must carry over: a strong store *p = 5 with p → {a}
/// writes a; once p → {a, b} and 5 ⊑ In[a], the weak store leaves a
/// unwritten, and a's output becomes the passthrough In[a], which was
/// never published.  Any other location L of D̂(c) satisfies Out[L] ⊒
/// In[L] by induction over the visits (In starts at ⊥), so skipping it
/// is exact: every In/Out state, visit and counter is that of the full
/// re-extraction.  Phis publish their one location and keep nothing.
///
/// Phi values: a phi defines and uses exactly its location, so during
/// the loop its input and output are one optional value each in flat
/// per-phi arrays (written only by the shard that owns the phi, like
/// R.In/R.Out), not state maps; its visit is publishValue, the value form
/// of Domain::publish.  They move into R.In/R.Out once, after the loop
/// and before degradation, so results keep their shape.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_CORE_FIXPOINT_H
#define SPA_CORE_FIXPOINT_H

#include "core/DefUse.h"
#include "core/DenseAnalysis.h"
#include "core/SparseAnalysis.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "support/Fault.h"
#include "support/FlatMap.h"
#include "support/Resource.h"
#include "support/ThreadPool.h"
#include "support/WorkList.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

namespace spa {

/// How a new value meets the old one at a merge point.
enum class MergeOp {
  Join,
  Widen, ///< Old ∇ (Old ⊔ New), after the widening delay.
  Cut,   ///< The domain's hard cut (octagon: ⊤), after cutAfter() changes.
};

/// Cost scope of a domain with no internal cost to attribute.
struct NoCost {
  void charge(obs::Ledger *, uint32_t, bool) const {}
};

struct LoopResult {
  uint64_t Visits = 0;
  bool TimedOut = false;
  /// The budget tripped; the unprocessed items are still pending in the
  /// worklist (the degradation frontier).
  bool Degraded = false;
};

/// The worklist loop: pops until empty, calling \p Visit on each item.
/// Every 256 visits it refreshes the stall context, passes the "fixloop"
/// fault checkpoint and checks the time limit; every visit charges one
/// budget step *before* the pop, so an expired budget stops at zero
/// visits.  Ledger rows (indexed by item) get the visit count and a
/// sampled wall time every 32 visits (the one non-deterministic ledger
/// field).
template <typename VisitFn>
LoopResult drainWorklist(WorkList &WL, uint64_t Partition, uint64_t Size,
                         double TimeLimitSec, Budget *Bud, obs::Ledger *Led,
                         VisitFn &&Visit) {
  LoopResult R;
  Timer Clock;
  uint64_t LastSampleUs = 0;
  // Flight-recorder scope: the watchdog monitors this lane's heartbeat
  // only while it is inside the loop.
  SPA_OBS_FIX_SCOPE();
  obs::journalSetPartition(Partition);
  SPA_OBS_JOURNAL(PartitionBegin, Partition, Size);
  while (!WL.empty()) {
    SPA_OBS_HEARTBEAT();
    if ((R.Visits & 255) == 0) {
      // SPA_FAULT=stall@fixloop hangs exactly here, between heartbeats,
      // which is what the watchdog catches.
      obs::journalSetWorklistDepth(WL.size());
      maybeInjectFault("fixloop");
      if (TimeLimitSec > 0 && Clock.seconds() > TimeLimitSec) {
        R.TimedOut = true;
        break;
      }
    }
    // The budget token is shared and sticky: once any lane trips it,
    // every lane stops at its next visit.
    if (Bud && !Bud->charge()) {
      R.Degraded = true;
      break;
    }
    uint32_t Item = WL.pop();
    ++R.Visits;
    if (Led) {
      ++Led->row(Item).Visits;
      if ((R.Visits & 31) == 0) {
        uint64_t NowUs = static_cast<uint64_t>(Clock.seconds() * 1e6);
        Led->row(Item).TimeMicros += NowUs - LastSampleUs;
        LastSampleUs = NowUs;
      }
    }
    Visit(Item);
  }
  SPA_OBS_JOURNAL(PartitionEnd, Partition, R.Visits);
  return R;
}

/// Sound budget degradation (docs/ROBUSTNESS.md): the *affected* set —
/// \p Pending plus everything forward-reachable from it through
/// \p ForEachSucc(item, f) — is exactly where the fixpoint might still
/// have risen.  \p Degrade runs on each affected item in ascending order;
/// the others already consumed their producers' final values and are
/// sound by the usual fixpoint induction.
template <typename SuccFn, typename DegradeFn>
void degradeAffected(size_t N, const std::vector<uint32_t> &Pending,
                     uint64_t JournalEngine, SuccFn ForEachSucc,
                     DegradeFn Degrade) {
  std::vector<bool> Affected(N, false);
  std::vector<uint32_t> Stack;
  auto Mark = [&](uint32_t I) {
    if (!Affected[I]) {
      Affected[I] = true;
      Stack.push_back(I);
    }
  };
  for (uint32_t I : Pending)
    Mark(I);
  while (!Stack.empty()) {
    uint32_t I = Stack.back();
    Stack.pop_back();
    ForEachSucc(I, Mark);
  }
  uint64_t NumAffected = 0;
  for (uint32_t I = 0; I < N; ++I) {
    if (!Affected[I])
      continue;
    ++NumAffected;
    Degrade(I);
  }
  SPA_OBS_GAUGE_SET("fixpoint.degraded_points", NumAffected);
  SPA_OBS_JOURNAL(DegradeTier, JournalEngine, NumAffected);
}

/// Counts one merge in the metrics, the ledger row of \p Node and, every
/// 64 extrapolations (widening bursts are the classic non-termination
/// precursor), the journal.
inline void countMerge(MergeOp Op, uint32_t Node, uint64_t &Extrapolations,
                       obs::Ledger *Led) {
  if (Op == MergeOp::Join) {
    SPA_OBS_COUNT("fixpoint.joins", 1);
  } else {
    if (Op == MergeOp::Widen)
      SPA_OBS_COUNT("fixpoint.widenings", 1);
    if (((++Extrapolations) & 63) == 0)
      SPA_OBS_JOURNAL(WidenBurst, Node, Extrapolations);
  }
  if (Led) {
    // A cut is the most aggressive widening; it counts as one.
    if (Op == MergeOp::Join)
      ++Led->row(Node).Joins;
    else
      ++Led->row(Node).Widenings;
  }
}

/// Shards of graph nodes with no dependency edges between shards, each
/// shard's node list ascending.  One shard holding every node (or every
/// node of \p Restrict, a union of whole components) when \p Jobs <= 1
/// or the graph is one component.
std::vector<std::vector<uint32_t>>
partitionNodes(const Program &Prog, const SparseGraph &Graph, unsigned Jobs,
               const std::vector<uint32_t> *Restrict);

/// The sparse step's schedule over a dependency graph, per node.
struct SparseSchedule {
  /// Worklist priority: twice the anchor point's supergraph RPO index,
  /// plus one for a point.  A phi logically executes just before its
  /// join point, so it gets the smaller priority; otherwise the phi ->
  /// join-point edge would look retreating and trigger spurious widening.
  std::vector<uint32_t> Prio;
  /// Loop heads / recursive entries and their phis.
  std::vector<bool> WidenNode;
};

/// The one derivation of the schedule: runSparseFixpoint runs on it, and
/// the serve partition signatures (serve/Service.cpp) fold it in, so a
/// signature covers every scheduling input the engine reads.
SparseSchedule computeSparseSchedule(const Program &Prog,
                                     const CallGraphInfo &CG,
                                     const SparseGraph &Graph);

/// The sparse transfer's output walk (see "Pending locations" above):
/// visits Defs ∩ (written ∪ Pending) in ascending order, where the written
/// locations are the keys of \p Overlay (a sorted map keyed by
/// Domain::Key).  Calls \p Written(L, Val &) for a location the transfer
/// wrote (the value may be moved out) and \p Passthrough(L) for a pending
/// one it did not, then leaves the written locations of Defs in
/// \p Pending: the carry to the next visit.  Defs and Pending are sorted
/// and duplicate-free.
template <typename Domain, typename OverlayMap, typename WrittenFn,
          typename PassthroughFn>
void walkSparseOutput(OverlayMap &Overlay, const std::vector<LocId> &Defs,
                      std::vector<LocId> &Pending, WrittenFn Written,
                      PassthroughFn Passthrough) {
  std::vector<LocId> Wrote;
  auto O = Overlay.begin(), OE = Overlay.end();
  auto P = Pending.begin(), PE = Pending.end();
  auto D = Defs.begin(), DE = Defs.end();
  while (O != OE || P != PE) {
    bool FromOverlay = P == PE || (O != OE && Domain::locOf(O->first) <= *P);
    LocId L = FromOverlay ? Domain::locOf(O->first) : *P;
    if (P != PE && *P == L)
      ++P;
    D = std::lower_bound(D, DE, L);
    if (D == DE)
      break;
    if (*D == L) {
      if (FromOverlay) {
        Wrote.push_back(L);
        Written(L, O->second);
      } else {
        Passthrough(L);
      }
    }
    if (FromOverlay)
      ++O;
  }
  Pending = std::move(Wrote);
}

/// Union of AccessDefs and AccessUses per function, sorted (the Base
/// engine's localization filter).
std::vector<std::vector<LocId>> accessSets(const Program &Prog,
                                           const DefUseInfo &DU);

/// The dense step: a post-state per supergraph point.
template <typename Domain>
void runDenseFixpoint(const Program &Prog, const CallGraphInfo &CG,
                      const DefUseInfo *DU, Domain &D,
                      const DenseOptions &Opts,
                      DenseFixResult<typename Domain::State> &R) {
  using State = typename Domain::State;
  assert((!Opts.Localize || DU) &&
         "localization needs per-function access sets");
  size_t N = Prog.numPoints();
  R.Post.resize(N);
  obs::Ledger *Led = obs::LedgerEnabled ? Opts.Led : nullptr;
  if (Led)
    Led->resize(static_cast<uint32_t>(N));

  std::vector<std::vector<LocId>> Access;
  if (Opts.Localize)
    Access = accessSets(Prog, *DU);
  auto InAccess = [&](FuncId F, LocId L) {
    const auto &A = Access[F.value()];
    return std::binary_search(A.begin(), A.end(), L);
  };
  auto ComputeInput = [&](PointId C) {
    const Command &Cmd = Prog.point(C).Cmd;
    State In;
    if (Opts.Localize && Cmd.Kind == CmdKind::Entry) {
      // Callers pass only the accessed part of their state.
      FuncId F = Prog.point(C).Func;
      for (PointId Site : CG.callSitesOf(F))
        D.merge(In,
                R.Post[Site.value()].filtered([&](auto K) {
                  return InAccess(F, Domain::locOf(K));
                }),
                MergeOp::Join);
      return In;
    }
    if (Opts.Localize && Cmd.Kind == CmdKind::Return) {
      const std::vector<FuncId> &Cs = CG.callees(Cmd.Pair);
      if (!Cs.empty()) {
        // Accessed part from the callee exits; the rest bypasses the call.
        for (FuncId G : Cs)
          D.merge(In,
                  R.Post[Prog.function(G).Exit.value()].filtered(
                      [&](auto K) { return InAccess(G, Domain::locOf(K)); }),
                  MergeOp::Join);
        D.merge(In,
                R.Post[Cmd.Pair.value()].filtered([&](auto K) {
                  for (FuncId G : Cs)
                    if (InAccess(G, Domain::locOf(K)))
                      return false;
                  return true;
                }),
                MergeOp::Join);
        return In;
      }
    }
    CG.forEachSuperPred(Prog, C, [&](PointId P) {
      D.merge(In, R.Post[P.value()], MergeOp::Join);
    });
    return In;
  };
  // Under localization the return site also consumes the call point's
  // state (the bypassed part), an extra dependency edge.
  auto ForEachSucc = [&](uint32_t P, auto &&F) {
    CG.forEachSuperSucc(Prog, PointId(P),
                        [&](PointId S) { F(S.value()); });
    if (Opts.Localize && Prog.point(PointId(P)).Cmd.Kind == CmdKind::Call)
      F(Prog.point(PointId(P)).Cmd.Pair.value());
  };

  std::vector<bool> Widen =
      computeWideningPoints(Prog, CG, /*IncludeCallToReturn=*/Opts.Localize);
  std::vector<uint32_t> ChangeCount(N, 0);
  WorkList WL(computeSuperRpo(Prog, CG));
  // The paper's fixpoint applies F̂ at every control point, so seed the
  // whole program, not just the start point.
  for (uint32_t P = 0; P < N; ++P)
    WL.push(P);

  Timer Clock;
  uint64_t Extrapolations = 0;
  LoopResult L = drainWorklist(
      WL, 0, N, Opts.TimeLimitSec, Opts.Bud, Led, [&](uint32_t P) {
        auto Cost = D.cost();
        State Out = ComputeInput(PointId(P));
        D.transfer(PointId(P), Out);
        uint32_t Count = ChangeCount[P];
        MergeOp Op = Count >= D.cutAfter() ? MergeOp::Cut
                     : Widen[P] && Count >= Opts.WideningDelay
                         ? MergeOp::Widen
                         : MergeOp::Join;
        countMerge(Op, P, Extrapolations, Led);
        uint64_t EntriesBefore = Led ? R.Post[P].size() : 0;
        bool Changed = D.merge(R.Post[P], Out, Op);
        Cost.charge(Led, P, /*JournalBurst=*/true);
        if (Led) {
          obs::PointCost &PC = Led->row(P);
          if (!Changed)
            ++PC.NoChangeSkips;
          else
            // Dense growth unit: net new bound entries at the point
            // (merges are monotone in the entry count).
            PC.Growth += R.Post[P].size() - EntriesBefore;
        }
        if (!Changed)
          return;
        ++ChangeCount[P];
        ForEachSucc(P, [&](uint32_t S) { WL.push(S); });
      });
  R.Visits = L.Visits;
  R.TimedOut = L.TimedOut;
  R.Degraded = L.Degraded;

  if (R.Degraded) {
    std::vector<uint32_t> Pending;
    WL.forEachPending([&](uint32_t P) { Pending.push_back(P); });
    degradeAffected(N, Pending, Domain::JournalBase + 1, ForEachSucc,
                    [&](uint32_t P) { D.degrade(R.Post[P]); });
  }

  // Narrowing restarts from a post-fixpoint; a timed-out or degraded
  // state is not one, so skip it.
  if constexpr (Domain::Narrows) {
    for (unsigned Pass = 0;
         Pass < Opts.NarrowingPasses && !R.TimedOut && !R.Degraded; ++Pass) {
      bool Changed = false;
      for (uint32_t P = 0; P < N; ++P) {
        State Out = ComputeInput(PointId(P));
        D.transfer(PointId(P), Out);
        SPA_OBS_COUNT("fixpoint.narrowings", 1);
        if (Led)
          ++Led->row(P).Narrowings;
        Changed |= D.narrow(R.Post[P], Out);
      }
      if (!Changed)
        break;
    }
  }

  for (const State &S : R.Post)
    R.StateEntries += S.size();
  R.Seconds = Clock.seconds();
  SPA_OBS_COUNT("fixpoint.visits", R.Visits);
  SPA_OBS_GAUGE_SET("fixpoint.state_entries", R.StateEntries);
}

/// Domain::publish on one value slot (empty = absent): the weak join that
/// makes a phi's output.  A phi's input is never an absent or (interval)
/// bottom value, so this is exactly the state-level publish.
template <typename Val>
bool publishValue(std::optional<Val> &Slot, const Val &V) {
  if (!Slot) {
    Slot = V;
    return true;
  }
  if (V.leq(*Slot))
    return false;
  *Slot = Slot->join(V);
  return true;
}

/// The sparse step: input and output buffers per dependency-graph node.
template <typename Domain>
void runSparseFixpoint(const Program &Prog, const CallGraphInfo &CG,
                       const SparseGraph &Graph, Domain &D,
                       const SparseOptions &Opts,
                       SparseFixResult<typename Domain::State> &R) {
  using State = typename Domain::State;
  using Key = typename Domain::Key;
  using Val = typename Domain::Val;
  size_t N = Graph.numNodes();
  uint32_t NP = Graph.NumPoints;
  // Points keep state maps.  A phi's input and output are one value each
  // (see "Phi values" in the file comment), moved into R.In/R.Out once
  // the loop ends.
  R.In.resize(NP);
  R.Out.resize(NP);
  std::vector<std::optional<Val>> PhiIn(Graph.Phis.size()),
      PhiOut(Graph.Phis.size());
  // One ledger row per graph node, written only by the shard that owns
  // the node, so counts are race-free and jobs-independent.
  obs::Ledger *Led = obs::LedgerEnabled ? Opts.Led : nullptr;
  if (Led)
    Led->resize(static_cast<uint32_t>(N));

  SparseSchedule Sched = computeSparseSchedule(Prog, CG, Graph);
  const std::vector<uint32_t> &Prio = Sched.Prio;
  const std::vector<bool> &WidenNode = Sched.WidenNode;
  // Changing arrivals per (node, location) on cycle-closing edges.
  std::vector<FlatMap<LocId, uint32_t>> ArrivalCount(N);
  // Pending locations per point (phis keep none); see the file comment.
  std::vector<std::vector<LocId>> PendingLocs(NP);

  // One worklist loop over a closed node set.  Shards touch disjoint
  // slices of R.In/R.Out/PhiIn/PhiOut/ArrivalCount/PendingLocs and the
  // ledger, so concurrent shard loops share those arrays without
  // synchronization.
  auto RunShard = [&](size_t ShardIdx, const std::vector<uint32_t> &Nodes,
                      std::vector<uint32_t> &Pending) {
    WorkList WL(Prio);
    // Every node runs at least once: constants and ⊥-input effects must
    // materialize even with no incoming dependencies.
    for (uint32_t I : Nodes)
      WL.push(I);
    uint64_t Extrapolations = 0, Extracted = 0, EdgesWalked = 0;
    std::vector<LocId> Changed; // The visited node's grown locations.
    LoopResult L = drainWorklist(
        WL, ShardIdx, Nodes.size(), Opts.TimeLimitSec, Opts.Bud, Led,
        [&](uint32_t Node) {
          // Transfer, then publish the locations whose output grew.
          Changed.clear();
          bool IsPhi = Graph.isPhi(Node);
          {
            auto Cost = D.cost();
            if (IsPhi) {
              // A phi is the identity on its location.
              if (const std::optional<Val> &In = PhiIn[Node - NP]) {
                ++Extracted;
                if (publishValue(PhiOut[Node - NP], *In))
                  Changed.push_back(Graph.phi(Node).L);
              }
            } else {
              std::vector<LocId> &Locs = PendingLocs[Node];
              std::sort(Locs.begin(), Locs.end());
              Locs.erase(std::unique(Locs.begin(), Locs.end()), Locs.end());
              State NewOut = D.transfer(PointId(Node), R.In[Node],
                                        Graph.NodeDefs[Node], Locs);
              Extracted += NewOut.size();
              for (const auto &[K, V] : NewOut)
                if (D.publish(R.Out[Node], K, V))
                  Changed.push_back(Domain::locOf(K));
            }
            Cost.charge(Led, Node, /*JournalBurst=*/true);
          }
          if (Changed.empty())
            return;
          // A phi's out-edges all carry its location.
          const Val *PhiV = IsPhi ? &*PhiOut[Node - NP] : nullptr;
          Graph.Edges->forEachOutOn(Node, Changed, [&](LocId Loc,
                                                        uint32_t Dst) {
            ++EdgesWalked;
            Key K = Domain::keyOf(Loc);
            const Val &V = IsPhi ? *PhiV : *D.find(R.Out[Node], K);
            // Widening must cut every dependency cycle: it applies (after
            // the delay) at loop-head/recursion nodes and on retreating
            // edges (source scheduled at or after the target).
            bool CutsCycle = WidenNode[Dst] || Prio[Node] >= Prio[Dst];
            std::optional<Val> *PhiDst =
                Graph.isPhi(Dst) ? &PhiIn[Dst - NP] : nullptr;
            const Val *Old = !PhiDst   ? D.find(R.In[Dst], K)
                             : *PhiDst ? &**PhiDst
                                       : nullptr;
            MergeOp Op = MergeOp::Join;
            if (CutsCycle && Old) {
              const uint32_t *C = ArrivalCount[Dst].lookup(Loc);
              uint32_t Count = C ? *C : 0;
              Op = Count >= D.cutAfter()          ? MergeOp::Cut
                   : Count >= Opts.WideningDelay ? MergeOp::Widen
                                                 : MergeOp::Join;
            }
            if (Op == MergeOp::Join && Old && V.leq(*Old)) {
              // No-change fast path: skips the join and the New == Old
              // comparison.  Join-only arrivals cannot widen, so skipping
              // them is exact.
              SPA_OBS_COUNT("fixpoint.joins", 1);
              if (Led)
                ++Led->row(Dst).NoChangeSkips;
              return;
            }
            auto Cost = D.cost();
            countMerge(Op, Dst, Extrapolations, Led);
            Val New = !Old                  ? V
                      : Op == MergeOp::Join ? Old->join(V)
                                            : D.extrapolate(*Old, V, Op);
            // Extrapolation cost during delivery belongs to the receiver.
            Cost.charge(Led, Dst, /*JournalBurst=*/false);
            if (Old && New == *Old)
              return;
            if (CutsCycle)
              ++ArrivalCount[Dst].getOrCreate(Loc);
            SPA_OBS_COUNT("fixpoint.deliveries", 1);
            if (Led) {
              obs::PointCost &PC = Led->row(Dst);
              ++PC.Deliveries;
              PC.Growth += D.growth(Old, New);
            }
            if (PhiDst) {
              *PhiDst = std::move(New);
            } else {
              R.In[Dst].set(K, std::move(New));
              PendingLocs[Dst].push_back(Loc);
            }
            WL.push(Dst);
          });
        });
    SPA_OBS_COUNT("fixpoint.extracted", Extracted);
    SPA_OBS_COUNT("fixpoint.edges_walked", EdgesWalked);
    if (L.Degraded)
      WL.forEachPending([&](uint32_t I) { Pending.push_back(I); });
    return L;
  };

  std::vector<std::vector<uint32_t>> Shards =
      partitionNodes(Prog, Graph, Opts.Jobs, Opts.RestrictNodes);
  SPA_OBS_GAUGE_SET("par.fix.shards", Shards.size());

  Timer Clock;
  std::vector<LoopResult> ShardResults(Shards.size());
  std::vector<std::vector<uint32_t>> ShardPending(Shards.size());
  if (Shards.size() == 1) {
    ShardResults[0] = RunShard(0, Shards[0], ShardPending[0]);
  } else {
    ThreadPool::global().parallelFor(Shards.size(), Opts.Jobs, [&](size_t S) {
      ShardResults[S] = RunShard(S, Shards[S], ShardPending[S]);
    });
  }
  for (const LoopResult &L : ShardResults) {
    R.Visits += L.Visits;
    R.TimedOut |= L.TimedOut;
    R.Degraded |= L.Degraded;
  }

  // The phi values become one-entry states, once.
  R.In.resize(N);
  R.Out.resize(N);
  for (uint32_t I = 0; I < Graph.Phis.size(); ++I) {
    Key K = Domain::keyOf(Graph.Phis[I].L);
    if (PhiIn[I])
      R.In[NP + I].set(K, std::move(*PhiIn[I]));
    if (PhiOut[I])
      R.Out[NP + I].set(K, std::move(*PhiOut[I]));
  }
  std::vector<std::optional<Val>>().swap(PhiIn);
  std::vector<std::optional<Val>>().swap(PhiOut);

  if (R.Degraded) {
    // Affected nodes degrade on their use sets (In) and def sets (Out).
    std::vector<uint32_t> Pending;
    for (const std::vector<uint32_t> &P : ShardPending)
      Pending.insert(Pending.end(), P.begin(), P.end());
    auto ForEachSucc = [&](uint32_t Node, auto &&F) {
      Graph.Edges->forEachOut(Node, [&](LocId, uint32_t Dst) { F(Dst); });
    };
    degradeAffected(N, Pending, Domain::JournalBase + 2, ForEachSucc,
                    [&](uint32_t Node) {
                      R.DegradedNodeIds.push_back(Node);
                      for (LocId L : Graph.uses(Node))
                        D.degrade(R.In[Node], L);
                      for (LocId L : Graph.defs(Node))
                        D.degrade(R.Out[Node], L);
                    });
  }

  for (const State &S : R.In)
    R.StateEntries += S.size();
  for (const State &S : R.Out)
    R.StateEntries += S.size();
  R.Seconds = Clock.seconds();
  SPA_OBS_COUNT("fixpoint.visits", R.Visits);
  SPA_OBS_GAUGE_SET("fixpoint.state_entries", R.StateEntries);
}

} // namespace spa

#endif // SPA_CORE_FIXPOINT_H
