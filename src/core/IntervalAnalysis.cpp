//===- IntervalAnalysis.cpp - The interval domain on the fixpoint engine -------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
//
// The interval domain adapter of core/Fixpoint.h — AbsState over abstract
// locations, the transfer of core/Semantics.h, degradation by joining
// T̂pre — and the Vanilla/Base/Sparse interval entry points built on it.
//
//===----------------------------------------------------------------------===//

#include "core/Fixpoint.h"
#include "core/PreAnalysis.h"

#include <optional>

using namespace spa;

namespace {

class IntervalDomain;

/// Mutable working state for a sparse node's transfer: reads fall back to
/// the input slots; writes land in an overlay.  The node's new output is
/// the overlay merged over the input, restricted to its def set.
class WorkingState {
public:
  explicit WorkingState(InputSlots<Value> In) : In(In) {}

  const Value &get(LocId L) const {
    if (const Value *V = Overlay.lookup(L))
      return *V;
    const Value *V = In.find(L);
    return V ? *V : AbsState::Bottom;
  }

  void set(LocId L, Value V) { Overlay.set(L, std::move(V)); }

  bool weakSet(LocId L, const Value &V) {
    if (V.isBot())
      return false;
    Value Merged = get(L);
    if (!Merged.joinWith(V))
      return false;
    Overlay.set(L, std::move(Merged));
    return true;
  }

  /// Emits the output over Defs ∩ (written ∪ Pending) (walkSparseOutput):
  /// overlay values where written, input passthrough otherwise (the
  /// identity on spurious definitions); bottom values are absent and not
  /// emitted.  Consumes the overlay: written values are moved out, not
  /// copied — this runs once per node visit, so the copy churn of
  /// points-to vectors inside Value would otherwise dominate allocation.
  template <typename EmitFn>
  void extract(const std::vector<LocId> &Defs, std::vector<LocId> &Pending,
               EmitFn Emit) {
    walkSparseOutput<IntervalDomain>(
        Overlay, Defs, Pending,
        [&](LocId L, Value &V) {
          if (!V.isBot())
            Emit(L, std::move(V));
        },
        [&](LocId L) {
          if (const Value *V = In.find(L))
            Emit(L, *V);
        });
  }

private:
  InputSlots<Value> In;
  FlatMap<LocId, Value> Overlay;
};

/// The interval domain adapter (interface in core/Fixpoint.h).
class IntervalDomain {
public:
  using State = AbsState;
  using Key = LocId;
  using Val = Value;
  static constexpr bool Narrows = true;
  static constexpr uint64_t JournalBase = 0;

  IntervalDomain(const Program &Prog, const CallGraphInfo &CG,
                 const SemanticsOptions &Sem, const AbsState *DegradeTo)
      : Prog(Prog), CG(CG), Sem(Sem), DegradeTo(DegradeTo) {}

  static LocId locOf(LocId L) { return L; }
  static LocId keyOf(LocId L) { return L; }

  static bool merge(AbsState &Post, const AbsState &Out, MergeOp Op) {
    return Op == MergeOp::Join ? Post.joinWith(Out) : Post.widenWith(Out);
  }
  static bool narrow(AbsState &Post, const AbsState &Out) {
    return Post.narrowWith(Out);
  }
  /// Interval widening terminates on its own: no hard cut.
  static uint32_t cutAfter() { return UINT32_MAX; }
  /// Sparse widening of \p L's slot.  The widened block size is met with
  /// T̂pre's at \p L, which over-approximates every reachable size
  /// (Section 3.2), so the meet is sound, and a size widened on either
  /// dependency graph stops at the same bound (DESIGN.md §5 "Bounded
  /// widening").
  Value extrapolate(LocId L, const Value &Old, const Value &V,
                    MergeOp) const {
    Value W = Old.widen(Old.join(V));
    if (DegradeTo)
      W.Size = W.Size.meet(DegradeTo->get(L).Size);
    return W;
  }

  /// Ledger growth units of a value step Old -> New: clamped-positive set
  /// cardinality deltas (points-to and callee sets) plus one unit per
  /// interval component that moved.  A pure function of the two values,
  /// so the per-node totals are deterministic across job counts.
  static uint64_t growth(const Value *OldP, const Value &New) {
    Value Bot;
    const Value &Old = OldP ? *OldP : Bot;
    uint64_t G = 0;
    if (New.Pts.size() > Old.Pts.size())
      G += New.Pts.size() - Old.Pts.size();
    if (New.Funcs.size() > Old.Funcs.size())
      G += New.Funcs.size() - Old.Funcs.size();
    G += !(New.Itv == Old.Itv);
    G += !(New.Offset == Old.Offset);
    G += !(New.Size == Old.Size);
    return G;
  }

  void transfer(PointId P, AbsState &S) const {
    applyCommand(Prog, &CG, P, S, Sem);
  }
  template <typename EmitFn>
  void transfer(PointId P, InputSlots<Value> In,
                const std::vector<LocId> &Defs, std::vector<LocId> &Pending,
                EmitFn Emit) const {
    WorkingState WS(In);
    applyCommand(Prog, &CG, P, WS, Sem);
    WS.extract(Defs, Pending, Emit);
  }

  /// Degradation joins the fallback (normally T̂pre, which Section 3.2
  /// proves over-approximates every reachable memory; all-⊤ without one).
  void degrade(AbsState &S) { S.joinWith(fallback()); }
  void degrade(AbsState &S, LocId L) {
    const Value &V = fallback().get(L);
    if (!V.isBot())
      S.weakSet(L, V);
  }

  NoCost cost() const { return {}; }

private:
  const AbsState &fallback() {
    if (DegradeTo)
      return *DegradeTo;
    if (!Top)
      Top = topAbsState(Prog);
    return *Top;
  }

  const Program &Prog;
  const CallGraphInfo &CG;
  const SemanticsOptions &Sem;
  const AbsState *const DegradeTo;
  std::optional<AbsState> Top;
};

} // namespace

AbsState DenseResult::inputOf(const Program &Prog, const CallGraphInfo &CG,
                              PointId P) const {
  AbsState In;
  CG.forEachSuperPred(Prog, P,
                      [&](PointId Q) { In.joinWith(Post[Q.value()]); });
  return In;
}

DenseResult spa::runDenseAnalysis(const Program &Prog,
                                  const CallGraphInfo &CG,
                                  const DefUseInfo *DU,
                                  const DenseOptions &Opts) {
  IntervalDomain D(Prog, CG, Opts.Sem, Opts.DegradeTo);
  DenseResult R;
  runDenseFixpoint(Prog, CG, DU, D, Opts, R);
  return R;
}

SparseResult spa::runSparseAnalysis(const Program &Prog,
                                    const CallGraphInfo &CG,
                                    const SparseGraph &Graph,
                                    const SparseOptions &Opts) {
  IntervalDomain D(Prog, CG, Opts.Sem, Opts.DegradeTo);
  SparseResult R;
  runSparseFixpoint(Prog, CG, Graph, D, Opts, R);
  return R;
}
