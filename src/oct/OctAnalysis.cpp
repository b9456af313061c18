//===- OctAnalysis.cpp - Packed relational (octagon) analyzers -------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "oct/OctAnalysis.h"

#include "core/Fixpoint.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cassert>

using namespace spa;

namespace {

LocId packAsLoc(PackId P) { return LocId(P.value()); }

//===----------------------------------------------------------------------===//
// Pack-space def/use sets
//===----------------------------------------------------------------------===//

class OctDefUseBuilder {
public:
  OctDefUseBuilder(const Program &Prog, const PreAnalysisResult &Pre,
                   const Packing &Packs)
      : Prog(Prog), Pre(Pre), Packs(Packs) {}

  DefUseInfo run() {
    DefUseInfo Info;
    size_t N = Prog.numPoints();
    Info.Defs.resize(N);
    Info.Uses.resize(N);
    for (uint32_t P = 0; P < N; ++P)
      collect(PointId(P), Info.Defs[P], Info.Uses[P]);
    for (uint32_t P = 0; P < N; ++P) {
      sortUnique(Info.Defs[P]);
      sortUnique(Info.Uses[P]);
    }
    foldInterproceduralSummaries(Prog, Pre.CG, Info);
    return Info;
  }

private:
  static void sortUnique(std::vector<LocId> &V) {
    std::sort(V.begin(), V.end());
    V.erase(std::unique(V.begin(), V.end()), V.end());
  }

  void addPacksOf(LocId L, std::vector<LocId> &Out) const {
    for (PackId P : Packs.packsOf(L))
      Out.push_back(packAsLoc(P));
  }

  void addSingleton(LocId L, std::vector<LocId> &Out) const {
    Out.push_back(packAsLoc(Packs.singleton(L)));
  }

  /// Packs the interval evaluation of \p E reads: singleton packs of
  /// variables and of dereference targets, plus shared packs of variable
  /// pairs (the pairwise-projection reads of the transfer).
  void addExprUses(const IExpr &E, std::vector<LocId> &Out) const {
    switch (E.Kind) {
    case IExprKind::Var:
      addSingleton(E.Loc, Out);
      return;
    case IExprKind::Deref:
      for (LocId T : Pre.state().get(E.Loc).Pts)
        addSingleton(T, Out);
      return;
    case IExprKind::Binary:
      if ((E.Op == BinOp::Add || E.Op == BinOp::Sub) &&
          E.Lhs->Kind == IExprKind::Var &&
          E.Rhs->Kind == IExprKind::Var) {
        for (PackId P : Packs.packsOf(E.Lhs->Loc))
          if (Packs.indexIn(P, E.Rhs->Loc) >= 0)
            Out.push_back(packAsLoc(P));
      }
      addExprUses(*E.Lhs, Out);
      addExprUses(*E.Rhs, Out);
      return;
    default:
      return;
    }
  }

  void collect(PointId P, std::vector<LocId> &Defs,
               std::vector<LocId> &Uses) {
    const Command &Cmd = Prog.point(P).Cmd;
    switch (Cmd.Kind) {
    case CmdKind::Skip:
    case CmdKind::Entry:
    case CmdKind::Exit:
      return;
    case CmdKind::Assign:
    case CmdKind::RetStmt:
      addPacksOf(Cmd.Target, Defs);
      addPacksOf(Cmd.Target, Uses); // Relational update reads the pack.
      addExprUses(*Cmd.E, Uses);
      return;
    case CmdKind::Alloc:
      addPacksOf(Cmd.Target, Defs);
      addPacksOf(Cmd.Target, Uses);
      addSingleton(Cmd.AllocSite, Defs);
      addSingleton(Cmd.AllocSite, Uses); // Weak zero-init join.
      addExprUses(*Cmd.E, Uses);
      return;
    case CmdKind::Store:
      for (LocId T : Pre.state().get(Cmd.Target).Pts) {
        addPacksOf(T, Defs);
        addPacksOf(T, Uses); // Weak updates read the old pack value.
      }
      addExprUses(*Cmd.E, Uses);
      return;
    case CmdKind::Assume: {
      auto Side = [&](const IExpr &E) {
        if (E.Kind == IExprKind::Var) {
          addPacksOf(E.Loc, Defs);
          addPacksOf(E.Loc, Uses);
        }
      };
      Side(*Cmd.Cnd->Lhs);
      Side(*Cmd.Cnd->Rhs);
      addExprUses(*Cmd.Cnd->Lhs, Uses);
      addExprUses(*Cmd.Cnd->Rhs, Uses);
      return;
    }
    case CmdKind::Call: {
      if (Cmd.External)
        return;
      for (FuncId G : Pre.CG.callees(P)) {
        const FunctionInfo &F = Prog.function(G);
        size_t NArgs = std::min(F.Params.size(), Cmd.Args.size());
        for (size_t I = 0; I < NArgs; ++I) {
          addPacksOf(F.Params[I], Defs);
          addPacksOf(F.Params[I], Uses); // Binding reads (weak/relational).
          addExprUses(*Cmd.Args[I], Uses);
        }
      }
      return;
    }
    case CmdKind::Return: {
      if (!Cmd.Target.isValid())
        return;
      addPacksOf(Cmd.Target, Defs);
      addPacksOf(Cmd.Target, Uses);
      const Command &CallCmd = Prog.point(Cmd.Pair).Cmd;
      if (CallCmd.External)
        return;
      for (FuncId G : Pre.CG.callees(Cmd.Pair))
        addSingleton(Prog.function(G).RetSlot, Uses);
      return;
    }
    }
  }

  const Program &Prog;
  const PreAnalysisResult &Pre;
  const Packing &Packs;
};

//===----------------------------------------------------------------------===//
// Transfer function
//===----------------------------------------------------------------------===//

/// Shared octagon transfer, templated over a state-like type providing
/// `const OctVal &get(PackId)` (⊤ of the right arity when unbound) and
/// `void set(PackId, OctVal)`.
template <typename StateT> class OctTransfer {
public:
  OctTransfer(const Program &Prog, const PreAnalysisResult &Pre,
              const Packing &Packs, StateT &S)
      : Prog(Prog), Pre(Pre), Packs(Packs), S(S) {}

  void apply(PointId P) {
    const Command &Cmd = Prog.point(P).Cmd;
    switch (Cmd.Kind) {
    case CmdKind::Skip:
    case CmdKind::Entry:
    case CmdKind::Exit:
      return;
    case CmdKind::Assign:
    case CmdKind::RetStmt:
      assignExpr(Cmd.Target, *Cmd.E, /*Weak=*/false);
      return;
    case CmdKind::Alloc: {
      // The pointer's numeric projection is unconstrained; the summary
      // cells start at zero (weak join).
      assignIntervalToLoc(Cmd.Target, Interval::top(), /*Weak=*/false);
      assignIntervalToLoc(Cmd.AllocSite, Interval::constant(0),
                          /*Weak=*/true);
      return;
    }
    case CmdKind::Store: {
      Interval V = evalInterval(*Cmd.E);
      for (LocId T : Pre.state().get(Cmd.Target).Pts)
        assignIntervalToLoc(T, V, /*Weak=*/true);
      return;
    }
    case CmdKind::Assume:
      applyAssume(*Cmd.Cnd);
      return;
    case CmdKind::Call: {
      if (Cmd.External)
        return;
      const auto &Callees = Pre.CG.callees(P);
      bool Weak = Callees.size() > 1;
      for (FuncId G : Callees) {
        const FunctionInfo &F = Prog.function(G);
        size_t NArgs = std::min(F.Params.size(), Cmd.Args.size());
        for (size_t I = 0; I < NArgs; ++I)
          assignExpr(F.Params[I], *Cmd.Args[I], Weak);
      }
      return;
    }
    case CmdKind::Return: {
      if (!Cmd.Target.isValid())
        return;
      const Command &CallCmd = Prog.point(Cmd.Pair).Cmd;
      const auto &Callees =
          CallCmd.External ? std::vector<FuncId>{} : Pre.CG.callees(Cmd.Pair);
      if (Callees.empty()) {
        assignIntervalToLoc(Cmd.Target, Interval::top(), /*Weak=*/false);
        return;
      }
      if (Callees.size() == 1) {
        // Exact relational copy when the return slot shares a pack.
        IExpr RetVar;
        RetVar.Kind = IExprKind::Var;
        RetVar.Loc = Prog.function(Callees[0]).RetSlot;
        assignVarLike(Cmd.Target, RetVar.Loc, 0, /*Weak=*/false);
        return;
      }
      Interval V;
      for (FuncId G : Callees)
        V = V.join(projectLoc(Prog.function(G).RetSlot));
      assignIntervalToLoc(Cmd.Target, V, /*Weak=*/false);
      return;
    }
    }
  }

private:
  /// Interval of \p L from its singleton pack (the projection p_x).
  Interval projectLoc(LocId L) const {
    PackId P = Packs.singleton(L);
    return S.get(P).project(0);
  }

  Interval evalInterval(const IExpr &E) const {
    switch (E.Kind) {
    case IExprKind::Num:
      return Interval::constant(E.Num);
    case IExprKind::Input:
    case IExprKind::AddrOf:   // Non-numeric values project to ⊤.
    case IExprKind::FuncAddr:
      return Interval::top();
    case IExprKind::Var:
      return projectLoc(E.Loc);
    case IExprKind::Deref: {
      Interval R;
      for (LocId T : Pre.state().get(E.Loc).Pts)
        R = R.join(projectLoc(T));
      return R;
    }
    case IExprKind::Binary: {
      Interval A = evalInterval(*E.Lhs), B = evalInterval(*E.Rhs);
      switch (E.Op) {
      case BinOp::Add:
        return A.add(B);
      case BinOp::Sub:
        return A.sub(B);
      case BinOp::Mul:
        return A.mul(B);
      case BinOp::Div:
        return A.div(B);
      case BinOp::Mod:
        return A.rem(B);
      }
      return Interval::top();
    }
    }
    return Interval::top();
  }

  void setPack(PackId P, OctVal New, bool Weak) {
    if (Weak)
      New = S.get(P).join(New);
    S.set(P, std::move(New));
  }

  /// x := y + c, relational where the pack allows it.
  void assignVarLike(LocId X, LocId Y, int64_t C, bool Weak) {
    for (PackId P : Packs.packsOf(X)) {
      int IX = Packs.indexIn(P, X);
      int IY = Packs.indexIn(P, Y);
      const OctVal &Old = S.get(P);
      OctVal New = IY >= 0 ? Old.assignVarPlusConst(IX, IY, C)
                        : Old.assignInterval(
                              IX, projectLoc(Y).add(Interval::constant(C)));
      setPack(P, std::move(New), Weak);
    }
  }

  void assignIntervalToLoc(LocId X, const Interval &V, bool Weak) {
    for (PackId P : Packs.packsOf(X)) {
      int IX = Packs.indexIn(P, X);
      setPack(P, S.get(P).assignInterval(IX, V), Weak);
    }
  }

  /// Interval of (a ± b) using a pack that relates both variables, when
  /// one exists (a strictly better bound than combining the singleton
  /// projections).
  Interval projectPairwise(LocId A, LocId B, bool Sum) const {
    Interval Best = Interval::top();
    for (PackId P : Packs.packsOf(A)) {
      int IA = Packs.indexIn(P, A);
      int IB = Packs.indexIn(P, B);
      if (IB < 0)
        continue;
      const OctVal &O = S.get(P);
      Interval V = Sum ? O.projectSum(IA, IB) : O.projectDiff(IA, IB);
      Best = Best.meet(V);
    }
    return Best;
  }

  /// x := e with the Section 4.1 command transformation: out-of-pack
  /// variables are replaced by their projected intervals.
  void assignExpr(LocId X, const IExpr &E, bool Weak) {
    // Exact forms: y, y + n, y - n, n + y.
    if (E.Kind == IExprKind::Var) {
      assignVarLike(X, E.Loc, 0, Weak);
      return;
    }
    if (E.Kind == IExprKind::Binary &&
        (E.Op == BinOp::Add || E.Op == BinOp::Sub)) {
      const IExpr &L = *E.Lhs, &R = *E.Rhs;
      if (L.Kind == IExprKind::Var && R.Kind == IExprKind::Num) {
        assignVarLike(X, L.Loc, E.Op == BinOp::Add ? R.Num : -R.Num, Weak);
        return;
      }
      if (E.Op == BinOp::Add && L.Kind == IExprKind::Num &&
          R.Kind == IExprKind::Var) {
        assignVarLike(X, R.Loc, L.Num, Weak);
        return;
      }
      // y ± z with both variables in one pack: project the pairwise
      // bound (e.g. d := y - x is exact when the pack knows y - x).
      if (L.Kind == IExprKind::Var && R.Kind == IExprKind::Var) {
        Interval V =
            projectPairwise(L.Loc, R.Loc, /*Sum=*/E.Op == BinOp::Add)
                .meet(evalInterval(E));
        assignIntervalToLoc(X, V, Weak);
        return;
      }
    }
    assignIntervalToLoc(X, evalInterval(E), Weak);
  }

  /// Octagonal constraint for `x Op y` on pack \p P (indices IX, IY).
  static OctVal applyRelVarVar(const OctVal &O, int IX, int IY, RelOp Op) {
    switch (Op) {
    case RelOp::Lt:
      return O.addDiffConstraint(IX, IY, -1);
    case RelOp::Le:
      return O.addDiffConstraint(IX, IY, 0);
    case RelOp::Gt:
      return O.addDiffConstraint(IY, IX, -1);
    case RelOp::Ge:
      return O.addDiffConstraint(IY, IX, 0);
    case RelOp::Eq:
      return O.addDiffConstraint(IX, IY, 0).addDiffConstraint(IY, IX, 0);
    case RelOp::Ne:
      return O;
    }
    return O;
  }

  /// Interval constraint for `x Op [lo, hi]` on variable IX of \p O.
  static OctVal applyRelVarItv(const OctVal &O, int IX, RelOp Op,
                               const Interval &R) {
    if (R.isBot())
      return O;
    switch (Op) {
    case RelOp::Lt:
      return R.hi() == bound::PosInf ? O
                                     : O.addUpperBound(IX, R.hi() - 1);
    case RelOp::Le:
      return R.hi() == bound::PosInf ? O : O.addUpperBound(IX, R.hi());
    case RelOp::Gt:
      return R.lo() == bound::NegInf ? O
                                     : O.addLowerBound(IX, R.lo() + 1);
    case RelOp::Ge:
      return R.lo() == bound::NegInf ? O : O.addLowerBound(IX, R.lo());
    case RelOp::Eq: {
      OctVal Res = O;
      if (R.hi() != bound::PosInf)
        Res = Res.addUpperBound(IX, R.hi());
      if (R.lo() != bound::NegInf)
        Res = Res.addLowerBound(IX, R.lo());
      return Res;
    }
    case RelOp::Ne:
      return O;
    }
    return O;
  }

  void applyAssume(const ICond &C) {
    auto RefineSide = [&](const IExpr &Side, const IExpr &Other, RelOp Op) {
      if (Side.Kind != IExprKind::Var)
        return;
      LocId X = Side.Loc;
      Interval OtherItv = evalInterval(Other);
      for (PackId P : Packs.packsOf(X)) {
        int IX = Packs.indexIn(P, X);
        const OctVal &Old = S.get(P);
        OctVal New = Old;
        if (Other.Kind == IExprKind::Var) {
          int IY = Packs.indexIn(P, Other.Loc);
          if (IY >= 0)
            New = applyRelVarVar(Old, IX, IY, Op);
          else
            New = applyRelVarItv(Old, IX, Op, OtherItv);
        } else {
          New = applyRelVarItv(Old, IX, Op, OtherItv);
        }
        S.set(P, std::move(New));
      }
    };
    RefineSide(*C.Lhs, *C.Rhs, C.Op);
    RefineSide(*C.Rhs, *C.Lhs, swapRelOp(C.Op));
  }

  const Program &Prog;
  const PreAnalysisResult &Pre;
  const Packing &Packs;
  StateT &S;
};

//===----------------------------------------------------------------------===//
// The octagon domain adapter
//===----------------------------------------------------------------------===//

/// After WideningDelay × this many changes an entry jumps straight to ⊤:
/// octagon widening through closure needs a backstop.
constexpr unsigned HardLimitFactor = 8;

/// The octagon domain adapter (interface in core/Fixpoint.h): pack states,
/// the transfer above, ⊤ fill on degradation, the hard ⊤ cut, and closure
/// ticks charged to the ledger.
class OctDomain {
public:
  using State = OctState;
  using Key = PackId;
  using Val = OctVal;
  static constexpr bool Narrows = false;
  static constexpr uint64_t JournalBase = 2;

  OctDomain(const Program &Prog, const PreAnalysisResult &Pre,
            const Packing &Packs, unsigned WideningDelay)
      : Prog(Prog), Pre(Pre), Packs(Packs),
        HardLimit(WideningDelay * HardLimitFactor) {
    // ⊤ per pack arity, built up front so concurrent shards only read it.
    for (uint32_t P = 0; P < Packs.numPacks(); ++P) {
      size_t Arity = Packs.vars(PackId(P)).size();
      for (size_t A = Tops.size(); A <= Arity; ++A)
        Tops.push_back(Oct::top(static_cast<uint32_t>(A)));
    }
  }

  const OctVal &top(PackId P) const {
    return Tops[Packs.vars(P).size()];
  }

  static LocId locOf(PackId P) { return packAsLoc(P); }
  static PackId keyOf(LocId L) { return PackId(L.value()); }

  bool merge(OctState &Post, const OctState &Out, MergeOp Op) const {
    if (Op == MergeOp::Cut)
      SPA_OBS_COUNT("oct.hard_tops", 1);
    return Post.mergeWith(Out, [&](OctVal &A, const OctVal &B) {
      OctVal New = Op == MergeOp::Cut     ? Oct::top(A.numVars())
                   : Op == MergeOp::Widen ? A.widen(A.join(B))
                                          : A.join(B);
      if (New == A)
        return false;
      A = std::move(New);
      return true;
    });
  }
  uint32_t cutAfter() const { return HardLimit; }
  OctVal extrapolate(LocId, const OctVal &Old, const OctVal &V,
                     MergeOp Op) const {
    if (Op == MergeOp::Cut) {
      SPA_OBS_COUNT("oct.hard_tops", 1);
      return Oct::top(Old.numVars());
    }
    return Old.widen(Old.join(V));
  }
  /// Sparse growth unit: a pack entry materialized in an input buffer for
  /// the first time.
  static uint64_t growth(const OctVal *Old, const OctVal &) {
    return Old ? 0 : 1;
  }

  void transfer(PointId P, OctState &S) const {
    DenseView View{S, *this};
    OctTransfer<DenseView>(Prog, Pre, Packs, View).apply(P);
  }
  /// Emits the output over Defs ∩ (written ∪ Pending) (walkSparseOutput):
  /// overlay where written, input passthrough otherwise.
  template <typename EmitFn>
  void transfer(PointId P, InputSlots<OctVal> In,
                const std::vector<LocId> &Defs, std::vector<LocId> &Pending,
                EmitFn Emit) const {
    SparseView View{In, *this, {}};
    OctTransfer<SparseView>(Prog, Pre, Packs, View).apply(P);
    walkSparseOutput<OctDomain>(
        View.Overlay, Defs, Pending,
        [&](LocId L, OctVal &V) { Emit(L, std::move(V)); },
        [&](LocId L) {
          if (const OctVal *V = In.find(L))
            Emit(L, *V);
        });
  }

  /// Degradation binds packs to ⊤: all-⊤ over-approximates every concrete
  /// memory, and downstream projections read missing packs as ⊥, so the
  /// entries must be materialized.
  void degrade(OctState &S) const {
    for (uint32_t P = 0; P < Packs.numPacks(); ++P)
      S.set(PackId(P), top(PackId(P)));
  }
  void degrade(OctState &S, LocId L) const { S.set(keyOf(L), top(keyOf(L))); }

  /// Closure ticks run since construction, charged to one ledger row.
  class ClosureCost {
  public:
    /// \p JournalBurst: a visit that crosses a 4096-closure boundary is a
    /// closure burst (the relational analogue of WidenBurst).
    void charge(obs::Ledger *Led, uint32_t Node, bool JournalBurst) const {
      uint64_t After = oct_detail::closureTicks();
      if (JournalBurst && (Before >> 12) != (After >> 12))
        SPA_OBS_JOURNAL(OctCloseBurst, Node, After);
      if (Led)
        Led->row(Node).Closures += static_cast<uint32_t>(After - Before);
    }

  private:
    uint64_t Before = oct_detail::closureTicks();
  };
  ClosureCost cost() const { return {}; }

private:
  /// Dense view: reads fall back to ⊤ (non-strict transfers); writes go
  /// to the underlying state.
  struct DenseView {
    OctState &S;
    const OctDomain &D;
    const OctVal &get(PackId P) const {
      const OctVal *V = S.lookup(P);
      return V ? *V : D.top(P);
    }
    void set(PackId P, OctVal V) { S.set(P, std::move(V)); }
  };

  /// Sparse view: reads fall back to the node's input slots, then ⊤;
  /// writes land in an overlay.
  struct SparseView {
    InputSlots<OctVal> In;
    const OctDomain &D;
    OctState Overlay;
    const OctVal &get(PackId P) const {
      if (const OctVal *V = Overlay.lookup(P))
        return *V;
      if (const OctVal *V = In.find(locOf(P)))
        return *V;
      return D.top(P);
    }
    void set(PackId P, OctVal V) { Overlay.set(P, std::move(V)); }
  };

  const Program &Prog;
  const PreAnalysisResult &Pre;
  const Packing &Packs;
  unsigned HardLimit;
  std::vector<OctVal> Tops;
};

} // namespace

DefUseInfo spa::computeOctDefUse(const Program &Prog,
                                 const PreAnalysisResult &Pre,
                                 const Packing &Packs) {
  return OctDefUseBuilder(Prog, Pre, Packs).run();
}

//===----------------------------------------------------------------------===//
// OctRun
//===----------------------------------------------------------------------===//

double OctRun::depSeconds() const {
  double S = PreSeconds + DefUseSeconds;
  if (Graph)
    S += Graph->BuildSeconds;
  return S;
}

double OctRun::fixSeconds() const {
  if (Dense)
    return Dense->Seconds;
  if (Sparse)
    return Sparse->Seconds;
  return 0;
}

bool OctRun::degraded() const {
  if (Pre.Degraded)
    return true;
  if (Dense && Dense->Degraded)
    return true;
  if (Sparse && Sparse->Degraded)
    return true;
  return false;
}

Interval OctRun::denseIntervalAt(PointId P, LocId L) const {
  assert(Dense && "dense result required");
  PackId S = Packs.singleton(L);
  const OctVal *V = Dense->Post[P.value()].lookup(S);
  return V ? V->project(0) : Interval::bot();
}

OctRun spa::runOctAnalysis(const Program &Prog, const OctOptions &Opts) {
  SPA_OBS_TRACE("oct-analyze");
  SPA_OBS_GAUGE_SET("program.points", Prog.numPoints());
  SPA_OBS_GAUGE_SET("program.locs", Prog.numLocs());
  SPA_OBS_GAUGE_SET("program.funcs", Prog.numFuncs());

  std::optional<Budget> BudgetStorage;
  if (Opts.Budget.enabled())
    BudgetStorage.emplace(Opts.Budget);
  Budget *Bud = BudgetStorage ? &*BudgetStorage : nullptr;

  // Per-point cost ledger for the octagon fixpoint (never allocated when
  // observability is compiled out).
  std::shared_ptr<obs::Ledger> Led;
  if constexpr (obs::LedgerEnabled)
    Led = std::make_shared<obs::Ledger>();

  Timer PreClock;
  SemanticsOptions Sem;
  OctRun Run{[&] {
               SPA_OBS_TRACE("pre-analysis");
               maybeInjectFault("pre");
               return runPreAnalysis(Prog, Sem, /*WidenAfterSweeps=*/3,
                                     PreAnalysisKind::Precise, Bud);
             }(),
             Packing{}, DefUseInfo{}, {}, {}, {}, {}, 0, 0};
  Run.PreSeconds = PreClock.seconds();
  SPA_OBS_GAUGE_SET("phase.pre.seconds", Run.PreSeconds);

  Timer DuClock;
  {
    SPA_OBS_TRACE("packing+def-use");
    Run.Packs = computePacking(Prog, Run.Pre);
    Run.DU = computeOctDefUse(Prog, Run.Pre, Run.Packs);
  }
  Run.DefUseSeconds = DuClock.seconds();
  SPA_OBS_GAUGE_SET("phase.defuse.seconds", Run.DefUseSeconds);
  SPA_OBS_GAUGE_SET("oct.packs", Run.Packs.numPacks());
  SPA_OBS_GAUGE_SET("oct.groups", Run.Packs.numGroups());
  SPA_OBS_GAUGE_SET("oct.avg_group_size", Run.Packs.avgGroupSize());
  SPA_OBS_GAUGE_SET("defuse.avg_def_size", Run.DU.avgSemanticDefSize());
  SPA_OBS_GAUGE_SET("defuse.avg_use_size", Run.DU.avgSemanticUseSize());

  OctDomain D(Prog, Run.Pre, Run.Packs, Opts.WideningDelay);
  switch (Opts.Engine) {
  case EngineKind::Vanilla:
  case EngineKind::Base: {
    DenseOptions DOpts;
    DOpts.Localize = Opts.Engine == EngineKind::Base;
    DOpts.WideningDelay = Opts.WideningDelay;
    DOpts.Bud = Bud;
    DOpts.Led = Led.get();
    SPA_OBS_TRACE("fixpoint");
    maybeInjectFault("fix");
    runDenseFixpoint(Prog, Run.Pre.CG, &Run.DU, D, DOpts, Run.Dense.emplace());
    break;
  }
  case EngineKind::Sparse: {
    DepOptions Dep = Opts.Dep;
    Dep.NumLocsOverride = Run.Packs.numPacks();
    Dep.Bud = Bud;
    {
      SPA_OBS_TRACE("dep-build");
      maybeInjectFault("depbuild");
      Run.Graph = buildDepGraph(Prog, Run.Pre.CG, Run.DU, Dep);
    }
    SparseOptions SOpts;
    SOpts.WideningDelay = Opts.WideningDelay;
    SOpts.Jobs = Opts.Dep.Jobs;
    SOpts.Bud = Bud;
    SOpts.Led = Led.get();
    SPA_OBS_TRACE("fixpoint");
    maybeInjectFault("fix");
    runSparseFixpoint(Prog, Run.Pre.CG, *Run.Graph, D, SOpts,
                      Run.Sparse.emplace());
    break;
  }
  }

  // Degradation ladder tier 2: a degraded octagon run also produces an
  // interval result.  The fallback analyzer gets a *fresh* budget with
  // the same limits (the shared one is already exhausted, and an
  // instantly-degrading fallback would add nothing); it degrades soundly
  // itself if the limits are genuinely too tight.  Run before the final
  // gauge writes so the octagon run's phase gauges win.
  if (Run.degraded()) {
    SPA_OBS_COUNT("oct.interval_fallbacks", 1);
    AnalyzerOptions FOpts;
    FOpts.Engine = EngineKind::Sparse;
    FOpts.Dep = Opts.Dep;
    FOpts.WideningDelay = Opts.WideningDelay;
    FOpts.Budget = Opts.Budget;
    Run.Fallback.emplace(analyzeProgram(Prog, FOpts));
  }

  // Attribute after the fallback: the fallback's own analyzeProgram wrote
  // its ledger gauges, and the octagon run's should win.
  if (Led) {
    attributeLedger(*Led, Prog, Run.Graph ? &*Run.Graph : nullptr,
                    &Run.Pre.CG);
    Run.Ledger = std::move(Led);
  }

  exportDepBuildGauges(Run.Graph ? &*Run.Graph : nullptr);
  SPA_OBS_GAUGE_SET("phase.fix.seconds", Run.fixSeconds());
  SPA_OBS_GAUGE_SET("phase.total.seconds", Run.depSeconds() + Run.fixSeconds());
  SPA_OBS_GAUGE_MAX("mem.peak_rss_kib", currentPeakRssKiB());
  // The octagon engines consume the interval pre-analysis invariant
  // (interned points-to sets) and COW pre-state snapshots, so the value
  // sharing gauges are meaningful here too.
  exportValueSharingStats();
  // After the fallback, whose analyzeProgram wrote its own budget.*
  // gauges: the octagon run's win.
  recordBudgetEnd(Bud, Run.BudgetStop, Run.BudgetSteps);
  SPA_OBS_GAUGE_SET("analysis.degraded", Run.degraded() ? 1 : 0);
  return Run;
}
