//===- Analyzer.cpp - End-to-end analyzer facade --------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"

#include "domains/Interner.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "obs/Postmortem.h"
#include "obs/Trace.h"
#include "support/Fault.h"
#include "support/Resource.h"
#include "support/ThreadPool.h"

using namespace spa;

namespace {

/// Journals PhaseBegin/PhaseEnd around an analyzer phase (names from the
/// fixed table in obs/Journal.cpp).  Complements SPA_OBS_TRACE, which
/// logs; the journal survives into postmortems.
struct PhaseJournalScope {
  uint16_t Id;
  explicit PhaseJournalScope(const char *Phase)
      : Id(obs::journalPhaseId(Phase)) {
    SPA_OBS_JOURNAL(PhaseBegin, Id, 0);
  }
  ~PhaseJournalScope() { SPA_OBS_JOURNAL(PhaseEnd, Id, 0); }
  PhaseJournalScope(const PhaseJournalScope &) = delete;
  PhaseJournalScope &operator=(const PhaseJournalScope &) = delete;
};

} // namespace

void spa::exportValueSharingStats() {
  InternStats P = combinedInternerStats();
  SPA_OBS_GAUGE_SET("value.pool.nodes", P.Nodes);
  SPA_OBS_GAUGE_SET("value.pool.hits", P.Hits);
  SPA_OBS_GAUGE_SET("value.pool.misses", P.Misses);
  SPA_OBS_GAUGE_SET("value.pool.hit_rate",
                    P.Hits + P.Misses
                        ? static_cast<double>(P.Hits) / (P.Hits + P.Misses)
                        : 0);
  SPA_OBS_GAUGE_SET("value.pool.join_cache_hits", P.JoinCacheHits);
  SPA_OBS_GAUGE_SET("value.pool.join_cache_misses", P.JoinCacheMisses);
  SPA_OBS_GAUGE_SET("value.pool.bytes", P.Bytes);
  SPA_OBS_GAUGE_SET("state.cow.detaches",
                    CowStats::Detaches.load(std::memory_order_relaxed));
  SPA_OBS_GAUGE_SET("state.cow.adoptions",
                    CowStats::Adoptions.load(std::memory_order_relaxed));
}

void spa::recordBudgetEnd(const Budget *Bud, BudgetReason &Stop,
                          uint64_t &Steps) {
  if (!Bud)
    return;
  Stop = Bud->reason();
  Steps = Bud->steps();
  SPA_OBS_GAUGE_SET("budget.steps", double(Steps));
  SPA_OBS_GAUGE_SET("budget.exhausted", Bud->exhausted() ? 1 : 0);
  // SPA_OBS_COUNT needs a literal name per call site, hence the chain.
  switch (Stop) {
  case BudgetReason::None:
    break;
  case BudgetReason::Deadline:
    SPA_OBS_COUNT("budget.stops.deadline", 1);
    break;
  case BudgetReason::Steps:
    SPA_OBS_COUNT("budget.stops.steps", 1);
    break;
  case BudgetReason::Memory:
    SPA_OBS_COUNT("budget.stops.memory", 1);
    break;
  case BudgetReason::Cancelled:
    SPA_OBS_COUNT("budget.stops.cancelled", 1);
    break;
  }
}

double AnalysisRun::depBuildSeconds() const {
  return Graph ? Graph->BuildSeconds : 0;
}

double AnalysisRun::depSeconds() const {
  return PreSeconds + DefUseSeconds + depBuildSeconds();
}

double AnalysisRun::fixSeconds() const {
  if (Dense)
    return Dense->Seconds;
  if (Sparse)
    return Sparse->Seconds;
  return 0;
}

std::string spa::ledgerNodeLabel(const Program &Prog, const SparseGraph *Graph,
                                 uint32_t Node) {
  if (Graph && Graph->isPhi(Node)) {
    const PhiNode &Phi = Graph->phi(Node);
    return "phi(" + Prog.loc(Phi.L).Name + ") @ " +
           Prog.pointToString(Phi.At);
  }
  PointId P = Graph ? Graph->anchor(Node) : PointId(Node);
  return Prog.pointToString(P);
}

void spa::attributeLedger(obs::Ledger &Led, const Program &Prog,
                          const SparseGraph *Graph,
                          const CallGraphInfo *CG) {
  uint32_t N = Led.numRows();
  std::vector<uint32_t> FuncOfNode(N, 0);
  for (uint32_t Node = 0; Node < N; ++Node) {
    PointId P = Graph ? Graph->anchor(Node) : PointId(Node);
    FuncOfNode[Node] = Prog.point(P).Func.value();
  }
  // Inter-procedural phi co-attribution: a phi at a function entry joins
  // values arriving from call sites, so its cost is as much the caller's
  // as the callee's; a phi at a return site likewise merges callee exit
  // values into the caller.  Charge half to the co-function (the
  // smallest one for determinism across callgraph orderings); all other
  // nodes keep whole-cost attribution (CoFuncOf == FuncOf).
  std::vector<uint32_t> CoFuncOfNode;
  if (Graph && CG) {
    CoFuncOfNode = FuncOfNode;
    bool AnySplit = false;
    for (uint32_t Node = 0; Node < N; ++Node) {
      if (!Graph->isPhi(Node))
        continue;
      PointId At = Graph->phi(Node).At;
      const Command &Cmd = Prog.point(At).Cmd;
      if (Cmd.Kind == CmdKind::Entry) {
        const std::vector<PointId> &Sites =
            CG->callSitesOf(Prog.point(At).Func);
        if (Sites.empty())
          continue;
        PointId Min = Sites[0];
        for (PointId S : Sites)
          if (S.value() < Min.value())
            Min = S;
        CoFuncOfNode[Node] = Prog.point(Min).Func.value();
      } else if (Cmd.Kind == CmdKind::Return) {
        const std::vector<FuncId> &Cs = CG->callees(Cmd.Pair);
        if (Cs.empty())
          continue;
        FuncId Min = Cs[0];
        for (FuncId F : Cs)
          if (F.value() < Min.value())
            Min = F;
        CoFuncOfNode[Node] = Min.value();
      }
      AnySplit |= CoFuncOfNode[Node] != FuncOfNode[Node];
    }
    if (!AnySplit)
      CoFuncOfNode.clear(); // Intra-procedural program: no split rows.
  }
  // Partition attribution uses the same union-find components the
  // parallel fixpoint shards by; the numbering (smallest member
  // function) is independent of --jobs, so partition rows match across
  // job counts.  A dense run has no graph: one implicit partition.
  std::vector<uint32_t> CompOfNode;
  uint32_t NumComps = 1;
  if (Graph) {
    DepComponents DC = computeDepComponents(Prog, *Graph);
    CompOfNode = std::move(DC.CompOfNode);
    NumComps = DC.NumComps;
  }
  std::vector<std::string> FuncNames;
  FuncNames.reserve(Prog.numFuncs());
  for (uint32_t F = 0; F < Prog.numFuncs(); ++F)
    FuncNames.push_back(Prog.function(FuncId(F)).Name);
  Led.attribute(std::move(FuncOfNode), std::move(CompOfNode),
                std::move(FuncNames), std::move(CoFuncOfNode));

  obs::PointCost T = Led.totals();
  SPA_OBS_GAUGE_SET("ledger.nodes", N);
  SPA_OBS_GAUGE_SET("ledger.partitions", NumComps);
  SPA_OBS_GAUGE_SET("ledger.growth", T.Growth);
  SPA_OBS_GAUGE_SET("ledger.time_micros", T.TimeMicros);
  // Snapshot for crash forensics: a postmortem written after this point
  // carries the fixpoint's final cost rollup even if the process dies in
  // a later phase (check, export, a second batch item).
  obs::postmortemSetLedgerRollup(T.Visits, T.Widenings, T.Growth,
                                 T.TimeMicros);
}

bool AnalysisRun::degraded() const {
  if (Pre.Degraded)
    return true;
  if (Dense && Dense->Degraded)
    return true;
  if (Sparse && Sparse->Degraded)
    return true;
  return false;
}

AnalysisRun spa::analyzeProgram(const Program &Prog,
                                const AnalyzerOptions &Opts) {
  SPA_OBS_TRACE("analyze");
  // Freeze the metrics registry into the signal-safe postmortem index:
  // instruments touched by earlier runs (or registered eagerly below)
  // become readable from the crash handler without locking.
  obs::postmortemRefreshRegistryIndex();
  SPA_OBS_GAUGE_SET("program.points", Prog.numPoints());
  SPA_OBS_GAUGE_SET("program.locs", Prog.numLocs());
  SPA_OBS_GAUGE_SET("program.funcs", Prog.numFuncs());
  unsigned Jobs = Opts.Jobs ? Opts.Jobs : ThreadPool::defaultJobs();
  SPA_OBS_GAUGE_SET("par.jobs", Jobs);

  // One cooperative budget for the whole run: every phase (and every
  // worker lane) charges the same token, so the first limit to trip
  // stops all of them within a bounded number of steps.
  std::optional<Budget> BudgetStorage;
  if (Opts.Budget.enabled())
    BudgetStorage.emplace(Opts.Budget);
  Budget *Bud = BudgetStorage ? &*BudgetStorage : nullptr;

  // Per-point cost ledger for the main fixpoint (never allocated when
  // observability is compiled out).
  std::shared_ptr<obs::Ledger> Led;
  if constexpr (obs::LedgerEnabled)
    Led = std::make_shared<obs::Ledger>();

  Timer PreClock;
  CpuTimer TotalCpu;
  AnalysisRun Run{[&] {
                    SPA_OBS_TRACE("pre-analysis");
                    PhaseJournalScope PJ("pre");
                    maybeInjectFault("pre");
                    return runPreAnalysis(Prog, Opts.Sem,
                                          /*WidenAfterSweeps=*/3, Opts.Pre,
                                          Bud);
                  }(),
                  DefUseInfo{}, {}, {}, {}, 0, 0};
  Run.PreSeconds = PreClock.seconds();
  SPA_OBS_GAUGE_SET("phase.pre.seconds", Run.PreSeconds);

  Timer DuClock;
  CpuTimer DuCpu;
  {
    SPA_OBS_TRACE("def-use");
    PhaseJournalScope PJ("defuse");
    maybeInjectFault("defuse");
    Run.DU = computeDefUse(Prog, Run.Pre, Jobs, Bud);
  }
  Run.DefUseSeconds = DuClock.seconds();
  SPA_OBS_GAUGE_SET("phase.defuse.seconds", Run.DefUseSeconds);
  SPA_OBS_GAUGE_SET("phase.defuse.cpu_seconds", DuCpu.seconds());

  switch (Opts.Engine) {
  case EngineKind::Vanilla:
  case EngineKind::Base: {
    DenseOptions DOpts;
    DOpts.Sem = Opts.Sem;
    DOpts.Localize = Opts.Engine == EngineKind::Base;
    DOpts.NarrowingPasses = Opts.NarrowingPasses;
    DOpts.WideningDelay = Opts.WideningDelay;
    DOpts.Bud = Bud;
    DOpts.DegradeTo = &Run.Pre.Global;
    DOpts.Led = Led.get();
    SPA_OBS_TRACE("fixpoint");
    PhaseJournalScope PJ("fix");
    maybeInjectFault("fix");
    Run.Dense = runDenseAnalysis(Prog, Run.Pre.CG, &Run.DU, DOpts);
    break;
  }
  case EngineKind::Sparse: {
    if (Opts.PrebuiltGraph) {
      // Warm start from a snapshot-embedded graph: the whole depbuild
      // phase collapses to a move.  BuildSeconds stays whatever the
      // decoder left (0), which is the honest Dep cost of this run.
      Run.Graph = std::move(*Opts.PrebuiltGraph);
    } else {
      SPA_OBS_TRACE("dep-build");
      PhaseJournalScope PJ("depbuild");
      maybeInjectFault("depbuild");
      CpuTimer DepCpu;
      DepOptions DepOpts = Opts.Dep;
      DepOpts.Jobs = Jobs;
      DepOpts.Bud = Bud;
      Run.Graph = buildDepGraph(Prog, Run.Pre.CG, Run.DU, DepOpts);
      SPA_OBS_GAUGE_SET("phase.depbuild.cpu_seconds", DepCpu.seconds());
    }
    SparseOptions SOpts;
    SOpts.Sem = Opts.Sem;
    SOpts.WideningDelay = Opts.WideningDelay;
    SOpts.Jobs = Jobs;
    SOpts.Bud = Bud;
    SOpts.DegradeTo = &Run.Pre.Global;
    SOpts.Led = Led.get();
    if (Opts.BeforeSparseFix)
      Opts.BeforeSparseFix(Run, SOpts);
    SPA_OBS_TRACE("fixpoint");
    PhaseJournalScope PJ("fix");
    maybeInjectFault("fix");
    CpuTimer FixCpu;
    Run.Sparse = runSparseAnalysis(Prog, Run.Pre.CG, *Run.Graph, SOpts);
    SPA_OBS_GAUGE_SET("phase.fix.cpu_seconds", FixCpu.seconds());
    break;
  }
  }

  if (Led) {
    attributeLedger(*Led, Prog, Run.Graph ? &*Run.Graph : nullptr,
                    &Run.Pre.CG);
    Run.Ledger = std::move(Led);
  }

  exportDepBuildGauges(Run.Graph ? &*Run.Graph : nullptr);
  SPA_OBS_GAUGE_SET("phase.fix.seconds", Run.fixSeconds());
  SPA_OBS_GAUGE_SET("phase.total.seconds", Run.totalSeconds());
  // Wall vs. cpu per phase: cpu_seconds > seconds means the phase ran on
  // multiple lanes; cpu_seconds ≈ seconds means it was sequential.
  SPA_OBS_GAUGE_SET("phase.total.cpu_seconds", TotalCpu.seconds());
  SPA_OBS_GAUGE_MAX("mem.peak_rss_kib", currentPeakRssKiB());
  exportValueSharingStats();
  recordBudgetEnd(Bud, Run.BudgetStop, Run.BudgetSteps);
  SPA_OBS_GAUGE_SET("analysis.degraded", Run.degraded() ? 1 : 0);
  // Re-freeze the postmortem index: instruments created during this run
  // (counter/gauge call sites register lazily) become crash-readable.
  obs::postmortemRefreshRegistryIndex();
  return Run;
}
