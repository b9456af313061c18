//===- degradation_test.cpp - Soundness under resource-budget degradation -------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The degradation ladder's core contract (docs/ROBUSTNESS.md): a run
/// stopped by its resource budget must still be a sound
/// over-approximation.  These tests fuzz generated programs under
/// aggressively small budgets (expired deadlines, tiny step limits, a
/// 1 KiB memory ceiling) and check every concrete state the interpreter
/// samples against the degraded abstract results — for the interval
/// analyzers (dense and sparse) and the octagon instance — plus the
/// cancellation-responsiveness bound: an exhausted budget stops every
/// engine within one visit per remaining step, an expired one at zero.
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/DenseAnalysis.h"
#include "core/PreAnalysis.h"
#include "interp/Interp.h"
#include "ir/Builder.h"
#include "oct/OctAnalysis.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

using namespace spa;

namespace {

/// gamma-membership: is the concrete value \p CV covered by abstract
/// \p AV?  (Same check random_test.cpp uses for the full-precision runs.)
bool contained(const Interp &I, const CValue &CV, const Value &AV) {
  switch (CV.K) {
  case CValue::Kind::Uninit:
    return true; // Reads of uninitialized cells trap; no constraint.
  case CValue::Kind::Int:
    return AV.Itv.contains(CV.I);
  case CValue::Kind::Fun:
    return AV.Funcs.contains(CV.F);
  case CValue::Kind::Ptr: {
    LocId Base = CV.Heap ? I.heapBlocks()[CV.Block].Site : CV.VarBase;
    return AV.Pts.contains(Base) && AV.Offset.contains(CV.Off) &&
           AV.Size.contains(I.blockSize(CV));
  }
  }
  return false;
}

std::unique_ptr<Program> buildGenerated(const GenConfig &Config) {
  std::string Source = generateSource(Config);
  BuildResult R = buildProgramFromSource(Source);
  EXPECT_TRUE(R.ok()) << R.Error << "\n" << Source;
  return std::move(R.Prog);
}

/// The aggressive budget regimes the fuzz sweeps.  Every regime must
/// yield a sound result whether or not it actually trips on a given
/// program (tiny programs can finish under the larger limits).
struct Regime {
  const char *Name;
  BudgetLimits Limits;
};

const Regime Regimes[] = {
    {"expired-deadline", {-1.0, 0, 0}},
    {"one-step", {0, 1, 0}},
    {"small-steps", {0, 157, 0}},
    {"tiny-memory", {0, 0, 1}}, // 1 KiB: trips at the first RSS probe.
};

GenConfig fuzzConfig(uint64_t Seed) {
  GenConfig Config;
  Config.Seed = Seed;
  Config.NumFunctions = 4;
  Config.StmtsPerFunction = 10;
  Config.AllowLoops = true;
  Config.AllowRecursion = (Seed % 2) == 0;
  Config.UseFunctionPointers = (Seed % 3) == 0;
  Config.SccGroupSize = (Seed % 4) == 0 ? 3 : 0;
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// Interval analyzers under budget pressure
//===----------------------------------------------------------------------===//

class DegradationSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DegradationSoundness, DegradedResultsCoverConcreteExecutions) {
  for (size_t RI = 0; RI < std::size(Regimes); ++RI) {
    const Regime &Reg = Regimes[RI];
    // A distinct program per (seed, regime): 25 seeds x 4 regimes = 100
    // generated programs across the suite.
    auto Prog = buildGenerated(fuzzConfig(GetParam() * 131 + RI));

    AnalyzerOptions VOpts;
    VOpts.Engine = EngineKind::Vanilla;
    VOpts.Budget = Reg.Limits;
    AnalysisRun Vanilla = analyzeProgram(*Prog, VOpts);
    // Only the deadline regime times out, and like every regime it
    // leaves a usable degraded result (checked below).
    ASSERT_EQ(Vanilla.timedOut(), Reg.Limits.DeadlineSec < 0) << Reg.Name;

    AnalyzerOptions SOpts;
    SOpts.Engine = EngineKind::Sparse;
    SOpts.Dep.Bypass = false; // Degradation tops the graph's def sets.
    SOpts.Budget = Reg.Limits;
    AnalysisRun Sparse = analyzeProgram(*Prog, SOpts);

    // Responsiveness: visits never exceed the step budget (each visit
    // charges at least one step before popping), and an expired
    // deadline stops every phase before its first visit.
    if (Reg.Limits.StepLimit) {
      EXPECT_LE(Vanilla.Dense->Visits + Sparse.Sparse->Visits,
                2 * Reg.Limits.StepLimit)
          << Reg.Name;
    }
    if (Reg.Limits.DeadlineSec < 0) {
      EXPECT_TRUE(Vanilla.degraded()) << Reg.Name;
      EXPECT_TRUE(Sparse.degraded()) << Reg.Name;
      EXPECT_EQ(Vanilla.Dense->Visits, 0u) << Reg.Name;
      EXPECT_EQ(Sparse.Sparse->Visits, 0u) << Reg.Name;
      // The pre-analysis itself degrades to the all-top invariant.
      EXPECT_TRUE(topAbsState(*Prog).leq(Vanilla.Pre.Global)) << Reg.Name;
    }

    // Interpreter containment against the (possibly degraded) results.
    InterpOptions IOpts;
    IOpts.InputSeed = 1 + GetParam();
    IOpts.MaxSteps = 4000;
    Interp Run(*Prog, Vanilla.Pre.CG, IOpts);
    uint64_t Tick = 0;
    Run.run([&](PointId P, const Interp &I) {
      ++Tick;
      for (LocId L : Vanilla.DU.Defs[P.value()]) {
        if (Prog->loc(L).isSummary())
          continue;
        EXPECT_TRUE(
            contained(I, I.varValue(L), Vanilla.Dense->Post[P.value()].get(L)))
            << Reg.Name << ": degraded vanilla misses " << Prog->loc(L).Name
            << " at " << Prog->pointToString(P);
      }
      for (LocId L : Sparse.Graph->NodeDefs[P.value()]) {
        if (Prog->loc(L).isSummary())
          continue;
        EXPECT_TRUE(contained(I, I.varValue(L),
                              Sparse.Sparse->Out[P.value()].get(L)))
            << Reg.Name << ": degraded sparse misses " << Prog->loc(L).Name
            << " at " << Prog->pointToString(P);
      }
      if ((Tick & 31) != 0)
        return;
      // Periodic full-memory check against the dense state, heap cells
      // against their allocation sites.
      for (uint32_t L = 0; L < Prog->numLocs(); ++L) {
        if (Prog->loc(LocId(L)).isSummary())
          continue;
        EXPECT_TRUE(contained(I, I.varValue(LocId(L)),
                              Vanilla.Dense->Post[P.value()].get(LocId(L))))
            << Reg.Name << ": degraded vanilla misses "
            << Prog->loc(LocId(L)).Name << " in full check at "
            << Prog->pointToString(P);
      }
      for (const HeapBlock &B : I.heapBlocks()) {
        const Value &Site = Vanilla.Dense->Post[P.value()].get(B.Site);
        for (const CValue &Cell : B.Cells)
          EXPECT_TRUE(contained(I, Cell, Site))
              << Reg.Name << ": degraded vanilla misses heap cell of "
              << Prog->loc(B.Site).Name;
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DegradationSoundness,
                         ::testing::Range<uint64_t>(1, 26));

//===----------------------------------------------------------------------===//
// Octagon instance under budget pressure
//===----------------------------------------------------------------------===//

class OctDegradationSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OctDegradationSoundness, DegradedProjectionsCoverConcreteRuns) {
  auto Prog = buildGenerated(fuzzConfig(GetParam() * 977 + 7));

  OctOptions Opts;
  Opts.Engine = EngineKind::Vanilla;
  Opts.Budget.StepLimit = 40; // Small enough to trip on most programs.
  OctRun Run = runOctAnalysis(*Prog, Opts);
  ASSERT_FALSE(Run.timedOut());
  EXPECT_LE(Run.Dense->Visits, Opts.Budget.StepLimit);

  // When the octagon run degraded, the interval fallback tier must be
  // present (and is itself budget-governed with a fresh token).
  if (Run.degraded()) {
    ASSERT_TRUE(Run.Fallback.has_value());
  }

  // Every sampled concrete integer must lie in the (possibly topped)
  // projection of its defined pack at every point: a concretely-reached
  // point was either visited by the engine (its def packs are bound, as
  // in octagon_test's full-precision OctSoundness) or is affected by the
  // degradation, which binds every pack to ⊤.
  InterpOptions IOpts;
  IOpts.InputSeed = 2;
  IOpts.MaxSteps = 3000;
  Interp I(*Prog, Run.Pre.CG, IOpts);
  I.run([&](PointId P, const Interp &It) {
    for (LocId PL : Run.DU.Defs[P.value()]) {
      PackId Pack(PL.value());
      for (LocId Member : Run.Packs.vars(Pack)) {
        if (Prog->loc(Member).isSummary())
          continue;
        const CValue &CV = It.varValue(Member);
        if (CV.K != CValue::Kind::Int)
          continue; // Octagon projections only constrain numeric values.
        const OctVal *O = Run.Dense->Post[P.value()].lookup(Pack);
        ASSERT_TRUE(O != nullptr);
        Interval Itv = O->project(
            static_cast<uint32_t>(Run.Packs.indexIn(Pack, Member)));
        EXPECT_TRUE(Itv.contains(CV.I))
            << "degraded octagon misses " << Prog->loc(Member).Name
            << " = " << CV.I << " at " << Prog->pointToString(P) << " (got "
            << Itv.str() << ")";
      }
    }
  });

  // The sparse octagon engine degrades and reports the provenance bit
  // under an expired deadline, and still produces the fallback tier.
  OctOptions SOpts;
  SOpts.Engine = EngineKind::Sparse;
  SOpts.Budget.DeadlineSec = -1;
  OctRun SRun = runOctAnalysis(*Prog, SOpts);
  EXPECT_TRUE(SRun.degraded());
  EXPECT_EQ(SRun.Sparse->Visits, 0u);
  ASSERT_TRUE(SRun.Fallback.has_value());
  EXPECT_TRUE(SRun.Fallback->degraded()); // Fresh budget, also expired.
}

INSTANTIATE_TEST_SUITE_P(Seeds, OctDegradationSoundness,
                         ::testing::Range<uint64_t>(1, 13));

//===----------------------------------------------------------------------===//
// Cancellation responsiveness
//===----------------------------------------------------------------------===//

TEST(CancellationResponsiveness, ExpiredDeadlineStopsEveryEngineAtZeroVisits) {
  GenConfig Config = fuzzConfig(42);
  Config.NumFunctions = 6;
  Config.StmtsPerFunction = 16;
  auto Prog = buildGenerated(Config);

  for (EngineKind Engine :
       {EngineKind::Vanilla, EngineKind::Base, EngineKind::Sparse}) {
    for (unsigned Jobs : {1u, 4u}) {
      AnalyzerOptions Opts;
      Opts.Engine = Engine;
      Opts.Jobs = Jobs;
      Opts.Budget.DeadlineSec = -1;
      AnalysisRun Run = analyzeProgram(*Prog, Opts);
      EXPECT_TRUE(Run.degraded())
          << "engine " << static_cast<int>(Engine) << " jobs " << Jobs;
      EXPECT_EQ(Run.BudgetStop, BudgetReason::Deadline);
      EXPECT_TRUE(Run.timedOut());
      EXPECT_TRUE(Run.Pre.Degraded);
      uint64_t Visits = Run.Dense ? Run.Dense->Visits : Run.Sparse->Visits;
      EXPECT_EQ(Visits, 0u)
          << "engine " << static_cast<int>(Engine) << " jobs " << Jobs;
    }
  }

  for (EngineKind Engine :
       {EngineKind::Vanilla, EngineKind::Base, EngineKind::Sparse}) {
    OctOptions Opts;
    Opts.Engine = Engine;
    Opts.Budget.DeadlineSec = -1;
    OctRun Run = runOctAnalysis(*Prog, Opts);
    EXPECT_TRUE(Run.degraded()) << "oct engine " << static_cast<int>(Engine);
    EXPECT_EQ(Run.BudgetStop, BudgetReason::Deadline);
    EXPECT_TRUE(Run.timedOut());
    uint64_t Visits = Run.Dense ? Run.Dense->Visits : Run.Sparse->Visits;
    EXPECT_EQ(Visits, 0u) << "oct engine " << static_cast<int>(Engine);
  }
}

TEST(CancellationResponsiveness, StepLimitBoundsVisitsAcrossEngines) {
  GenConfig Config = fuzzConfig(43);
  Config.NumFunctions = 6;
  Config.StmtsPerFunction = 16;
  auto Prog = buildGenerated(Config);

  const uint64_t Limit = 100;
  for (EngineKind Engine :
       {EngineKind::Vanilla, EngineKind::Base, EngineKind::Sparse}) {
    for (unsigned Jobs : {1u, 4u}) {
      AnalyzerOptions Opts;
      Opts.Engine = Engine;
      Opts.Jobs = Jobs;
      Opts.Budget.StepLimit = Limit;
      AnalysisRun Run = analyzeProgram(*Prog, Opts);
      uint64_t Visits = Run.Dense ? Run.Dense->Visits : Run.Sparse->Visits;
      EXPECT_LE(Visits, Limit)
          << "engine " << static_cast<int>(Engine) << " jobs " << Jobs;
      // A tripped step limit is not a deadline.
      EXPECT_EQ(Run.BudgetStop, BudgetReason::Steps);
      EXPECT_FALSE(Run.timedOut());
    }
  }
}

TEST(CancellationResponsiveness, CancelTokenStopsTheRun) {
  auto Prog = buildGenerated(fuzzConfig(44));
  Budget Bud(BudgetLimits{0, 0, 0});
  Bud.cancel();
  EXPECT_TRUE(Bud.exhausted());
  EXPECT_EQ(Bud.reason(), BudgetReason::Cancelled);
  EXPECT_FALSE(Bud.charge());

  // An engine handed a cancelled token degrades immediately.
  PreAnalysisResult Pre = runPreAnalysis(*Prog, SemanticsOptions{});
  DenseOptions DOpts;
  DOpts.Bud = &Bud;
  DOpts.DegradeTo = &Pre.Global;
  DenseResult R = runDenseAnalysis(*Prog, Pre.CG, nullptr, DOpts);
  EXPECT_TRUE(R.Degraded);
  EXPECT_EQ(R.Visits, 0u);
}
