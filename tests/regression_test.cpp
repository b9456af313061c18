//===- regression_test.cpp - Regressions for specific fixed bugs ------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each test here pins a bug found during development so it stays fixed:
///
///  * localized-engine divergence: under access-based localization the
///    bypassed state flows along call -> return edges that are not
///    supergraph edges, so loops containing calls need widening points
///    on the bypass route too;
///  * return-point linking: caller-side definitions of callee-defined
///    locations must not join stale pre-call values into return points;
///  * entry summaries: may-defined locations need their caller value on
///    definition-free paths.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Analyzer.h"

#include <gtest/gtest.h>

using namespace spa;
using namespace spa::test;

TEST(Regression, LocalizedEngineTerminatesOnLoopWithCalls) {
  // A counting loop around a call: localized Base must widen on the
  // bypass route or the decreasing bound iterates forever.
  auto Prog = build(R"(
    fun id(v) { return v; }
    fun touch() { return 1; }
    fun main() {
      n = 0;
      i = 0;
      while (i < 100000) {
        n = n - 5;
        t = touch();
        m = id(n);
        i = i + 1;
      }
      return m;
    }
  )");
  AnalyzerOptions Opts;
  Opts.Engine = EngineKind::Base;
  Opts.Budget.DeadlineSec = 30; // Far above what a widening run needs.
  AnalysisRun Run = analyzeProgram(*Prog, Opts);
  EXPECT_FALSE(Run.degraded());
  // The loop body runs at most a few hundred visits post-widening.
  EXPECT_LT(Run.Dense->Visits, 100000u);
  // And the result is still sound: n is unbounded below.
  Value N = denseAtExit(*Prog, Run, "main", "main::n");
  EXPECT_EQ(N.Itv.lo(), bound::NegInf);
}

TEST(Regression, ReturnPointDoesNotJoinStalePreCallValues) {
  // g is rewritten by the callee; the value after the call must be
  // exactly the callee's, not joined with the pre-call value.
  auto Prog = build(R"(
    global g = 5;
    fun bump(a) {
      g = g + a;
      return g;
    }
    fun main() {
      y = bump(3);
      z = g + y;
      return z;
    }
  )");
  AnalysisRun Sparse = analyze(*Prog, EngineKind::Sparse,
                               [](AnalyzerOptions &O) {
                                 O.Dep.Bypass = false;
                               });
  EXPECT_EQ(sparseAtExit(*Prog, Sparse, "main", "main::z").Itv,
            Interval::constant(16));
}

TEST(Regression, MayDefinedLocationKeepsValueOnOtherPath) {
  // g0 is only assigned on one branch; the join afterwards must still
  // see the entry value on the other path (entry summaries must cover
  // may-defined locations).
  auto Prog = build(R"(
    global g0 = 7;
    fun maybe(c) {
      if (c > 0) { g0 = 1; }
      return 0;
    }
    fun main() {
      x = input();
      maybe(x);
      r = g0;
      return r;
    }
  )");
  AnalysisRun Sparse = analyze(*Prog, EngineKind::Sparse,
                               [](AnalyzerOptions &O) {
                                 O.Dep.Bypass = false;
                               });
  AnalysisRun Dense = analyze(*Prog, EngineKind::Vanilla);
  Value S = sparseAtExit(*Prog, Sparse, "main", "main::r");
  Value D = denseAtExit(*Prog, Dense, "main", "main::r");
  EXPECT_EQ(S, D);
  EXPECT_EQ(S.Itv, Interval(1, 7));
}

TEST(Regression, MultiCalleeParameterBindingIsWeak) {
  // With two possible callees, only one executes; the other's parameter
  // keeps its previous value, so the binding must join, not overwrite.
  auto Prog = build(R"(
    fun a(v) { return v; }
    fun b(w) { return w; }
    fun main() {
      r1 = a(1);
      c = input();
      if (c > 0) { fp = a; } else { fp = b; }
      r2 = (*fp)(100);
      s = 0;
      t = a(2);
      return s;
    }
  )");
  AnalysisRun Run = analyze(*Prog, EngineKind::Vanilla);
  // After the indirect call, a::v may still be 1 (callee was b) or 100.
  bool FoundIndirect = false;
  for (uint32_t P = 0; P < Prog->numPoints(); ++P) {
    const Command &Cmd = Prog->point(PointId(P)).Cmd;
    if (Cmd.Kind != CmdKind::Call || !Cmd.isIndirectCall())
      continue;
    FoundIndirect = true;
    Value V = Run.Dense->Post[P].get(locByName(*Prog, "a::v"));
    EXPECT_TRUE(V.Itv.contains(1));
    EXPECT_TRUE(V.Itv.contains(100));
  }
  EXPECT_TRUE(FoundIndirect);
}
