//===- octagon_test.cpp - Octagon domain and analysis tests ----------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "interp/Interp.h"
#include "oct/OctAnalysis.h"
#include "oct/Octagon.h"
#include "support/Rng.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

using namespace spa;
using namespace spa::test;

//===----------------------------------------------------------------------===//
// Domain
//===----------------------------------------------------------------------===//

TEST(Octagon, TopBottomBasics) {
  Oct T = Oct::top(3);
  EXPECT_FALSE(T.isBottom());
  EXPECT_EQ(T.project(0), Interval::top());
  Oct B = Oct::bottom(3);
  EXPECT_TRUE(B.isBottom());
  EXPECT_TRUE(B.leq(T));
  EXPECT_FALSE(T.leq(B));
  EXPECT_EQ(B.project(1), Interval::bot());
}

TEST(Octagon, BoundsAndProjection) {
  Oct O = Oct::top(2).addUpperBound(0, 10).addLowerBound(0, 3);
  EXPECT_EQ(O.project(0), Interval(3, 10));
  EXPECT_EQ(O.project(1), Interval::top());
  // Contradictory bounds give bottom.
  EXPECT_TRUE(O.addUpperBound(0, 2).isBottom());
}

TEST(Octagon, ClosurePropagatesRelations) {
  // x = y and y in [1, 5]  ==>  x in [1, 5].
  Oct O = Oct::top(2)
              .addDiffConstraint(0, 1, 0)
              .addDiffConstraint(1, 0, 0)
              .addUpperBound(1, 5)
              .addLowerBound(1, 1);
  EXPECT_EQ(O.project(0), Interval(1, 5));
  // x <= y and y <= 7 ==> x <= 7.
  Oct P = Oct::top(2).addDiffConstraint(0, 1, 0).addUpperBound(1, 7);
  EXPECT_EQ(P.project(0).hi(), 7);
}

TEST(Octagon, SumConstraintsAndTightening) {
  // x + y <= 5, x - y <= 1 ==> 2x <= 6 ==> x <= 3.
  Oct O = Oct::top(2)
              .addSumConstraint(0, true, 1, true, 5)
              .addDiffConstraint(0, 1, 1);
  EXPECT_EQ(O.project(0).hi(), 3);
  // Integer tightening: 2x <= 7 ==> x <= 3.
  Oct P = Oct::top(1).addSumConstraint(0, true, 0, true, 7);
  EXPECT_EQ(P.project(0).hi(), 3);
}

TEST(Octagon, JoinMeetOrder) {
  Oct A = Oct::top(2).addUpperBound(0, 5).addLowerBound(0, 0);
  Oct B = Oct::top(2).addUpperBound(0, 9).addLowerBound(0, 4);
  Oct J = A.join(B);
  EXPECT_EQ(J.project(0), Interval(0, 9));
  EXPECT_TRUE(A.leq(J));
  EXPECT_TRUE(B.leq(J));
  Oct M = A.meet(B);
  EXPECT_EQ(M.project(0), Interval(4, 5));
  EXPECT_TRUE(M.leq(A));
  EXPECT_TRUE(M.leq(B));
  EXPECT_TRUE(A.meet(B.addUpperBound(0, -1)).isBottom());
}

TEST(Octagon, JoinKeepsCommonRelations) {
  // Both branches satisfy x <= y; the join must too (the classic win
  // over intervals).
  Oct A = Oct::top(2)
              .addDiffConstraint(0, 1, 0)
              .addUpperBound(0, 2)
              .addLowerBound(0, 0);
  Oct B = Oct::top(2)
              .addDiffConstraint(0, 1, 0)
              .addUpperBound(0, 50)
              .addLowerBound(0, 40);
  Oct J = A.join(B);
  // x - y <= 0 survives the join.
  EXPECT_TRUE(J.addDiffConstraint(1, 0, -1).isBottom() ||
              !J.meet(Oct::top(2)
                           .addDiffConstraint(1, 0, -1))
                   .isBottom());
  Oct Refined = J.meet(Oct::top(2).addLowerBound(0, 60));
  EXPECT_TRUE(Refined.isBottom()); // x <= 50 in the join.
}

TEST(Octagon, AssignVarPlusConst) {
  Oct O = Oct::top(2).addUpperBound(1, 10).addLowerBound(1, 10);
  Oct A = O.assignVarPlusConst(0, 1, 5); // x := y + 5.
  EXPECT_EQ(A.project(0), Interval::constant(15));
  // The relation is exact: x - y = 5 persists after y changes via shift.
  Oct B = A.assignVarPlusConst(1, 1, 1); // y := y + 1.
  EXPECT_EQ(B.project(1), Interval::constant(11));
  EXPECT_EQ(B.project(0), Interval::constant(15));
}

TEST(Octagon, SelfShiftKeepsRelations) {
  // x = y, then x := x + 3: now x - y = 3.
  Oct O = Oct::top(2)
              .addDiffConstraint(0, 1, 0)
              .addDiffConstraint(1, 0, 0)
              .addLowerBound(1, 2)
              .addUpperBound(1, 2);
  Oct A = O.assignVarPlusConst(0, 0, 3);
  EXPECT_EQ(A.project(0), Interval::constant(5));
  EXPECT_EQ(A.project(1), Interval::constant(2));
}

TEST(Octagon, ForgetDropsOnlyOneVariable) {
  Oct O = Oct::top(2).addUpperBound(0, 1).addUpperBound(1, 2);
  Oct F = O.forget(0);
  EXPECT_EQ(F.project(0), Interval::top());
  EXPECT_EQ(F.project(1).hi(), 2);
}

TEST(Octagon, WidenCoversAndStabilizes) {
  Oct A = Oct::top(1).addUpperBound(0, 1).addLowerBound(0, 0);
  Oct B = Oct::top(1).addUpperBound(0, 5).addLowerBound(0, 0);
  Oct W = A.widen(A.join(B));
  EXPECT_TRUE(B.leq(W));
  EXPECT_EQ(W.project(0).lo(), 0);
  EXPECT_EQ(W.project(0).hi(), bound::PosInf);
  // Widening again with something below is stable.
  EXPECT_EQ(W.widen(W.join(B)), W);
}

//===----------------------------------------------------------------------===//
// Packing
//===----------------------------------------------------------------------===//

TEST(Packing, GroupsRelatedVariablesAndKeepsSingletons) {
  auto Prog = build(R"(
    fun main() {
      x = 1;
      y = x + 2;
      z = 7;
      return y;
    }
  )");
  SemanticsOptions Sem;
  PreAnalysisResult Pre = runPreAnalysis(*Prog, Sem);
  Packing P = computePacking(*Prog, Pre);
  LocId X = locByName(*Prog, "main::x");
  LocId Y = locByName(*Prog, "main::y");
  // x and y share a group; every location has a singleton pack.
  bool Shared = false;
  for (PackId PX : P.packsOf(X))
    if (P.indexIn(PX, Y) >= 0)
      Shared = true;
  EXPECT_TRUE(Shared);
  for (uint32_t L = 0; L < Prog->numLocs(); ++L)
    EXPECT_EQ(P.vars(P.singleton(LocId(L))).size(), 1u);
}

TEST(Packing, RespectsSizeCap) {
  // A long chain of additions would union everything; the cap stops it.
  std::string Source = "fun main() {\n  v0 = 1;\n";
  for (int I = 1; I < 40; ++I)
    Source += "  v" + std::to_string(I) + " = v" + std::to_string(I - 1) +
              " + 1;\n";
  Source += "  return v39;\n}\n";
  auto Prog = build(Source);
  SemanticsOptions Sem;
  PreAnalysisResult Pre = runPreAnalysis(*Prog, Sem);
  Packing P = computePacking(*Prog, Pre, /*MaxPackSize=*/10);
  for (const auto &Pack : P.Packs)
    EXPECT_LE(Pack.size(), 10u);
  EXPECT_GT(P.numGroups(), 1u);
}

//===----------------------------------------------------------------------===//
// Analysis
//===----------------------------------------------------------------------===//

TEST(OctAnalysis, ProvesRelationalInvariantIntervalsCannot) {
  // y = x + 1 everywhere; after joining wildly different ranges of x the
  // relation y - x = 1 persists, so assume(y <= x) is infeasible.
  auto Prog = build(R"(
    fun main() {
      x = input();
      y = x + 1;
      d = y - x;
      return d;
    }
  )");
  OctOptions Opts;
  Opts.Engine = EngineKind::Vanilla;
  OctRun Run = runOctAnalysis(*Prog, Opts);
  FuncId Main = Prog->findFunction("main");
  PointId Exit = Prog->function(Main).Exit;
  // d = y - x must be exactly 1 relationally; intervals give top.
  Interval D = Run.denseIntervalAt(Exit, locByName(*Prog, "main::d"));
  EXPECT_EQ(D, Interval::constant(1));

  AnalysisRun ItvRun = analyze(*Prog, EngineKind::Vanilla);
  EXPECT_EQ(denseAtExit(*Prog, ItvRun, "main", "main::d").Itv,
            Interval::top());
}

TEST(OctAnalysis, RelationalGuardSurvivesJoin) {
  auto Prog = build(R"(
    fun main() {
      n = input();
      if (n < 0) { n = 0; }
      i = 0;
      r = 0;
      while (i < n) {
        r = n - i;
        i = i + 1;
      }
      return r;
    }
  )");
  OctOptions Opts;
  Opts.Engine = EngineKind::Vanilla;
  OctRun Run = runOctAnalysis(*Prog, Opts);
  // Inside the loop i < n, so r = n - i >= 1.
  FuncId Main = Prog->findFunction("main");
  for (PointId P : Prog->function(Main).Points) {
    const Command &Cmd = Prog->point(P).Cmd;
    if (Cmd.Kind != CmdKind::Assign ||
        Prog->loc(Cmd.Target).Name != "main::r" ||
        Cmd.E->Kind != IExprKind::Binary)
      continue;
    Interval R = Run.denseIntervalAt(P, Cmd.Target);
    EXPECT_GE(R.lo(), 1) << R.str();
  }
}

namespace {

void expectOctSparseEqualsDense(const Program &Prog) {
  OctOptions VOpts;
  VOpts.Engine = EngineKind::Vanilla;
  OctRun Vanilla = runOctAnalysis(Prog, VOpts);
  ASSERT_FALSE(Vanilla.timedOut());

  OctOptions SOpts;
  SOpts.Engine = EngineKind::Sparse;
  SOpts.Dep.Bypass = false;
  OctRun Sparse = runOctAnalysis(Prog, SOpts);

  for (uint32_t P = 0; P < Prog.numPoints(); ++P) {
    for (LocId PL : Sparse.Graph->NodeDefs[P]) {
      PackId Pack(PL.value());
      const OctVal *SV = Sparse.Sparse->Out[P].lookup(Pack);
      const OctVal *DV = Vanilla.Dense->Post[P].lookup(Pack);
      if (!SV && !DV)
        continue;
      ASSERT_TRUE(SV && DV)
          << "presence mismatch at " << Prog.pointToString(PointId(P))
          << " pack " << Pack.value() << (SV ? " (dense missing)"
                                             : " (sparse missing)");
      EXPECT_EQ(*SV, *DV)
          << "mismatch at " << Prog.pointToString(PointId(P)) << " pack "
          << Pack.value() << ": sparse " << SV->str() << " dense "
          << DV->str();
    }
  }
}

} // namespace

TEST(OctAnalysis, SparseEqualsDenseStraightLine) {
  auto Prog = build(R"(
    fun main() {
      x = input();
      y = x + 3;
      if (y < 10) { z = y; } else { z = 9; }
      w = z - x;
      return w;
    }
  )");
  expectOctSparseEqualsDense(*Prog);
}

TEST(OctAnalysis, SparseEqualsDenseInterprocedural) {
  auto Prog = build(R"(
    global g = 2;
    fun shift(a) {
      b = a + g;
      return b;
    }
    fun main() {
      x = input();
      y = shift(x);
      return y;
    }
  )");
  expectOctSparseEqualsDense(*Prog);
}

class OctRandomEquality : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OctRandomEquality, SparseEqualsDenseOnAcyclicPrograms) {
  GenConfig Config;
  Config.Seed = GetParam() * 7 + 1;
  Config.NumFunctions = 4;
  Config.StmtsPerFunction = 10;
  Config.SingleCallSite = true;
  Config.AllowLoops = false;
  Config.AllowRecursion = false;
  Config.UseFunctionPointers = false;
  std::string Source = generateSource(Config);
  BuildResult B = buildProgramFromSource(Source);
  ASSERT_TRUE(B.ok()) << B.Error;
  expectOctSparseEqualsDense(*B.Prog);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OctRandomEquality,
                         ::testing::Range<uint64_t>(1, 16));

class OctSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OctSoundness, ProjectionsCoverConcreteExecutions) {
  GenConfig Config;
  Config.Seed = GetParam() * 13 + 5;
  Config.NumFunctions = 4;
  Config.StmtsPerFunction = 10;
  Config.AllowLoops = true;
  Config.AllowRecursion = (GetParam() % 2) == 0;
  std::string Source = generateSource(Config);
  BuildResult B = buildProgramFromSource(Source);
  ASSERT_TRUE(B.ok()) << B.Error;
  const Program &Prog = *B.Prog;

  OctOptions Opts;
  Opts.Engine = EngineKind::Vanilla;
  OctRun Run = runOctAnalysis(Prog, Opts);
  ASSERT_FALSE(Run.timedOut());

  InterpOptions IOpts;
  IOpts.MaxSteps = 15000;
  Interp I(Prog, Run.Pre.CG, IOpts);
  I.run([&](PointId P, const Interp &It) {
    for (LocId PL : Run.DU.Defs[P.value()]) {
      PackId Pack(PL.value());
      // Check each scalar member of the defined pack.
      for (LocId Member : Run.Packs.vars(Pack)) {
        if (Prog.loc(Member).isSummary())
          continue;
        const CValue &CV = It.varValue(Member);
        if (CV.K != CValue::Kind::Int)
          continue;
        const OctVal *O = Run.Dense->Post[P.value()].lookup(Pack);
        ASSERT_TRUE(O != nullptr);
        Interval Itv = O->project(
            static_cast<uint32_t>(Run.Packs.indexIn(Pack, Member)));
        EXPECT_TRUE(Itv.contains(CV.I))
            << "octagon misses " << Prog.loc(Member).Name << " = " << CV.I
            << " at " << Prog.pointToString(P) << " (got " << Itv.str()
            << ")";
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, OctSoundness,
                         ::testing::Range<uint64_t>(1, 13));

class OctSparseSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OctSparseSoundness, ProjectionsCoverConcreteExecutions) {
  // OctSoundness's programs, through the sparse engine: every defined
  // pack's output must cover the values the interpreter observes.
  GenConfig Config;
  Config.Seed = GetParam() * 13 + 5;
  Config.NumFunctions = 4;
  Config.StmtsPerFunction = 10;
  Config.AllowLoops = true;
  Config.AllowRecursion = (GetParam() % 2) == 0;
  BuildResult B = buildProgramFromSource(generateSource(Config));
  ASSERT_TRUE(B.ok()) << B.Error;
  const Program &Prog = *B.Prog;

  OctRun Run = runOctAnalysis(Prog, OctOptions());
  ASSERT_FALSE(Run.timedOut());

  InterpOptions IOpts;
  IOpts.MaxSteps = 15000;
  Interp I(Prog, Run.Pre.CG, IOpts);
  I.run([&](PointId P, const Interp &It) {
    for (LocId PL : Run.DU.Defs[P.value()]) {
      PackId Pack(PL.value());
      const OctVal *O = Run.Sparse->Out[P.value()].lookup(Pack);
      for (LocId Member : Run.Packs.vars(Pack)) {
        const CValue &CV = It.varValue(Member);
        if (Prog.loc(Member).isSummary() || CV.K != CValue::Kind::Int)
          continue;
        Interval Itv =
            O ? O->project(
                    static_cast<uint32_t>(Run.Packs.indexIn(Pack, Member)))
              : Interval::bot();
        EXPECT_TRUE(Itv.contains(CV.I))
            << "sparse octagon misses " << Prog.loc(Member).Name << " = "
            << CV.I << " at " << Prog.pointToString(P) << " (got "
            << Itv.str() << ")";
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, OctSparseSoundness,
                         ::testing::Range<uint64_t>(1, 9));

namespace {

/// Data-independent counting loops called from main: no globals, no
/// arguments, no return traffic, so under bypass each worker is its own
/// dependency component (the shape docs/SERVER.md partitions).
std::string independentWorkers(uint64_t Seed) {
  Rng R(Seed);
  unsigned N = 3 + static_cast<unsigned>(R.below(3));
  std::ostringstream Workers, Main;
  Main << "fun main() {\n";
  for (unsigned I = 0; I < N; ++I) {
    Workers << "fun w" << I << "() {\n  i = 0;\n  s = " << R.range(-5, 5)
            << ";\n  while (i < " << R.range(3, 40)
            << ") {\n    s = s + i;\n    i = i + " << R.range(1, 3)
            << ";\n  }\n  return 0;\n}\n";
    Main << "  w" << I << "();\n";
  }
  Main << "  return 0;\n}\n";
  return Workers.str() + Main.str();
}

/// Sparse octagon results and ledger counts at 1 and 4 fixpoint lanes;
/// returns the number of dependency components.
uint32_t expectSameAcrossJobs(const Program &Prog) {
  OctOptions Opts;
  OctRun One = runOctAnalysis(Prog, Opts);
  Opts.Dep.Jobs = 4;
  OctRun Four = runOctAnalysis(Prog, Opts);
  EXPECT_TRUE(One.Sparse && Four.Sparse);
  if (!One.Sparse || !Four.Sparse)
    return 0;
  EXPECT_EQ(One.Sparse->Visits, Four.Sparse->Visits);
  EXPECT_EQ(One.Sparse->StateEntries, Four.Sparse->StateEntries);
  EXPECT_EQ(One.Sparse->In, Four.Sparse->In);
  EXPECT_EQ(One.Sparse->Out, Four.Sparse->Out);
  if (One.Ledger && Four.Ledger) {
    EXPECT_EQ(One.Ledger->numRows(), Four.Ledger->numRows());
    for (uint32_t N = 0; N < One.Ledger->numRows(); ++N) {
      const obs::PointCost &A = One.Ledger->row(N), &C = Four.Ledger->row(N);
      EXPECT_EQ(A.Visits, C.Visits) << N;
      EXPECT_EQ(A.Widenings, C.Widenings) << N;
      EXPECT_EQ(A.Joins, C.Joins) << N;
      EXPECT_EQ(A.NoChangeSkips, C.NoChangeSkips) << N;
      EXPECT_EQ(A.Deliveries, C.Deliveries) << N;
      EXPECT_EQ(A.Closures, C.Closures) << N;
      EXPECT_EQ(A.Growth, C.Growth) << N;
    }
  }
  return computeDepComponents(Prog, *One.Graph).NumComps;
}

} // namespace

class OctShardEquality : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OctShardEquality, RandomProgramsMatchAcrossJobs) {
  // The sparse step shards independent dependency components across
  // lanes; the octagon result must not depend on how many.  Generator
  // programs are one component (main calls everything), so a seeded
  // program of independent workers exercises the sharded schedule.
  GenConfig Config;
  Config.Seed = GetParam() * 31 + 3;
  Config.NumFunctions = 4;
  Config.StmtsPerFunction = 10;
  Config.AllowLoops = true;
  Config.AllowRecursion = (GetParam() % 3) == 0;
  BuildResult B = buildProgramFromSource(generateSource(Config));
  ASSERT_TRUE(B.ok()) << B.Error;
  expectSameAcrossJobs(*B.Prog);

  BuildResult W = buildProgramFromSource(independentWorkers(GetParam()));
  ASSERT_TRUE(W.ok()) << W.Error;
  EXPECT_GT(expectSameAcrossJobs(*W.Prog), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OctShardEquality,
                         ::testing::Range<uint64_t>(1, 13));

namespace {

/// Does \p Pt satisfy every projection of \p O?  Exact on closed
/// octagons, and true for every point of γ(O) in any case.
bool covers(const Oct &O, const std::vector<int64_t> &Pt) {
  for (uint32_t V = 0; V < O.numVars(); ++V) {
    if (!O.project(V).contains(Pt[V]))
      return false;
    for (uint32_t W = 0; W < O.numVars(); ++W)
      if (V != W && (!O.projectDiff(V, W).contains(Pt[V] - Pt[W]) ||
                     !O.projectSum(V, W).contains(Pt[V] + Pt[W])))
        return false;
  }
  return true;
}

/// An octagon plus concrete points it must keep covering.
struct Tracked {
  Oct O;
  std::vector<std::vector<int64_t>> Pts;
};

} // namespace

class OctOpFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OctOpFuzz, RandomOpSequencesStaySound) {
  // Random sequences of the engine's operations — constraints,
  // assignments, forget, and join/meet/widen/narrow against earlier
  // states — each checked against the concrete points it must cover.
  Rng R(GetParam() * 1000003 + 17);
  uint32_t N = 1 + static_cast<uint32_t>(R.below(6));
  auto Var = [&] { return static_cast<uint32_t>(R.below(N)); };
  auto C = [&] { return R.range(-8, 8); };
  auto Fresh = [&] {
    Tracked T{Oct::top(N), {}};
    for (int I = 0; I < 6; ++I) {
      std::vector<int64_t> Pt(N);
      for (int64_t &X : Pt)
        X = C();
      T.Pts.push_back(Pt);
    }
    return T;
  };
  Tracked Cur = Fresh();
  std::vector<Tracked> History{Cur};
  auto Keep = [&](auto Pred) {
    std::erase_if(Cur.Pts, [&](const auto &Pt) { return !Pred(Pt); });
  };
  auto Union = [&](const Tracked &O) {
    Cur.Pts.insert(Cur.Pts.end(), O.Pts.begin(), O.Pts.end());
  };

  for (int Step = 0; Step < 80; ++Step) {
    uint32_t V = Var(), W = Var();
    int64_t K = C();
    const Tracked &H = History[R.below(History.size())];
    switch (R.below(10)) {
    case 0:
      if (V != W) {
        Cur.O = Cur.O.addDiffConstraint(V, W, K);
        Keep([&](const auto &P) { return P[V] - P[W] <= K; });
      }
      break;
    case 1: {
      bool PV = R.chance(50), PW = R.chance(50);
      if (V != W) {
        Cur.O = Cur.O.addSumConstraint(V, PV, W, PW, K);
        Keep([&](const auto &P) {
          return (PV ? P[V] : -P[V]) + (PW ? P[W] : -P[W]) <= K;
        });
      }
      break;
    }
    case 2:
      Cur.O = Cur.O.addUpperBound(V, K);
      Keep([&](const auto &P) { return P[V] <= K; });
      break;
    case 3:
      Cur.O = Cur.O.addLowerBound(V, K);
      Keep([&](const auto &P) { return P[V] >= K; });
      break;
    case 4: {
      int64_t Hi = K + R.range(0, 6);
      Cur.O = Cur.O.assignInterval(V, Interval(K, Hi));
      for (auto &P : Cur.Pts)
        P[V] = R.range(K, Hi);
      break;
    }
    case 5:
      Cur.O = Cur.O.assignVarPlusConst(V, W, K);
      for (auto &P : Cur.Pts)
        P[V] = P[W] + K;
      break;
    case 6:
      Cur.O = Cur.O.forget(V);
      for (auto &P : Cur.Pts)
        P[V] = C();
      break;
    case 7:
      Cur.O = Cur.O.join(H.O);
      Union(H);
      break;
    case 8:
      Cur.O = Cur.O.meet(H.O);
      Keep([&](const auto &P) { return covers(H.O, P); });
      break;
    case 9:
      // Engine shape: widen against the join (growing operand), or
      // narrow back against the meet (shrinking operand).
      if (R.chance(60)) {
        Cur.O = Cur.O.widen(Cur.O.join(H.O));
        Union(H);
      } else {
        Cur.O = Cur.O.narrow(Cur.O.meet(H.O));
        Keep([&](const auto &P) { return covers(H.O, P); });
      }
      break;
    }
    for (const auto &P : Cur.Pts)
      ASSERT_TRUE(covers(Cur.O, P))
          << "seed " << GetParam() << " step " << Step << ": "
          << Cur.O.str();
    if (History.size() < 8 && R.chance(30))
      History.push_back(Cur);
    if ((Cur.O.isBottom() || Cur.Pts.empty()) && R.chance(80))
      Cur = Fresh(); // Nothing left to check; restart the walk.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OctOpFuzz, ::testing::Range<uint64_t>(1, 25));

TEST(OctPacking, RepeatedPackingIsIdenticalInContentAndOrder) {
  // The pack table is keyed by index everywhere (OctState, def/use in
  // pack space, the DBM's variable indices), so packing must be a pure
  // deterministic function of the program: same packs, same member
  // order, same pack numbering on every run.
  for (unsigned Round = 0; Round < 4; ++Round) {
    GenConfig Config;
    Config.Seed = 0xaced + Round * 97;
    Config.NumFunctions = 5;
    Config.StmtsPerFunction = 12;
    Config.AllowLoops = true;
    BuildResult B = buildProgramFromSource(generateSource(Config));
    ASSERT_TRUE(B.ok()) << B.Error;

    OctRun Run = runOctAnalysis(*B.Prog, OctOptions());
    Packing Again = computePacking(*B.Prog, Run.Pre);
    ASSERT_EQ(Run.Packs.Packs, Again.Packs) << "round " << Round;
    ASSERT_EQ(Run.Packs.Singleton, Again.Singleton) << "round " << Round;
    ASSERT_EQ(Run.Packs.Of, Again.Of) << "round " << Round;
    ASSERT_EQ(Run.Packs.NumGroups, Again.NumGroups) << "round " << Round;
    // Member lists are sorted — the order the DBM's variable indices
    // (2i/2i+1) inherit.
    for (const auto &Members : Again.Packs)
      ASSERT_TRUE(std::is_sorted(Members.begin(), Members.end(),
                                 [](LocId A, LocId B) {
                                   return A.value() < B.value();
                                 }));
  }
}
