//===- sparse_test.cpp - Sparse analysis correctness tests ----------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heart of the reproduction: Lemma 2 (precision preservation of the
/// sparse analysis with safely approximated D̂/Û), the Example 4/5
/// imprecision of conventional def-use chains, cross-validation of the
/// dependency builders, BDD-backed storage equivalence, and the end state
/// of the bypass contraction.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Analyzer.h"
#include "interp/Interp.h"
#include "oct/OctAnalysis.h"
#include "workload/Generator.h"
#include "workload/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <span>
#include <sstream>

using namespace spa;
using namespace spa::test;

namespace {

/// Asserts the Lemma 2 equality: for every point c and every location in
/// D̂(c) (semantic defs; the full node def set when \p Bypass is off), the
/// sparse output value equals the dense (Vanilla) post-state value.
void expectSparseEqualsVanilla(const Program &Prog, bool Bypass,
                               DepBuilderKind Kind = DepBuilderKind::Ssa,
                               bool UseBdd = false) {
  AnalyzerOptions VOpts;
  VOpts.Engine = EngineKind::Vanilla;
  AnalysisRun Vanilla = analyzeProgram(Prog, VOpts);

  AnalyzerOptions SOpts;
  SOpts.Engine = EngineKind::Sparse;
  SOpts.Dep.Bypass = Bypass;
  SOpts.Dep.Kind = Kind;
  SOpts.Dep.UseBdd = UseBdd;
  AnalysisRun Sparse = analyzeProgram(Prog, SOpts);

  for (uint32_t P = 0; P < Prog.numPoints(); ++P) {
    const std::vector<LocId> &Defs =
        Bypass ? Sparse.DU.Defs[P] : Sparse.Graph->NodeDefs[P];
    for (LocId L : Defs) {
      const Value &SV = Sparse.Sparse->Out[P].get(L);
      const Value &DV = Vanilla.Dense->Post[P].get(L);
      EXPECT_EQ(SV, DV) << "mismatch at " << Prog.pointToString(PointId(P))
                        << " for " << Prog.loc(L).Name << ": sparse "
                        << SV.str() << " vs dense " << DV.str();
    }
  }
}

} // namespace

TEST(SparseAnalysis, StraightLineEqualsDense) {
  auto Prog = build(R"(
    fun main() {
      x = 1;
      y = x + 2;
      z = y * x;
      return z;
    }
  )");
  expectSparseEqualsVanilla(*Prog, /*Bypass=*/false);
  expectSparseEqualsVanilla(*Prog, /*Bypass=*/true);
}

TEST(SparseAnalysis, BranchesAndJoinsEqualDense) {
  auto Prog = build(R"(
    fun main() {
      x = input();
      if (x < 10) {
        y = x;
        if (y > 0) { z = 1; } else { z = 2; }
      } else {
        y = 10;
        z = 3;
      }
      w = y + z;
      return w;
    }
  )");
  expectSparseEqualsVanilla(*Prog, false);
  expectSparseEqualsVanilla(*Prog, true);
}

TEST(SparseAnalysis, PointersWeakAndStrongEqualDense) {
  auto Prog = build(R"(
    fun main() {
      a = 1;
      b = 2;
      c = input();
      if (c < 0) { p = &a; } else { p = &b; }
      *p = 9;
      q = &a;
      *q = 4;
      r = *p;
      return r;
    }
  )");
  expectSparseEqualsVanilla(*Prog, false);
  expectSparseEqualsVanilla(*Prog, true);
}

TEST(SparseAnalysis, SingleCallSiteInterproceduralEqualsDense) {
  auto Prog = build(R"(
    global g = 5;
    fun helper(a, b) {
      g = g + a;
      t = a * b;
      return t;
    }
    fun main() {
      x = 3;
      y = helper(x, 4);
      z = g + y;
      return z;
    }
  )");
  expectSparseEqualsVanilla(*Prog, false);
  expectSparseEqualsVanilla(*Prog, true);
}

TEST(SparseAnalysis, CallChainThreadsGlobalsEqualDense) {
  // The f -> g -> h value-threading shape of Section 5: h uses a global
  // that f defines; the value must route through g's call plumbing.
  auto Prog = build(R"(
    global x = 0;
    fun h() {
      r = x;
      return r;
    }
    fun g() {
      v = h();
      return v;
    }
    fun main() {
      x = 42;
      a = g();
      return a;
    }
  )");
  expectSparseEqualsVanilla(*Prog, false);
  expectSparseEqualsVanilla(*Prog, true);
  // Observation at the exit needs the exit's pass-through uses, which the
  // bypass contraction (correctly) removes; query a bypass-free run.
  AnalysisRun Run = analyze(*Prog, EngineKind::Sparse,
                            [](AnalyzerOptions &O) { O.Dep.Bypass = false; });
  EXPECT_EQ(sparseAtExit(*Prog, Run, "main", "main::a").Itv,
            Interval::constant(42));
}

TEST(SparseAnalysis, AllocAndDerefEqualDense) {
  auto Prog = build(R"(
    fun main() {
      n = input();
      if (n < 4) { n = 4; }
      p = alloc(n);
      q = p + 2;
      *q = 8;
      v = *q;
      return v;
    }
  )");
  expectSparseEqualsVanilla(*Prog, false);
  expectSparseEqualsVanilla(*Prog, true);
}

TEST(SparseAnalysis, ReachingDefBuilderMatchesSsa) {
  auto Prog = build(R"(
    global g = 1;
    fun f(a) {
      g = g + a;
      return g;
    }
    fun main() {
      x = input();
      if (x < 0) { x = 0; }
      y = f(x);
      z = y + g;
      return z;
    }
  )");
  expectSparseEqualsVanilla(*Prog, false, DepBuilderKind::ReachingDefs);
  expectSparseEqualsVanilla(*Prog, true, DepBuilderKind::ReachingDefs);
}

TEST(SparseAnalysis, BddStorageMatchesSetStorage) {
  auto Prog = build(R"(
    fun main() {
      x = input();
      if (x < 5) { y = x; } else { y = 5; }
      p = &y;
      *p = y + 1;
      z = *p;
      return z;
    }
  )");
  expectSparseEqualsVanilla(*Prog, false, DepBuilderKind::Ssa,
                            /*UseBdd=*/true);
  expectSparseEqualsVanilla(*Prog, true, DepBuilderKind::Ssa,
                            /*UseBdd=*/true);
}

TEST(SparseAnalysis, WholeProgramBuilderEqualsDense) {
  // The "natural extension" of Section 5: supergraph-wide reaching
  // definitions reproduce the dense result too (just unscalably).
  auto Prog = build(R"(
    global x = 0;
    fun h() { return 1; }
    fun main() {
      x = 7;
      t = h();
      a = x;
      return a + t;
    }
  )");
  expectSparseEqualsVanilla(*Prog, false, DepBuilderKind::WholeProgram);
}

//===----------------------------------------------------------------------===//
// Examples 4 and 5 of the paper: spurious definitions and def-use chains.
//===----------------------------------------------------------------------===//

namespace {

/// The Example 4/5 scenario: the pre-analysis over-approximates p's
/// points-to set as {w, x} while at the store the flow-sensitive value is
/// the singleton {x} (strong update).
const char *ExamplePaperSource = R"(
  fun main() {
    y = 0;
    z = 0;
    w = 7;
    p = &w;
    p = &x;
    x = &y;
    *p = &z;
    v = x;
    u = w;
    return u;
  }
)";

} // namespace

TEST(SparseAnalysis, SpuriousDefinitionsPassThrough) {
  // Condition (2) of Definition 5: the spurious definition w at the store
  // must be in Û, and the sparse transfer passes it through unchanged.
  auto Prog = build(ExamplePaperSource);
  expectSparseEqualsVanilla(*Prog, false);
  expectSparseEqualsVanilla(*Prog, true);

  AnalysisRun Run = analyze(*Prog, EngineKind::Sparse,
                            [](AnalyzerOptions &O) { O.Dep.Bypass = false; });
  // v gets exactly {z} (the strong update replaced {y}).
  Value V = sparseAtExit(*Prog, Run, "main", "main::v");
  EXPECT_TRUE(V.Pts.contains(locByName(*Prog, "main::z")));
  EXPECT_FALSE(V.Pts.contains(locByName(*Prog, "main::y")));
  // u reads w = 7 through the spurious-definition passthrough.
  EXPECT_EQ(sparseAtExit(*Prog, Run, "main", "main::u").Itv,
            Interval::constant(7));
}

TEST(SparseAnalysis, StoreWhosePointsToSetGrowsKeepsItsPassthrough) {
  // The written set of a visit carries to the next one (core/Fixpoint.h,
  // "Pending locations"): st's store first runs with p -> {a} and writes
  // a strongly; once p -> {a, b} and 5 is below In[a], the weak store
  // leaves a unwritten, and a's output becomes the passthrough In[a] = ⊤,
  // which nothing delivered since and which must still be published.
  auto Prog = build(R"(
    fun st(p) {
      *p = 5;
      return 0;
    }
    fun main() {
      a = input();
      b = 0;
      c = input();
      if (c > 0) {
        r = st(&a);
      }
      r = st(&b);
      return a;
    }
  )");
  // main's return statement: its output binds main::$ret.
  LocId Ret = Prog->function(Prog->mainFunc()).RetSlot;
  PointId Return;
  for (uint32_t P = 0; P < Prog->numPoints(); ++P)
    if (Prog->point(PointId(P)).Cmd.Kind == CmdKind::RetStmt &&
        Prog->point(PointId(P)).Cmd.Target == Ret)
      Return = PointId(P);
  ASSERT_TRUE(Return.isValid());
  for (bool Bypass : {true, false}) {
    AnalyzerOptions Opts;
    Opts.Dep.Bypass = Bypass;
    AnalysisRun Run = analyzeProgram(*Prog, Opts);
    EXPECT_EQ(Run.Sparse->Out[Return.value()].get(Ret).Itv, Interval::top())
        << "bypass " << Bypass;

    // Interpreter soundness: every location a point semantically defines
    // covers the concrete post-state, on both branches.
    for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
      InterpOptions IOpts;
      IOpts.InputSeed = Seed;
      Interp I(*Prog, Run.Pre.CG, IOpts);
      InterpResult IR = I.run([&](PointId P, const Interp &I) {
        for (LocId L : Run.DU.Defs[P.value()]) {
          const CValue &CV = I.varValue(L);
          if (CV.K != CValue::Kind::Int)
            continue;
          EXPECT_TRUE(Run.Sparse->Out[P.value()].get(L).Itv.contains(CV.I))
              << "sparse misses " << Prog->loc(L).Name << " = " << CV.I
              << " at " << Prog->pointToString(P) << " (bypass " << Bypass
              << ", seed " << Seed << ")";
        }
      });
      EXPECT_EQ(IR.Reason, StopReason::Finished);
    }
  }
}

TEST(SparseAnalysis, DefUseChainsLosePrecision) {
  // Example 5: conventional def-use chains let the killed definition
  // x = &y reach the use of x, so v's points-to set grows to {y, z}.
  auto Prog = build(ExamplePaperSource);

  AnalyzerOptions Chains;
  Chains.Engine = EngineKind::Sparse;
  Chains.Dep.Kind = DepBuilderKind::DefUseChains;
  Chains.Dep.Bypass = false;
  AnalysisRun ChainRun = analyzeProgram(*Prog, Chains);

  AnalysisRun DenseRun = analyze(*Prog, EngineKind::Vanilla);

  Value ChainV = sparseAtExit(*Prog, ChainRun, "main", "main::v");
  Value DenseV = denseAtExit(*Prog, DenseRun, "main", "main::v");

  // Still sound (dense <= chains) ...
  EXPECT_TRUE(DenseV.leq(ChainV));
  // ... but strictly less precise: the stale {y} target survives.
  EXPECT_TRUE(ChainV.Pts.contains(locByName(*Prog, "main::y")));
  EXPECT_FALSE(DenseV.Pts.contains(locByName(*Prog, "main::y")));
}

TEST(SparseAnalysis, SparsityStatisticsAreSmall) {
  auto Prog = build(R"(
    global a = 1;
    global b = 2;
    fun f(x) { return x + a; }
    fun main() {
      i = 0;
      s = 0;
      while (i < 10) {
        t = f(i);
        s = s + t;
        i = i + 1;
      }
      b = s;
      return s;
    }
  )");
  AnalysisRun Run = analyze(*Prog, EngineKind::Sparse);
  // Each point defines/uses only a handful of the program's locations —
  // the sparsity observation of Section 6.3.
  EXPECT_LT(Run.DU.avgDefSize(), 4.0);
  EXPECT_LT(Run.DU.avgUseSize(), 5.0);
  EXPECT_GT(Run.Graph->Edges->edgeCount(), 0u);
}

//===----------------------------------------------------------------------===//
// The end state of the bypass contraction.
//===----------------------------------------------------------------------===//

namespace {

/// examples/{loop,pointers}.spa plus generator programs with loops,
/// recursion, callgraph SCCs, function pointers and pointer traffic.
std::vector<std::unique_ptr<Program>> contractionCorpus() {
  std::vector<std::unique_ptr<Program>> Progs;
  for (const char *Name : {"loop.spa", "pointers.spa"}) {
    std::ifstream In(std::string(SPA_EXAMPLES_DIR) + "/" + Name);
    EXPECT_TRUE(In.good()) << Name;
    std::stringstream SS;
    SS << In.rdbuf();
    Progs.push_back(build(SS.str()));
  }
  for (unsigned Seed = 1; Seed <= 12; ++Seed) {
    GenConfig C;
    C.Seed = 0xb1a5 + Seed;
    C.NumFunctions = 2 + Seed % 7;
    C.AllowRecursion = Seed % 2 == 1;
    C.UseFunctionPointers = Seed % 3 == 0;
    C.SccGroupSize = Seed % 4 == 2 ? 3 : 0;
    Progs.push_back(build(generateSource(C)));
  }
  return Progs;
}

} // namespace

TEST(SparseAnalysis, BypassLeavesNoContractiblePseudoOccurrence) {
  // At convergence, every pseudo-occurrence (N, L) that still has an
  // L-edge fails the growth guard, in every location and for any
  // contraction order: a node whose edges change is re-examined.
  uint64_t Removed = 0;
  for (const auto &Prog : contractionCorpus()) {
    for (unsigned Jobs : {1u, 4u}) {
      AnalyzerOptions Opts;
      Opts.Jobs = Jobs;
      AnalysisRun Run = analyzeProgram(*Prog, Opts);
      const SparseGraph &G = *Run.Graph;
      Removed += G.BypassRemoved;
      std::map<std::pair<uint32_t, uint32_t>, std::pair<size_t, size_t>>
          InOut; // (node, location) -> (in-degree, out-degree)
      for (uint32_t N = 0; N < G.numNodes(); ++N)
        G.Edges->forEachOut(N, [&](LocId L, uint32_t Dst) {
          ++InOut[{N, L.value()}].second;
          ++InOut[{Dst, L.value()}].first;
        });
      for (const auto &[Key, Degree] : InOut) {
        auto [N, L] = Key;
        auto [In, Out] = Degree;
        bool Pseudo = G.isPhi(N) ||
                      (!Run.DU.isSemanticDef(PointId(N), LocId(L)) &&
                       !Run.DU.isSemanticUse(PointId(N), LocId(L)));
        if (!Pseudo)
          continue;
        EXPECT_FALSE(In == 0 || Out == 0 || In * Out <= In + Out)
            << "node " << N << " location " << Prog->loc(LocId(L)).Name
            << " in " << In << " out " << Out << " jobs " << Jobs;
      }
    }
  }
  EXPECT_GT(Removed, 0u);
}

TEST(SparseAnalysis, DenseGraphKeepsExactlyThePhisWithAnEdge) {
  // After the contraction every phi has an edge, and the survivors are
  // the bypass-off graph's phis (the same SSA) with the PhisDropped
  // edgeless ones left out, in their old order.  The bypass-off graph
  // has no edgeless phi to drop: the renaming feeds every phi.
  auto EdgelessPhis = [](const SparseGraph &G) {
    std::vector<bool> HasEdge(G.numNodes(), false);
    for (uint32_t N = 0; N < G.numNodes(); ++N)
      G.Edges->forEachOut(N, [&](LocId, uint32_t Dst) {
        HasEdge[N] = true;
        HasEdge[Dst] = true;
      });
    return std::count(HasEdge.begin() + G.NumPoints, HasEdge.end(), false);
  };
  uint64_t Dropped = 0;
  for (const auto &Prog : contractionCorpus()) {
    AnalysisRun Off = analyze(*Prog, EngineKind::Sparse,
                              [](AnalyzerOptions &O) { O.Dep.Bypass = false; });
    EXPECT_EQ(Off.Graph->PhisDropped, 0u);
    EXPECT_EQ(EdgelessPhis(*Off.Graph), 0);
    for (unsigned Jobs : {1u, 4u}) {
      AnalyzerOptions Opts;
      Opts.Jobs = Jobs;
      AnalysisRun Run = analyzeProgram(*Prog, Opts);
      const SparseGraph &G = *Run.Graph;
      EXPECT_EQ(EdgelessPhis(G), 0) << "jobs " << Jobs;
      EXPECT_EQ(G.Phis.size() + G.PhisDropped, Off.Graph->Phis.size());
      size_t K = 0;
      for (const PhiNode &Ph : Off.Graph->Phis)
        if (K < G.Phis.size() && G.Phis[K].At == Ph.At && G.Phis[K].L == Ph.L)
          ++K;
      EXPECT_EQ(K, G.Phis.size()) << "survivors out of order, jobs " << Jobs;
      Dropped += G.PhisDropped;
    }
  }
  EXPECT_GT(Dropped, 0u);
}

TEST(SparseAnalysis, ExhaustedBudgetSkipsTheContraction) {
  // A pre-exhausted budget stops the contraction before its first pop
  // in every lane: the graph keeps every edge of the bypass-off graph
  // (built under the same budget, hence the same degraded pre-analysis).
  for (const auto &Prog : contractionCorpus()) {
    AnalysisRun Off = analyze(*Prog, EngineKind::Sparse,
                              [](AnalyzerOptions &O) {
                                O.Dep.Bypass = false;
                                O.Budget.DeadlineSec = -1;
                              });
    for (unsigned Jobs : {1u, 4u}) {
      AnalyzerOptions Opts;
      Opts.Jobs = Jobs;
      Opts.Budget.DeadlineSec = -1;
      AnalysisRun Run = analyzeProgram(*Prog, Opts);
      const SparseGraph &G = *Run.Graph;
      EXPECT_EQ(G.Edges->edgeCount(), G.EdgesBeforeBypass) << Jobs;
      EXPECT_EQ(G.BypassRemoved, 0u) << Jobs;
      EXPECT_EQ(G.EdgesBeforeBypass, Off.Graph->Edges->edgeCount()) << Jobs;
    }
  }
}

TEST(SparseAnalysis, StatesStayWithinInEdgeLabelsAndDefs) {
  // The sparse step lays out one input slot per distinct label of a
  // node's in-edges and one output slot per def: a delivery writes only
  // along an in-edge, and a transfer emits only over the def set.  So
  // every In key labels one of the node's in-edges and every Out key is
  // one of its defs (NodeDefs; a phi's location), in both graphs and
  // both domains.
  auto Check = [](const std::string &Name, const SparseGraph &G,
                  const auto &R, auto LocOf) {
    ASSERT_FALSE(R.Degraded) << Name;
    std::vector<std::vector<LocId>> InLabels(G.numNodes());
    for (uint32_t N = 0; N < G.numNodes(); ++N)
      G.Edges->forEachOut(
          N, [&](LocId L, uint32_t Dst) { InLabels[Dst].push_back(L); });
    uint64_t Keys = 0;
    for (uint32_t N = 0; N < G.numNodes(); ++N) {
      std::vector<LocId> &Labels = InLabels[N];
      std::sort(Labels.begin(), Labels.end());
      for (const auto &Entry : R.In[N]) {
        ++Keys;
        EXPECT_TRUE(std::binary_search(Labels.begin(), Labels.end(),
                                       LocOf(Entry.first)))
            << Name << " node " << N << " In key without an in-edge";
      }
      std::span<const LocId> Defs = G.defs(N);
      for (const auto &Entry : R.Out[N]) {
        ++Keys;
        EXPECT_TRUE(std::find(Defs.begin(), Defs.end(), LocOf(Entry.first)) !=
                    Defs.end())
            << Name << " node " << N << " Out key outside the defs";
      }
    }
    EXPECT_GT(Keys, 0u) << Name;
  };
  for (const SuiteEntry &E : paperSuite(0.02)) {
    auto Prog = test::build(generateSource(E.Config));
    for (bool Bypass : {true, false}) {
      AnalyzerOptions Opts;
      Opts.Dep.Bypass = Bypass;
      AnalysisRun Run = analyzeProgram(*Prog, Opts);
      Check(E.Name + (Bypass ? "" : " no-bypass"), *Run.Graph, *Run.Sparse,
            [](LocId L) { return L; });
    }
  }
  for (const SuiteEntry &E : octagonSuite(0.05)) {
    auto Prog = test::build(generateSource(E.Config));
    OctRun Run = runOctAnalysis(*Prog, {});
    Check(E.Name + " octagon", *Run.Graph, *Run.Sparse,
          [](PackId P) { return LocId(P.value()); });
  }
}

TEST(SparseAnalysis, BlockSizesStayWithinThePreAnalysis) {
  // The sparse widening meets a widened block size with T̂pre's at the
  // slot's location (DESIGN.md §5 "Bounded widening").  T̂pre
  // over-approximates every reachable value (Section 3.2), so every In
  // and Out size lies within T̂pre's, on both graphs.  An unbounded
  // widening overshoots it on these programs: the generator seeds whose
  // states the bound moves, and nethack.
  std::vector<std::pair<std::string, std::string>> Programs;
  for (uint32_t Seed :
       {2u, 11u, 17u, 35u, 62u, 65u, 96u, 137u, 197u, 262u, 266u, 282u}) {
    GenConfig C;
    C.Seed = Seed;
    C.NumFunctions = 3;
    C.PointerLocals = 4;
    C.PointerPercent = 35;
    C.AllocPercent = 15;
    Programs.emplace_back("gen" + std::to_string(Seed), generateSource(C));
  }
  for (const SuiteEntry &E : paperSuite(0.02))
    if (E.Name == "nethack-3.3.0")
      Programs.emplace_back(E.Name, generateSource(E.Config));
  ASSERT_EQ(Programs.size(), 13u);

  for (const auto &[Name, Source] : Programs) {
    auto Prog = build(Source);
    for (bool Bypass : {true, false}) {
      AnalyzerOptions Opts;
      Opts.Dep.Bypass = Bypass;
      AnalysisRun Run = analyzeProgram(*Prog, Opts);
      ASSERT_FALSE(Run.degraded()) << Name;
      const AbsState &Pre = Run.Pre.Global;
      uint64_t Sizes = 0;
      auto Within = [&](const AbsState &S, uint32_t Node, const char *Side) {
        for (const auto &[L, V] : S) {
          Sizes += !V.Size.isBot();
          EXPECT_TRUE(V.Size.leq(Pre.get(L).Size))
              << Name << " bypass " << Bypass << " node " << Node << " "
              << Side << " " << Prog->loc(L).Name << ": size "
              << V.Size.str() << " exceeds T̂pre's "
              << Pre.get(L).Size.str();
        }
      };
      for (uint32_t N = 0; N < Run.Graph->numNodes(); ++N) {
        Within(Run.Sparse->In[N], N, "In");
        Within(Run.Sparse->Out[N], N, "Out");
      }
      EXPECT_GT(Sizes, 0u) << Name; // Not vacuous: pointers flowed.
    }
  }
}
