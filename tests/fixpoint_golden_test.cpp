//===- fixpoint_golden_test.cpp - Checked-in fixpoint result pin ---------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins what every fixpoint engine computes: for each input program, each
/// engine (Vanilla, Base, Sparse) and each domain (interval, octagon), one
/// FNV-1a digest over the str() of every Post/In/Out state plus the visit
/// count, checked against tests/golden/fixpoint_digests.txt.  Any change
/// to a transfer, a widening decision, the worklist order, or the
/// degradation-free result of any engine shows up here as a named line.
///
/// Inputs: examples/*.spa plus 16 seeded generator programs with loops
/// and recursion (the widening-relevant shapes), on every engine; and the
/// 16 paperSuite(0.02) programs on the sparse engine only, where per-visit
/// shortcuts of the sparse step meet call summaries, SCCs and many
/// locations: interval with bypass on, interval with bypass off (the
/// checker's graph), and octagon.
///
/// Every bypass-on sparse run also gets a `sparse-keyed` line that does
/// not depend on how graph nodes are numbered: point states by point id,
/// phi states keyed by (join point, location) for the phis whose In or
/// Out is non-empty, and the visits minus the phis with no dependency
/// edge (each such phi runs exactly once, on an empty input).  Dropping
/// or renumbering edgeless phis leaves these lines unchanged; anything
/// that moves a point state, a live phi state or a visit to a node with
/// an edge changes them.
///
/// The sparse step's two partial runs get lines too: `sparse-degraded`,
/// a run whose step budget trips halfway through the fixpoint (interval
/// and octagon on the examples and generator programs, interval on the
/// bypass-off graphs of the suite programs), digesting the degraded
/// In/Out states and the degraded node ids; and one `sparse-restricted`
/// line, an interval run of a program of four data-independent functions
/// over its odd-numbered dependency components only (RestrictNodes, the
/// server's partial re-solve), whose other nodes keep empty buffers.
///
/// Every octagon run also gets a `<engine>-matrix` line over the whole
/// matrix of every pack.  Oct::str() prints the projections and only
/// v − w ≤ c for v < w, so it leaves the sum bounds and the w − v bounds
/// out; the matrix lines digest project(v), projectDiff(v, w) and
/// projectSum(v, w) of every pair instead, which by coherence name every
/// entry of the (tightly closed) matrix.  Regenerate the file only for an
/// *intentional* result change with
///
///   SPA_UPDATE_GOLDEN=1 ./fixpoint_golden_test      (writes tests/golden)
///   SPA_UPDATE_GOLDEN=<dir> ./fixpoint_golden_test  (writes <dir>)
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "ir/Builder.h"
#include "oct/OctAnalysis.h"
#include "workload/Generator.h"
#include "workload/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

using namespace spa;

namespace {

const char *const DigestFile = "fixpoint_digests.txt";

struct Input {
  std::string Name;
  std::string Source;
};

std::vector<Input> inputs() {
  std::vector<Input> In;
  std::vector<std::filesystem::path> Examples;
  for (const auto &E : std::filesystem::directory_iterator(SPA_EXAMPLES_DIR))
    if (E.path().extension() == ".spa")
      Examples.push_back(E.path());
  std::sort(Examples.begin(), Examples.end());
  for (const auto &P : Examples) {
    std::ifstream F(P);
    std::stringstream SS;
    SS << F.rdbuf();
    In.push_back({P.filename().string(), SS.str()});
  }
  for (uint64_t I = 0; I < 16; ++I) {
    GenConfig C;
    C.Seed = 1000 + I * 37;
    C.NumFunctions = 2;
    C.StmtsPerFunction = 7;
    C.LoopPercent = 20;
    C.AllowRecursion = I % 2 == 0;
    C.UseFunctionPointers = I % 4 == 1;
    C.SccGroupSize = I % 4 == 2 ? 2 : 0;
    In.push_back({"gen" + std::to_string(I), generateSource(C)});
  }
  return In;
}

/// FNV-1a over a stream of strings, with a separator so adjacent fields
/// cannot alias.
struct Digest {
  uint64_t H = 1469598103934665603ull;
  void add(const std::string &S) {
    for (unsigned char C : S) {
      H ^= C;
      H *= 1099511628211ull;
    }
    H ^= 0xff;
    H *= 1099511628211ull;
  }
};

std::string hex(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

std::string octStr(const OctState &S) {
  std::string R;
  for (const auto &[Pack, V] : S) {
    R += 'p';
    R += std::to_string(Pack.value());
    R += '=';
    R += V.str();
    R += ';';
  }
  return R;
}

template <typename StateT, typename StrFn>
void addStates(Digest &D, const char *Tag, const std::vector<StateT> &States,
               StrFn Str) {
  for (size_t I = 0; I < States.size(); ++I)
    D.add(std::string(Tag) + std::to_string(I) + ":" + Str(States[I]));
}

std::string line(const std::string &Prog, const char *Engine,
                 const char *Domain, const Digest &D, uint64_t Visits) {
  return Prog + " " + Engine + " " + Domain + " " + hex(D.H) + " " +
         std::to_string(Visits);
}

/// Digest of a sparse result: In, Out, the degraded node ids, visits.
template <typename StateT, typename StrFn>
void addSparse(Digest &D, const SparseFixResult<StateT> &R, StrFn Str) {
  addStates(D, "in", R.In, Str);
  addStates(D, "out", R.Out, Str);
  for (uint32_t Node : R.DegradedNodeIds)
    D.add("degraded" + std::to_string(Node));
}

std::string absStr(const AbsState &S) { return S.str(); }

std::string intervalLine(const std::string &Name, const char *EName,
                         const AnalysisRun &Itv, bool Degraded = false) {
  EXPECT_FALSE(Itv.timedOut()) << Name;
  EXPECT_EQ(Itv.degraded(), Degraded) << Name;
  Digest DI;
  uint64_t Visits = 0;
  if (Itv.Dense) {
    addStates(DI, "post", Itv.Dense->Post, absStr);
    Visits = Itv.Dense->Visits;
  } else {
    addSparse(DI, *Itv.Sparse, absStr);
    Visits = Itv.Sparse->Visits;
  }
  DI.add(std::to_string(Visits));
  return line(Name, EName, "interval", DI, Visits);
}

/// The sparse interval run of \p AOpts with a step budget that trips
/// after half of \p FullVisits, the visits of the same run unbudgeted.
std::string degradedIntervalLine(const std::string &Name, const Program &Prog,
                                 AnalyzerOptions AOpts, uint64_t FullVisits) {
  Budget Bud(BudgetLimits{0, FullVisits / 2, 0});
  AOpts.BeforeSparseFix = [&](const AnalysisRun &, SparseOptions &S) {
    S.Bud = &Bud;
  };
  return intervalLine(Name, AOpts.Dep.Bypass ? "sparse-degraded"
                                             : "sparse-nobypass-degraded",
                      analyzeProgram(Prog, AOpts), /*Degraded=*/true);
}

/// Four functions that share no data, so the bypassed dependency graph
/// has one component per function.
const char *const MultiSource = "fun alpha() {\n"
                                "  a = 0;\n"
                                "  while (a < 10) { a = a + 1; }\n"
                                "  return 0;\n"
                                "}\n"
                                "fun beta() {\n"
                                "  b = 7;\n"
                                "  while (b > 0) { b = b - 2; }\n"
                                "  return 0;\n"
                                "}\n"
                                "fun gamma() {\n"
                                "  c = 1;\n"
                                "  d = 0;\n"
                                "  while (d < 5) { c = c * 2; d = d + 1; }\n"
                                "  return 0;\n"
                                "}\n"
                                "fun main() {\n"
                                "  alpha();\n"
                                "  beta();\n"
                                "  gamma();\n"
                                "  return 0;\n"
                                "}\n";

/// The sparse interval run of MultiSource restricted to the nodes of its
/// odd-numbered dependency components.
std::string restrictedIntervalLine() {
  BuildResult B = buildProgramFromSource(MultiSource);
  EXPECT_TRUE(B.ok()) << B.Error;
  if (!B.ok())
    return "";
  const Program &Prog = *B.Prog;
  std::vector<uint32_t> Nodes;
  AnalyzerOptions AOpts;
  AOpts.BeforeSparseFix = [&](const AnalysisRun &Run, SparseOptions &S) {
    DepComponents DC = computeDepComponents(Prog, *Run.Graph);
    for (uint32_t Node = 0; Node < DC.CompOfNode.size(); ++Node)
      if (DC.CompOfNode[Node] % 2 == 1)
        Nodes.push_back(Node);
    S.RestrictNodes = &Nodes;
  };
  return intervalLine("multi", "sparse-restricted",
                      analyzeProgram(Prog, AOpts));
}

/// Every bound of every pack's matrix (see the file comment).
std::string octMatrixStr(const OctState &S) {
  std::string R;
  for (const auto &[Pack, V] : S) {
    R += 'p';
    R += std::to_string(Pack.value());
    R += '=';
    for (uint32_t A = 0; A < V.numVars(); ++A) {
      R += V.project(A).str();
      for (uint32_t B = A + 1; B < V.numVars(); ++B)
        R += V.projectDiff(A, B).str() + V.projectSum(A, B).str();
    }
    R += ';';
  }
  return R;
}

template <typename StrFn>
std::string octagonLine(const std::string &Name, const char *EName,
                        const OctRun &Oct, StrFn Str, bool Degraded = false) {
  EXPECT_FALSE(Oct.timedOut()) << Name;
  EXPECT_EQ(Oct.degraded(), Degraded) << Name;
  Digest DO;
  uint64_t Visits = 0;
  if (Oct.Dense) {
    addStates(DO, "post", Oct.Dense->Post, Str);
    Visits = Oct.Dense->Visits;
  } else {
    addSparse(DO, *Oct.Sparse, Str);
    Visits = Oct.Sparse->Visits;
  }
  DO.add(std::to_string(Visits));
  return line(Name, EName, "octagon", DO, Visits);
}

/// The renumbering-invariant line of a sparse run over \p G (see the file
/// comment).
template <typename StateT, typename StrFn>
std::string keyedLine(const std::string &Name, const char *Domain,
                      const SparseGraph &G, const SparseFixResult<StateT> &R,
                      StrFn Str) {
  Digest D;
  for (uint32_t P = 0; P < G.NumPoints; ++P) {
    D.add("in" + std::to_string(P) + ":" + Str(R.In[P]));
    D.add("out" + std::to_string(P) + ":" + Str(R.Out[P]));
  }
  std::vector<bool> HasEdge(G.numNodes(), false);
  for (uint32_t N = 0; N < G.numNodes(); ++N)
    G.Edges->forEachOut(N, [&](LocId, uint32_t Dst) {
      HasEdge[N] = true;
      HasEdge[Dst] = true;
    });
  uint64_t Edgeless = 0;
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> Live;
  for (uint32_t I = 0; I < G.Phis.size(); ++I) {
    uint32_t Node = G.NumPoints + I;
    Edgeless += !HasEdge[Node];
    if (!R.In[Node].empty() || !R.Out[Node].empty())
      Live.emplace_back(G.Phis[I].At.value(), G.Phis[I].L.value(), Node);
  }
  std::sort(Live.begin(), Live.end());
  for (const auto &[At, L, Node] : Live)
    D.add("phi" + std::to_string(At) + "," + std::to_string(L) + ":" +
          Str(R.In[Node]) + "|" + Str(R.Out[Node]));
  uint64_t Visits = R.Visits - Edgeless;
  D.add(std::to_string(Visits));
  return line(Name, "sparse-keyed", Domain, D, Visits);
}

std::string keyedIntervalLine(const std::string &Name,
                              const AnalysisRun &Itv) {
  return keyedLine(Name, "interval", *Itv.Graph, *Itv.Sparse, absStr);
}

std::string keyedOctagonLine(const std::string &Name, const OctRun &Oct) {
  return keyedLine(Name, "octagon", *Oct.Graph, *Oct.Sparse, octStr);
}

/// The sparse octagon run with a step budget that trips halfway through
/// its fixpoint.  The budget also counts the pre-analysis and dependency
/// steps, so an unlimited budgeted run measures those first.
std::string degradedOctagonLine(const std::string &Name, const Program &Prog) {
  OctOptions OOpts;
  OOpts.Budget.StepLimit = UINT64_MAX / 2;
  OctRun Full = runOctAnalysis(Prog, OOpts);
  OOpts.Budget.StepLimit = Full.BudgetSteps - Full.Sparse->Visits / 2;
  return octagonLine(Name, "sparse-degraded", runOctAnalysis(Prog, OOpts),
                     octStr, /*Degraded=*/true);
}

/// Lines per input: three engines by two domains, the two keyed lines of
/// the (bypass-on) sparse runs, the three octagon matrix lines and the two
/// degraded sparse runs.
constexpr size_t LinesPerInput = 13;

/// The paperSuite(0.02) programs, sparse engine only: interval bypass on
/// and its keyed line, interval bypass off and its degraded run, octagon
/// with its keyed and matrix lines.
constexpr double SuiteScale = 0.02;
constexpr size_t LinesPerSuiteProgram = 7;

/// One line per (program, engine, domain): "<prog> <engine> <domain>
/// <digest> <visits>".
std::vector<std::string> computeLines() {
  const std::tuple<EngineKind, const char *, const char *> Engines[] = {
      {EngineKind::Vanilla, "vanilla", "vanilla-matrix"},
      {EngineKind::Base, "base", "base-matrix"},
      {EngineKind::Sparse, "sparse", "sparse-matrix"}};
  std::vector<std::string> Lines;
  for (const Input &In : inputs()) {
    BuildResult B = buildProgramFromSource(In.Source);
    EXPECT_TRUE(B.ok()) << In.Name << ": " << B.Error;
    if (!B.ok())
      continue;
    const Program &Prog = *B.Prog;
    for (const auto &[Engine, EName, MatrixName] : Engines) {
      AnalyzerOptions AOpts;
      AOpts.Engine = Engine;
      AnalysisRun Itv = analyzeProgram(Prog, AOpts);
      Lines.push_back(intervalLine(In.Name, EName, Itv));
      OctOptions OOpts;
      OOpts.Engine = Engine;
      OctRun Oct = runOctAnalysis(Prog, OOpts);
      Lines.push_back(octagonLine(In.Name, EName, Oct, octStr));
      Lines.push_back(octagonLine(In.Name, MatrixName, Oct, octMatrixStr));
      if (Engine == EngineKind::Sparse) {
        Lines.push_back(keyedIntervalLine(In.Name, Itv));
        Lines.push_back(keyedOctagonLine(In.Name, Oct));
        Lines.push_back(
            degradedIntervalLine(In.Name, Prog, AOpts, Itv.Sparse->Visits));
        Lines.push_back(degradedOctagonLine(In.Name, Prog));
      }
    }
  }
  Lines.push_back(restrictedIntervalLine());
  for (const SuiteEntry &E : paperSuite(SuiteScale)) {
    std::string Name = "suite0.02/" + E.Name;
    BuildResult B = buildProgramFromSource(generateSource(E.Config));
    EXPECT_TRUE(B.ok()) << Name << ": " << B.Error;
    if (!B.ok())
      continue;
    const Program &Prog = *B.Prog;
    AnalyzerOptions AOpts;
    AnalysisRun Itv = analyzeProgram(Prog, AOpts);
    Lines.push_back(intervalLine(Name, "sparse", Itv));
    Lines.push_back(keyedIntervalLine(Name, Itv));
    AOpts.Dep.Bypass = false;
    AnalysisRun NoBypass = analyzeProgram(Prog, AOpts);
    Lines.push_back(intervalLine(Name, "sparse-nobypass", NoBypass));
    Lines.push_back(degradedIntervalLine(Name, Prog, AOpts,
                                         NoBypass.Sparse->Visits));
    OctRun Oct = runOctAnalysis(Prog, {});
    Lines.push_back(octagonLine(Name, "sparse", Oct, octStr));
    Lines.push_back(keyedOctagonLine(Name, Oct));
    Lines.push_back(octagonLine(Name, "sparse-matrix", Oct, octMatrixStr));
  }
  return Lines;
}

/// Key of a line: its first three fields.
std::string keyOf(const std::string &Line) {
  size_t Pos = 0;
  for (int Field = 0; Field < 3 && Pos != std::string::npos; ++Field)
    Pos = Line.find(' ', Pos + 1);
  return Line.substr(0, Pos);
}

} // namespace

TEST(FixpointGolden, EveryEngineAndDomainMatchesTheCheckedInDigests) {
  std::vector<std::string> Now = computeLines();
  ASSERT_EQ(Now.size(),
            LinesPerInput * inputs().size() +
                LinesPerSuiteProgram * paperSuite(SuiteScale).size() + 1);

  if (const char *V = std::getenv("SPA_UPDATE_GOLDEN")) {
    std::string Dir = std::string(V) == "1" ? SPA_GOLDEN_DIR : V;
    std::ofstream Out(Dir + "/" + DigestFile);
    ASSERT_TRUE(Out.good()) << Dir;
    for (const std::string &L : Now)
      Out << L << "\n";
    GTEST_SKIP() << "regenerated " << Dir << "/" << DigestFile;
  }

  std::ifstream F(std::string(SPA_GOLDEN_DIR) + "/" + DigestFile);
  ASSERT_TRUE(F.good()) << "missing golden " << DigestFile;
  std::map<std::string, std::string> Golden;
  for (std::string L; std::getline(F, L);)
    if (!L.empty())
      Golden[keyOf(L)] = L;
  EXPECT_EQ(Golden.size(), Now.size()) << "golden file has stale entries";
  for (const std::string &L : Now) {
    auto It = Golden.find(keyOf(L));
    ASSERT_NE(It, Golden.end()) << "no golden entry for " << keyOf(L);
    EXPECT_EQ(L, It->second)
        << "fixpoint result changed (digest, then visits).  If this is "
           "intentional, regenerate with SPA_UPDATE_GOLDEN=1.";
  }
}
