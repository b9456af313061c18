//===- ablation_ssa.cpp - SSA vs reaching-defs dependency generation --------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 5: "We use SSA generation because it is fast and reduces the
/// size of def-use chains".  This bench builds the dependency graph with
/// the SSA construction (phi nodes factor joins) and with plain
/// per-location reaching definitions (each use links to every reaching
/// definition), comparing edge counts, construction time, and the sparse
/// fixpoint cost downstream.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>
#include <string>

using namespace spa;
using namespace spa::bench;

namespace {

/// Join-heavy shape: K definitions of x on K branch arms flow into one
/// join followed by M uses.  Reaching definitions link every use to
/// every arm (K*M edges); SSA factors them through one phi (K + M).
std::string joinHeavySource(unsigned K, unsigned M) {
  std::string S = "fun main() {\n  x = 0;\n  c = input();\n";
  for (unsigned I = 0; I < K; ++I)
    S += "  if (c == " + std::to_string(I) + ") { x = " +
         std::to_string(I) + "; }\n";
  S += "  s = 0;\n";
  for (unsigned I = 0; I < M; ++I)
    S += "  u" + std::to_string(I) + " = x + " + std::to_string(I) +
         ";\n";
  S += "  return s;\n}\n";
  return S;
}

} // namespace

int main() {
  double Scale = suiteScaleFromEnv(0.25);
  std::printf("Ablation (Section 5): SSA vs reaching-definitions "
              "dependency construction (scale=%.2f)\n\n",
              Scale);
  std::printf("%-20s | %9s %7s %8s | %9s %8s %8s | %7s\n", "Program",
              "ssa-edges", "phis", "build", "rd-edges", "build", "fix-rd",
              "edge-x");

  auto RunOne = [](const char *Name, const Program &Prog) {
    SemanticsOptions Sem;
    PreAnalysisResult Pre = runPreAnalysis(Prog, Sem);
    DefUseInfo DU = computeDefUse(Prog, Pre);

    // Both builders run the full pipeline (bypass included): the claim
    // under test is the size/cost of what the fixpoint consumes.
    DepOptions SsaOpts; // Defaults: SSA.
    Timer T1;
    SparseGraph Ssa = buildDepGraph(Prog, Pre.CG, DU, SsaOpts);
    double SsaBuild = T1.seconds();

    DepOptions RdOpts;
    RdOpts.Kind = DepBuilderKind::ReachingDefs;
    Timer T2;
    SparseGraph Rd = buildDepGraph(Prog, Pre.CG, DU, RdOpts);
    double RdBuild = T2.seconds();

    SparseOptions SOpts;
    SOpts.DegradeTo = &Pre.Global; // As analyzeProgram: bounds widening.
    Timer TF;
    runSparseAnalysis(Prog, Pre.CG, Rd, SOpts);
    double RdFix = TF.seconds();

    std::printf("%-20s | %9llu %7zu %7.2fs | %9llu %7.2fs %7.2fs | "
                "%6.2fx\n",
                Name,
                static_cast<unsigned long long>(Ssa.Edges->edgeCount()),
                Ssa.Phis.size(), SsaBuild,
                static_cast<unsigned long long>(Rd.Edges->edgeCount()),
                RdBuild, RdFix,
                static_cast<double>(Rd.Edges->edgeCount()) /
                    static_cast<double>(std::max<uint64_t>(
                        1, Ssa.Edges->edgeCount())));
    std::fflush(stdout);
  };

  // The shape the SSA choice is about: many definitions joining before
  // many uses.
  for (auto [K, M] : {std::pair{16u, 16u}, {64u, 64u}, {128u, 256u}}) {
    BuildResult B = buildProgramFromSource(joinHeavySource(K, M));
    if (!B.ok()) {
      std::fprintf(stderr, "build error: %s\n", B.Error.c_str());
      return 1;
    }
    std::string Name =
        "join K=" + std::to_string(K) + " M=" + std::to_string(M);
    recordRun(Name, "ssa-vs-rd", [&] { RunOne(Name.c_str(), *B.Prog); });
  }

  auto Suite = paperSuite(Scale);
  for (int Idx : {0, 1, 2, 3, 4, 5, 7}) {
    const SuiteEntry &E = Suite[Idx];
    std::unique_ptr<Program> Prog = buildEntry(E);
    recordRun(E.Name, "ssa-vs-rd", [&] { RunOne(E.Name.c_str(), *Prog); });
  }

  std::printf("\nExpected shape (paper): the reaching-definitions "
              "construction produces more def-use edges (uses link to "
              "every reaching definition; phi nodes factor those joins) "
              "and costs more to build on join-heavy code.\n");
  return 0;
}
