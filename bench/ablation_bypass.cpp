//===- ablation_bypass.cpp - Bypass optimization (Section 5) ----------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 5: per-procedure dependency generation is "not fully sparse" —
/// a value defined in f and used in h (with f → g → h) hops through g's
/// call plumbing.  The bypass optimization contracts a ⇝l b ⇝l c to
/// a ⇝l c whenever b neither defines nor uses l, "leading to a
/// significant speed up".  This bench measures edges, propagation steps,
/// and fixpoint time with and without the contraction, on the suite and
/// on a deep-call-chain microworkload that maximizes plumbing.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>
#include <string>

using namespace spa;
using namespace spa::bench;

namespace {

/// f0 -> f1 -> ... -> fN chain where only the leaf touches the globals
/// the root sets: every intermediate function is pure plumbing.
std::string deepChainSource(unsigned Depth) {
  std::string S = "global a = 1;\nglobal b = 2;\n";
  S += "fun leaf() {\n  x = a + b;\n  return x;\n}\n";
  std::string Prev = "leaf";
  for (unsigned I = 0; I < Depth; ++I) {
    std::string Name = "mid" + std::to_string(I);
    S += "fun " + Name + "() {\n  r = " + Prev + "();\n  return r;\n}\n";
    Prev = Name;
  }
  S += "fun main() {\n  a = 10;\n  b = 20;\n  v = " + Prev +
       "();\n  return v;\n}\n";
  return S;
}

struct Outcome {
  uint64_t EdgesBefore = 0, EdgesAfter = 0;
  double DepSeconds = 0, FixSeconds = 0;
  uint64_t Visits = 0;
};

Outcome measure(const Program &Prog, bool Bypass) {
  SemanticsOptions Sem;
  PreAnalysisResult Pre = runPreAnalysis(Prog, Sem);
  DefUseInfo DU = computeDefUse(Prog, Pre);
  DepOptions DOpts;
  DOpts.Bypass = Bypass;
  Timer T;
  SparseGraph G = buildDepGraph(Prog, Pre.CG, DU, DOpts);
  Outcome O;
  O.DepSeconds = T.seconds();
  O.EdgesBefore = G.EdgesBeforeBypass;
  O.EdgesAfter = G.Edges->edgeCount();
  SparseOptions SOpts;
  SOpts.DegradeTo = &Pre.Global; // As analyzeProgram: bounds widening.
  Timer TF;
  SparseResult S = runSparseAnalysis(Prog, Pre.CG, G, SOpts);
  O.FixSeconds = TF.seconds();
  O.Visits = S.Visits;
  return O;
}

} // namespace

int main() {
  std::printf("Ablation (Section 5): bypass optimization\n\n");
  std::printf("%-24s | %9s %9s %8s %9s | %9s %8s %9s | %6s\n",
              "Workload", "edges0", "edges", "dep", "visits", "edges",
              "dep", "visits", "fix-spd");
  std::printf("%-24s | %28s %9s | %28s | %6s\n", "", "with bypass", "",
              "without bypass", "");

  // Deep call chains: the motivating f -> g -> h case.
  for (unsigned Depth : {8u, 32u, 128u}) {
    BuildResult B = buildProgramFromSource(deepChainSource(Depth));
    if (!B.ok()) {
      std::fprintf(stderr, "build error: %s\n", B.Error.c_str());
      return 1;
    }
    std::string Label = "chain depth " + std::to_string(Depth);
    Outcome With =
        recordRun(Label, "bypass", [&] { return measure(*B.Prog, true); });
    Outcome Without =
        recordRun(Label, "no-bypass", [&] { return measure(*B.Prog, false); });
    std::printf("%-24s | %9llu %9llu %7.2fs %9llu | %9llu %7.2fs %9llu "
                "| %5.1fx\n",
                Label.c_str(),
                static_cast<unsigned long long>(With.EdgesBefore),
                static_cast<unsigned long long>(With.EdgesAfter),
                With.DepSeconds,
                static_cast<unsigned long long>(With.Visits),
                static_cast<unsigned long long>(Without.EdgesAfter),
                Without.DepSeconds,
                static_cast<unsigned long long>(Without.Visits),
                Without.FixSeconds /
                    (With.FixSeconds > 0 ? With.FixSeconds : 1e-9));
    std::fflush(stdout);
  }

  // Suite subset.
  double Scale = suiteScaleFromEnv(0.25);
  auto Suite = paperSuite(Scale);
  for (int Idx : {2, 5, 8}) {
    const SuiteEntry &E = Suite[Idx];
    std::unique_ptr<Program> Prog = buildEntry(E);
    Outcome With =
        recordRun(E.Name, "bypass", [&] { return measure(*Prog, true); });
    Outcome Without =
        recordRun(E.Name, "no-bypass", [&] { return measure(*Prog, false); });
    std::printf("%-24s | %9llu %9llu %7.2fs %9llu | %9llu %7.2fs %9llu "
                "| %5.1fx\n",
                E.Name.c_str(),
                static_cast<unsigned long long>(With.EdgesBefore),
                static_cast<unsigned long long>(With.EdgesAfter),
                With.DepSeconds,
                static_cast<unsigned long long>(With.Visits),
                static_cast<unsigned long long>(Without.EdgesAfter),
                Without.DepSeconds,
                static_cast<unsigned long long>(Without.Visits),
                Without.FixSeconds /
                    (With.FixSeconds > 0 ? With.FixSeconds : 1e-9));
    std::fflush(stdout);
  }

  std::printf("\nExpected shape (paper): bypass removes the call-plumbing "
              "hops, cutting propagation steps on call-chain-heavy code "
              "and speeding up the fixpoint.\n");
  return 0;
}
