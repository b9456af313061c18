//===- ablation_interproc.cpp - Per-procedure vs whole-program deps ----------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 5's interprocedural story: generating dependencies over the
/// whole supergraph creates spurious cross-procedure dependencies — with
/// f and g both calling h, "data dependencies for x not only include
/// 1 ⇝ 2 and 3 ⇝ 4 but also spurious dependencies 1 ⇝ 4 and 3 ⇝ 2" —
/// and "such spurious dependencies made the analysis hardly scalable".
/// The per-procedure construction with call/entry summaries avoids them.
/// This bench compares both builders on a many-callers/common-callee
/// microworkload and suite prefixes, counting edges and build time.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>
#include <string>

using namespace spa;
using namespace spa::bench;

namespace {

/// The paper's Section 5 example, scaled: N sibling functions all set
/// and read the *same* global around a call to a shared helper that does
/// not touch it.  Control-flow paths f_i -> h -> return site of f_j make
/// the whole-supergraph builder record N^2 dependencies for x (each
/// definition reaches every sibling's use), while the per-procedure
/// builder keeps the N real ones — h neither defines nor uses x, so x
/// never routes through it.
std::string manyCallersSource(unsigned N) {
  std::string S = "global x;\n";
  S += "fun h() {\n  t = 1;\n  return t;\n}\n";
  for (unsigned I = 0; I < N; ++I) {
    S += "fun f" + std::to_string(I) + "() {\n  x = " + std::to_string(I) +
         ";\n  h();\n  r = x;\n  return r;\n}\n";
  }
  S += "fun main() {\n";
  for (unsigned I = 0; I < N; ++I)
    S += "  f" + std::to_string(I) + "();\n";
  S += "  return 0;\n}\n";
  return S;
}

struct Outcome {
  uint64_t Edges = 0;
  double BuildSeconds = 0;
  double FixSeconds = 0;
};

Outcome measure(const Program &Prog, DepBuilderKind Kind) {
  SemanticsOptions Sem;
  PreAnalysisResult Pre = runPreAnalysis(Prog, Sem);
  DefUseInfo DU = computeDefUse(Prog, Pre);
  DepOptions DOpts;
  DOpts.Kind = Kind;
  DOpts.Bypass = false;
  Timer T;
  SparseGraph G = buildDepGraph(Prog, Pre.CG, DU, DOpts);
  Outcome O;
  O.BuildSeconds = T.seconds();
  O.Edges = G.Edges->edgeCount();
  SparseOptions SOpts;
  SOpts.DegradeTo = &Pre.Global; // As analyzeProgram: bounds widening.
  Timer TF;
  runSparseAnalysis(Prog, Pre.CG, G, SOpts);
  O.FixSeconds = TF.seconds();
  return O;
}

} // namespace

int main() {
  std::printf("Ablation (Section 5): per-procedure vs whole-supergraph "
              "dependency generation\n\n");
  std::printf("%-24s | %9s %8s %8s | %9s %8s %8s\n", "Workload",
              "pp-edges", "build", "fix", "wp-edges", "build", "fix");

  for (unsigned N : {8u, 32u, 96u, 256u}) {
    BuildResult B = buildProgramFromSource(manyCallersSource(N));
    if (!B.ok()) {
      std::fprintf(stderr, "build error: %s\n", B.Error.c_str());
      return 1;
    }
    std::string Label = "callers N=" + std::to_string(N);
    Outcome PerProc = recordRun(Label, "per-procedure", [&] {
      return measure(*B.Prog, DepBuilderKind::Ssa);
    });
    Outcome Whole = recordRun(Label, "whole-program", [&] {
      return measure(*B.Prog, DepBuilderKind::WholeProgram);
    });
    std::printf("%-24s | %9llu %7.2fs %7.2fs | %9llu %7.2fs %7.2fs\n",
                Label.c_str(),
                static_cast<unsigned long long>(PerProc.Edges),
                PerProc.BuildSeconds, PerProc.FixSeconds,
                static_cast<unsigned long long>(Whole.Edges),
                Whole.BuildSeconds, Whole.FixSeconds);
    std::fflush(stdout);
  }

  double Scale = suiteScaleFromEnv(0.25);
  auto Suite = paperSuite(Scale);
  for (int Idx : {0, 2, 4}) {
    const SuiteEntry &E = Suite[Idx];
    std::unique_ptr<Program> Prog = buildEntry(E);
    Outcome PerProc = recordRun(E.Name, "per-procedure", [&] {
      return measure(*Prog, DepBuilderKind::Ssa);
    });
    Outcome Whole = recordRun(E.Name, "whole-program", [&] {
      return measure(*Prog, DepBuilderKind::WholeProgram);
    });
    std::printf("%-24s | %9llu %7.2fs %7.2fs | %9llu %7.2fs %7.2fs\n",
                E.Name.c_str(),
                static_cast<unsigned long long>(PerProc.Edges),
                PerProc.BuildSeconds, PerProc.FixSeconds,
                static_cast<unsigned long long>(Whole.Edges),
                Whole.BuildSeconds, Whole.FixSeconds);
    std::fflush(stdout);
  }

  std::printf("\nExpected shape (paper): whole-supergraph generation "
              "grows superlinearly with shared callees (spurious "
              "cross-caller dependencies) and its construction time "
              "dwarfs the per-procedure approach as programs grow.\n");
  return 0;
}
