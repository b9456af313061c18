//===- ablation_bdd.cpp - BDD vs set dependency storage (Section 5) ---------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 5 reports that set-based storage of the dependency relation
/// needs far more memory than BDDs (vim60: >24 GB vs 1 GB) because the
/// relation is highly redundant (shared prefixes/suffixes), while BDD
/// operations are "noticeably slower than usual set operations".  This
/// bench builds the same dependency relation in both backends and reports
/// representation size, build time, and sparse-fixpoint time.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/BddDepStorage.h"

#include <cstdio>

using namespace spa;
using namespace spa::bench;

int main() {
  double Scale = suiteScaleFromEnv(0.25);
  std::printf("Ablation (Section 5): set-based vs BDD dependency "
              "storage (scale=%.2f)\n\n",
              Scale);
  std::printf("%-20s %9s | %10s %8s %8s | %10s %8s %8s | %7s\n",
              "Program", "edges", "set-bytes", "build", "fix",
              "bdd-bytes", "build", "fix", "ratio");

  auto Suite = paperSuite(Scale);
  // The two smallest entries: BDD insertion and iteration are slow by
  // design (the very trade-off under test), so the bench stays small.
  for (int Idx : {0, 1}) {
    const SuiteEntry &E = Suite[Idx];
    std::unique_ptr<Program> Prog = buildEntry(E);
    SemanticsOptions Sem;
    PreAnalysisResult Pre = runPreAnalysis(*Prog, Sem);
    DefUseInfo DU = computeDefUse(*Prog, Pre);

    // Compare the raw (pre-bypass) relation: that is the redundant
    // object the paper stores — summaries repeat across call points,
    // which is exactly the prefix/suffix sharing BDDs exploit.
    DepOptions SetOpts;
    SetOpts.Bypass = false;
    obs::Registry::global().reset();
    Timer T1;
    SparseGraph SetGraph = buildDepGraph(*Prog, Pre.CG, DU, SetOpts);
    double SetBuild = T1.seconds();
    SparseOptions SOpts;
    SOpts.DegradeTo = &Pre.Global; // As analyzeProgram: bounds widening.
    Timer TF1;
    SparseResult SetFix = runSparseAnalysis(*Prog, Pre.CG, SetGraph, SOpts);
    double SetFixS = TF1.seconds();
    appendBenchRecord(E.Name, "set-storage", true);

    DepOptions BddOpts;
    BddOpts.Bypass = false;
    BddOpts.UseBdd = true;
    obs::Registry::global().reset();
    Timer T2;
    SparseGraph BddGraph = buildDepGraph(*Prog, Pre.CG, DU, BddOpts);
    double BddBuild = T2.seconds();
    Timer TF2;
    SparseResult BddFix = runSparseAnalysis(*Prog, Pre.CG, BddGraph, SOpts);
    double BddFixS = TF2.seconds();
    appendBenchRecord(E.Name, "bdd-storage", true);

    uint64_t SetBytes = SetGraph.Edges->memoryBytes();
    uint64_t BddBytes = BddGraph.Edges->memoryBytes();
    std::printf("%-20s %9llu | %10llu %7.2fs %7.2fs | %10llu %7.2fs "
                "%7.2fs | %6.1fx\n",
                E.Name.c_str(),
                static_cast<unsigned long long>(SetGraph.Edges->edgeCount()),
                static_cast<unsigned long long>(SetBytes), SetBuild,
                SetFixS, static_cast<unsigned long long>(BddBytes),
                BddBuild, BddFixS,
                static_cast<double>(SetBytes) /
                    static_cast<double>(BddBytes ? BddBytes : 1));
    std::fflush(stdout);
    // Both backends must drive the fixpoint to the same result size.
    if (SetFix.StateEntries != BddFix.StateEntries)
      std::printf("  WARNING: backend results differ!\n");
  }

  std::printf(
      "\nExpected shape (paper): BDD operations are markedly slower than "
      "set operations (construction and fixpoint), which this bench "
      "reproduces.  The paper's memory win (vim60: >24 GB sets vs 1 GB "
      "BDDs) relies on the redundancy of relations over hundreds of "
      "thousands of locations spanning millions of statements; at this "
      "harness's scaled-down sizes the per-node overhead dominates and "
      "the BDD can come out larger — see EXPERIMENTS.md.\n");
  return 0;
}
