//===- parallel_determinism_test.cpp - Parallel == sequential, bit for bit --------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel pipeline's acceptance criterion (docs/PARALLELISM.md):
/// for every job count, the analyzer must produce *bit-identical*
/// results — per-node input/output states, checker verdicts, exported
/// listings, and the deterministic fixpoint counters (visits, worklist
/// pushes/pops/dedups, widenings) — because every parallel phase either
/// writes disjoint per-index slots or runs closed subsystems whose
/// schedules are restrictions of the sequential one.  Randomized
/// generator programs cover branches, loops, recursion, callgraph SCCs,
/// function pointers, and pointer traffic.
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/Checker.h"
#include "core/Export.h"
#include "ir/Builder.h"
#include "obs/Ledger.h"
#include "obs/Metrics.h"
#include "workload/Batch.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

using namespace spa;

namespace {

/// Generator shapes that together exercise every parallel phase:
/// many-function programs (dep-build fan-out), recursion and SCC groups
/// (widening on cycles), function pointers (callgraph resolution), and
/// disconnected call trees (multi-component fixpoint partitions).
GenConfig configForRound(unsigned Round) {
  GenConfig C;
  C.Seed = 0x5eed0000 + Round;
  C.NumFunctions = 3 + Round % 9;
  C.StmtsPerFunction = 8 + (Round * 7) % 20;
  C.NumGlobals = 1 + Round % 5;
  C.PointerLocals = Round % 4;
  C.LoopPercent = Round % 3 ? 12 : 0;
  C.AllowRecursion = Round % 4 == 1;
  C.UseFunctionPointers = Round % 5 == 2;
  C.SccGroupSize = Round % 6 == 3 ? 3 : 0;
  // Low call percent leaves some functions uncalled from main's tree,
  // giving the fixpoint more than one dependency component to shard.
  if (Round % 3 == 0)
    C.CallPercent = 6;
  return C;
}

/// Everything one analyzer run produces that must not depend on Jobs.
struct RunDigest {
  std::string Listing;
  std::string Alarms;
  uint64_t Visits = 0;
  uint64_t StateEntries = 0;
  /// Every dependency edge (Src, L, Dst), in storage order.
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> Edges;
  std::vector<AbsState> In, Out;
  std::map<std::string, double> Counters;
  /// The dependency-graph size gauges (depgraph.nodes, .phis,
  /// .phis_dropped, .edges, ...), all but the storage estimate.
  std::map<std::string, double> GraphGauges;
  /// Per-node cost-ledger count rows, flattened in node order.  Every
  /// field except the sampled TimeMicros is part of the determinism
  /// contract (docs/OBSERVABILITY.md "Determinism").
  std::vector<uint64_t> LedgerRows;
};

/// Analyzes \p Prog at \p Jobs lanes.  The checker's lines are part of
/// the digest on both graphs (it checks on the contracted one by
/// default); the listing only with \p Bypass off, because it prints
/// every input buffer, which the contraction leaves partial.
RunDigest digestRun(const Program &Prog, unsigned Jobs, bool Bypass) {
  obs::Registry::global().reset();
  AnalyzerOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Dep.Bypass = Bypass;
  AnalysisRun Run = analyzeProgram(Prog, Opts);

  RunDigest D;
  if (!Bypass)
    D.Listing = exportAnnotatedListing(Prog, Run);
  CheckerSummary Summary = checkBufferOverruns(Prog, Run);
  for (const AccessCheck &C : Summary.Checks)
    D.Alarms += C.str(Prog) + "\n";
  D.Visits = Run.Sparse->Visits;
  D.StateEntries = Run.Sparse->StateEntries;
  for (uint32_t N = 0; N < Run.Graph->numNodes(); ++N)
    Run.Graph->Edges->forEachOut(N, [&](LocId L, uint32_t Dst) {
      D.Edges.emplace_back(N, L.value(), Dst);
    });
  D.In = Run.Sparse->In;
  D.Out = Run.Sparse->Out;
  // The deterministic fixpoint counters: per-shard schedules are
  // restrictions of the sequential schedule, so even push/dedup totals
  // must match exactly.  Timing gauges are not deterministic; take only
  // the counters that count work.
  for (const auto &[Name, V] : obs::Registry::global().snapshot()) {
    if (Name.rfind("fixpoint.", 0) == 0 && Name.find("seconds") ==
        std::string::npos)
      D.Counters[Name] = V;
    if (Name.rfind("depgraph.", 0) == 0 && Name != "depgraph.storage_bytes")
      D.GraphGauges[Name] = V;
  }
  // The bypass-off graph has no edgeless phi to drop.
  if (!Bypass) {
    EXPECT_EQ(obs::Registry::global().value("depgraph.phis_dropped"), 0.0);
  }
  if (Run.Ledger)
    for (uint32_t N = 0; N < Run.Ledger->numRows(); ++N) {
      const obs::PointCost &C = Run.Ledger->row(N);
      D.LedgerRows.insert(D.LedgerRows.end(),
                          {C.Visits, C.Widenings, C.Narrowings, C.Joins,
                           C.NoChangeSkips, C.Deliveries, C.Growth,
                           C.Closures});
    }
  return D;
}

/// Analyzes \p Rounds generator programs at jobs 1, 2, 4 and 8 and
/// asserts every digest field equal to the single-lane run's.
void expectIdenticalAcrossJobCounts(unsigned Rounds, bool Bypass) {
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    BuildResult Built =
        buildProgramFromSource(generateSource(configForRound(Round)));
    ASSERT_TRUE(Built.ok()) << Built.Error;
    const Program &Prog = *Built.Prog;

    RunDigest Seq = digestRun(Prog, 1, Bypass);
    for (unsigned Jobs : {2u, 4u, 8u}) {
      RunDigest Par = digestRun(Prog, Jobs, Bypass);
      ASSERT_EQ(Seq.Listing, Par.Listing)
          << "round " << Round << " jobs " << Jobs;
      ASSERT_EQ(Seq.Alarms, Par.Alarms)
          << "round " << Round << " jobs " << Jobs;
      ASSERT_EQ(Seq.Visits, Par.Visits)
          << "round " << Round << " jobs " << Jobs;
      ASSERT_EQ(Seq.StateEntries, Par.StateEntries)
          << "round " << Round << " jobs " << Jobs;
      ASSERT_EQ(Seq.Edges, Par.Edges)
          << "round " << Round << " jobs " << Jobs;
      ASSERT_EQ(Seq.Counters, Par.Counters)
          << "round " << Round << " jobs " << Jobs;
      ASSERT_EQ(Seq.GraphGauges, Par.GraphGauges)
          << "round " << Round << " jobs " << Jobs;
      ASSERT_EQ(Seq.LedgerRows, Par.LedgerRows)
          << "round " << Round << " jobs " << Jobs;
      ASSERT_EQ(Seq.In.size(), Par.In.size());
      for (size_t N = 0; N < Seq.In.size(); ++N) {
        ASSERT_EQ(Seq.In[N], Par.In[N])
            << "round " << Round << " jobs " << Jobs << " node " << N;
        ASSERT_EQ(Seq.Out[N], Par.Out[N])
            << "round " << Round << " jobs " << Jobs << " node " << N;
      }
    }
  }
}

TEST(ParallelDeterminismTest, AllJobCountsProduceIdenticalResults) {
  expectIdenticalAcrossJobCounts(/*Rounds=*/50, /*Bypass=*/false);
}

TEST(ParallelDeterminismTest, BypassGraphsAndResultsIndependentOfJobs) {
  // The default configuration (what spa-analyze prog.spa --jobs=N,
  // --check and spa-serve run): the bypass contraction runs per
  // location on the pool lanes, and its graph, hence everything
  // downstream, must not depend on how locations were spread over them.
  expectIdenticalAcrossJobCounts(/*Rounds=*/100, /*Bypass=*/true);
}

TEST(ParallelDeterminismTest, BudgetDegradationIsIdenticalAcrossJobCounts) {
  // Budget-triggered degradation must be as deterministic as the full
  // fixpoint: an expired deadline trips before the first pop in *every*
  // shard, so all nodes are pending, the affected set is the whole graph,
  // and the degraded states are bit-identical regardless of job count.
  for (unsigned Round : {1u, 3u, 7u}) {
    BuildResult Built =
        buildProgramFromSource(generateSource(configForRound(Round)));
    ASSERT_TRUE(Built.ok()) << Built.Error;
    const Program &Prog = *Built.Prog;

    auto Degraded = [&](unsigned Jobs) {
      AnalyzerOptions Opts;
      Opts.Jobs = Jobs;
      Opts.Dep.Bypass = false;
      Opts.Budget.DeadlineSec = -1;
      return analyzeProgram(Prog, Opts);
    };

    AnalysisRun Seq = Degraded(1);
    ASSERT_TRUE(Seq.degraded());
    ASSERT_EQ(Seq.Sparse->Visits, 0u);
    std::string SeqListing = exportAnnotatedListing(Prog, Seq);
    for (unsigned Jobs : {2u, 4u, 8u}) {
      AnalysisRun Par = Degraded(Jobs);
      ASSERT_TRUE(Par.degraded()) << "round " << Round << " jobs " << Jobs;
      ASSERT_EQ(Par.Sparse->Visits, 0u);
      ASSERT_EQ(Par.BudgetStop, BudgetReason::Deadline);
      ASSERT_EQ(SeqListing, exportAnnotatedListing(Prog, Par))
          << "round " << Round << " jobs " << Jobs;
      ASSERT_EQ(Seq.Sparse->In.size(), Par.Sparse->In.size());
      for (size_t N = 0; N < Seq.Sparse->In.size(); ++N) {
        ASSERT_EQ(Seq.Sparse->In[N], Par.Sparse->In[N])
            << "round " << Round << " jobs " << Jobs << " node " << N;
        ASSERT_EQ(Seq.Sparse->Out[N], Par.Sparse->Out[N])
            << "round " << Round << " jobs " << Jobs << " node " << N;
      }
    }
  }
}

TEST(ParallelDeterminismTest, PhaseGaugesSatisfyTotalInvariant) {
  // The per-phase gauge split must stay exact under parallel execution:
  // total == pre + defuse + depbuild + fix (pinned sequentially by
  // tests/obs_test.cpp), and depbuild == ssa + link + bypass + storage.
  BuildResult Built =
      buildProgramFromSource(generateSource(configForRound(7)));
  ASSERT_TRUE(Built.ok());
  obs::Registry::global().reset();
  AnalyzerOptions Opts;
  Opts.Jobs = 4;
  AnalysisRun Run = analyzeProgram(*Built.Prog, Opts);
  EXPECT_DOUBLE_EQ(Run.totalSeconds(),
                   Run.PreSeconds + Run.DefUseSeconds +
                       Run.depBuildSeconds() + Run.fixSeconds());
  const SparseGraph &G = *Run.Graph;
  EXPECT_DOUBLE_EQ(Run.depBuildSeconds(), G.SsaSeconds + G.LinkSeconds +
                                              G.BypassSeconds +
                                              G.StorageSeconds);
  EXPECT_GT(G.BypassSeconds, 0);
  auto Snapshot = obs::Registry::global().snapshot();
  std::map<std::string, double> M(Snapshot.begin(), Snapshot.end());
#if SPA_OBS_ENABLED
  for (const char *Sub : {"ssa", "link", "bypass", "storage"})
    EXPECT_EQ(M.count(std::string("phase.depbuild.") + Sub + ".seconds"), 1u)
        << Sub;
#endif
  EXPECT_DOUBLE_EQ(M["phase.total.seconds"],
                   M["phase.pre.seconds"] + M["phase.defuse.seconds"] +
                       M["phase.depbuild.seconds"] +
                       M["phase.fix.seconds"]);
  EXPECT_DOUBLE_EQ(M["phase.depbuild.seconds"],
                   M["phase.depbuild.ssa.seconds"] +
                       M["phase.depbuild.link.seconds"] +
                       M["phase.depbuild.bypass.seconds"] +
                       M["phase.depbuild.storage.seconds"]);
#if SPA_OBS_ENABLED
  // Gauges exist only in instrumented builds; the AnalysisRun timing
  // invariant above still holds with -DSPA_OBS=OFF.
  EXPECT_EQ(M["par.jobs"], 4);
#endif
}

TEST(ParallelDeterminismTest, BatchResultsIndependentOfJobs) {
  std::vector<BatchItem> Items;
  for (unsigned Round = 0; Round < 6; ++Round) {
    std::string Name = "p";
    Name += std::to_string(Round);
    Items.push_back({std::move(Name),
                     generateSource(configForRound(Round))});
  }

  auto RunWith = [&](unsigned Jobs) {
    BatchOptions Opts;
    Opts.Analyzer.Jobs = Jobs;
    Opts.Check = true;
    return runBatch(Items, Opts);
  };
  BatchResult Seq = RunWith(1);
  BatchResult Par = RunWith(4);
  ASSERT_EQ(Seq.Items.size(), Par.Items.size());
  for (size_t I = 0; I < Seq.Items.size(); ++I) {
    EXPECT_EQ(Seq.Items[I].Name, Par.Items[I].Name);
    EXPECT_EQ(Seq.Items[I].Ok, Par.Items[I].Ok);
    EXPECT_EQ(Seq.Items[I].Checks, Par.Items[I].Checks);
    EXPECT_EQ(Seq.Items[I].Alarms, Par.Items[I].Alarms);
    // Rolled-up ledger counts ride the same contract (time is exempt).
    EXPECT_EQ(Seq.Items[I].LedgerVisits, Par.Items[I].LedgerVisits);
    EXPECT_EQ(Seq.Items[I].LedgerWidenings, Par.Items[I].LedgerWidenings);
    EXPECT_EQ(Seq.Items[I].LedgerGrowth, Par.Items[I].LedgerGrowth);
  }
}

} // namespace
