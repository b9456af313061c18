//===- table2_interval.cpp - Reproduces Table 2 -----------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 2: interval-analysis performance of the three analyzers.
///
///   Interval_vanilla — dense global engine;
///   Interval_base    — dense + access-based localization;
///   Interval_sparse  — the sparse framework (Dep = pre-analysis + def/use
///                      + dependency construction; Fix = sparse fixpoint).
///
/// Each configuration runs in a forked child under a wall-clock limit
/// (SPA_TIME_LIMIT, default 20 s — the scaled version of the paper's 24 h
/// budget); "inf" rows mirror the paper's timeouts.  Peak memory is the
/// child's ru_maxrss.  Spd.1/Mem.1 compare Base against Vanilla,
/// Spd.2/Mem.2 compare Sparse against Base, exactly as in the paper.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace spa;
using namespace spa::bench;

namespace {

struct RunOutcome {
  bool Ok = false;
  bool TimedOut = false;
  double Seconds = 0;
  double DepSeconds = 0; // Sparse only.
  double FixSeconds = 0;
  uint64_t PeakRssKiB = 0;
  double AvgDef = 0, AvgUse = 0;
};

RunOutcome runEngine(const SuiteEntry &E, EngineKind Engine,
                     double TimeLimit) {
  // The child rebuilds the program (generation is deterministic), runs
  // one engine, and reports phase timings; the parent sees wall time and
  // peak RSS even if the child is killed at the limit.
  ChildRunResult R = runInChild(
      [&]() -> std::vector<double> {
        std::unique_ptr<Program> Prog = buildEntry(E);
        AnalyzerOptions Opts;
        Opts.Engine = Engine;
        // The child gets killed at the wall-clock limit; the budget
        // deadline stays a bit below, so a run that reaches it degrades
        // and still reports (timedOut()).
        Opts.Budget.DeadlineSec = TimeLimit * 0.95;
        AnalysisRun Run = analyzeProgram(*Prog, Opts);
        appendBenchRecord(E.Name, engineName(Engine), !Run.timedOut());
        return {Run.timedOut() ? 1.0 : 0.0, Run.depSeconds(),
                Run.fixSeconds(), Run.DU.avgSemanticDefSize(),
                Run.DU.avgSemanticUseSize()};
      },
      TimeLimit);

  RunOutcome Out;
  Out.Seconds = R.Seconds;
  Out.PeakRssKiB = R.PeakRssKiB;
  if (!R.Ok || R.TimedOut || R.Payload.size() < 5 || R.Payload[0] != 0.0) {
    Out.TimedOut = true;
    return Out;
  }
  Out.Ok = true;
  Out.DepSeconds = R.Payload[1];
  Out.FixSeconds = R.Payload[2];
  Out.AvgDef = R.Payload[3];
  Out.AvgUse = R.Payload[4];
  return Out;
}

} // namespace

int main() {
  double Scale = suiteScaleFromEnv();
  double TimeLimit = timeLimitFromEnv();
  std::printf("Table 2: interval analysis performance (scale=%.2f, "
              "time limit=%.0fs per run)\n",
              Scale, TimeLimit);
  std::printf("Times in seconds, memory in MiB; inf = exceeded limit "
              "(paper: 24h)\n\n");

  std::printf("%-20s | %8s %6s | %8s %6s %6s %6s | %6s %6s %8s %6s %6s "
              "%6s | %6s %6s\n",
              "Program", "Vanilla", "Mem", "Base", "Mem", "Spd.1",
              "Mem.1", "Dep", "Fix", "Total", "Mem", "Spd.2", "Mem.2",
              "D(c)", "U(c)");

  for (const SuiteEntry &E : paperSuite(Scale)) {
    RunOutcome Vanilla = runEngine(E, EngineKind::Vanilla, TimeLimit);
    RunOutcome Base = runEngine(E, EngineKind::Base, TimeLimit);
    RunOutcome Sparse = runEngine(E, EngineKind::Sparse, TimeLimit);

    std::string VT = fmtSeconds(Vanilla.Seconds, Vanilla.TimedOut);
    std::string VM = Vanilla.TimedOut ? "N/A" : fmtMiB(Vanilla.PeakRssKiB);
    std::string BT = fmtSeconds(Base.Seconds, Base.TimedOut);
    std::string BM = Base.TimedOut ? "N/A" : fmtMiB(Base.PeakRssKiB);
    std::string Spd1 = fmtRatio(Vanilla.Seconds, Base.Seconds,
                                Vanilla.Ok && Base.Ok);
    std::string Mem1 = fmtPercentSaved(
        static_cast<double>(Vanilla.PeakRssKiB),
        static_cast<double>(Base.PeakRssKiB), Vanilla.Ok && Base.Ok);

    std::string Dep = Sparse.Ok ? fmtSeconds(Sparse.DepSeconds, false)
                                : "inf";
    std::string Fix = Sparse.Ok ? fmtSeconds(Sparse.FixSeconds, false)
                                : "inf";
    std::string ST = fmtSeconds(Sparse.Seconds, Sparse.TimedOut);
    std::string SM = Sparse.TimedOut ? "N/A" : fmtMiB(Sparse.PeakRssKiB);
    std::string Spd2 =
        fmtRatio(Base.Seconds, Sparse.Seconds, Base.Ok && Sparse.Ok);
    std::string Mem2 = fmtPercentSaved(
        static_cast<double>(Base.PeakRssKiB),
        static_cast<double>(Sparse.PeakRssKiB), Base.Ok && Sparse.Ok);

    char DC[16] = "N/A", UC[16] = "N/A";
    if (Sparse.Ok) {
      std::snprintf(DC, sizeof(DC), "%.1f", Sparse.AvgDef);
      std::snprintf(UC, sizeof(UC), "%.1f", Sparse.AvgUse);
    }

    std::printf("%-20s | %8s %6s | %8s %6s %6s %6s | %6s %6s %8s %6s %6s "
                "%6s | %6s %6s\n",
                E.Name.c_str(), VT.c_str(), VM.c_str(), BT.c_str(),
                BM.c_str(), Spd1.c_str(), Mem1.c_str(), Dep.c_str(),
                Fix.c_str(), ST.c_str(), SM.c_str(), Spd2.c_str(),
                Mem2.c_str(), DC, UC);
    std::fflush(stdout);
  }

  std::printf("\nExpected shape (paper): Base is 8-55x faster than "
              "Vanilla; Sparse is a further 5-110x faster than Base and "
              "is the only analyzer that finishes the largest programs; "
              "avg |D(c)|,|U(c)| stay small.\n");
  return 0;
}
