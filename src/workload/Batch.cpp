//===- Batch.cpp - Multi-program batch analysis driver --------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "workload/Batch.h"

#include "core/Checker.h"
#include "ir/Builder.h"
#include "ir/Snapshot.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "obs/MetricsSink.h"
#include "support/Fault.h"
#include "support/Resource.h"
#include "support/ThreadPool.h"
#include "workload/Suite.h"

#include <fstream>
#include <sstream>

using namespace spa;

const char *spa::batchOutcomeName(BatchOutcome O) {
  switch (O) {
  case BatchOutcome::Ok:
    return "ok";
  case BatchOutcome::Degraded:
    return "degraded";
  case BatchOutcome::BuildError:
    return "build_error";
  case BatchOutcome::Timeout:
    return "timeout";
  case BatchOutcome::Oom:
    return "oom";
  case BatchOutcome::Crash:
    return "crash";
  case BatchOutcome::Stalled:
    return "stalled";
  }
  return "unknown";
}

size_t BatchResult::numFailed() const {
  size_t N = 0;
  for (const BatchItemResult &R : Items)
    N += !R.Ok;
  return N;
}

size_t BatchResult::numDegraded() const {
  return countOutcome(BatchOutcome::Degraded);
}

size_t BatchResult::countOutcome(BatchOutcome O) const {
  size_t N = 0;
  for (const BatchItemResult &R : Items)
    N += R.Outcome == O;
  return N;
}

int spa::exitCodeFor(const BatchResult &R) {
  if (R.numFailed() > 0)
    return 2;
  if (R.numDegraded() > 0)
    return 3;
  return 0;
}

const char *spa::batchEngineName(EngineKind E) {
  switch (E) {
  case EngineKind::Vanilla:
    return "vanilla";
  case EngineKind::Base:
    return "base";
  case EngineKind::Sparse:
    return "sparse";
  }
  return "unknown";
}

AnalyzerOptions spa::lowerTierOptions(const AnalyzerOptions &A) {
  AnalyzerOptions T = A;
  if (T.Budget.DeadlineSec > 0)
    T.Budget.DeadlineSec /= 2;
  T.Budget.StepLimit = T.Budget.StepLimit ? T.Budget.StepLimit / 2 : 50000;
  return T;
}

bool spa::retryable(BatchOutcome O) {
  return O == BatchOutcome::Timeout || O == BatchOutcome::Oom ||
         O == BatchOutcome::Crash || O == BatchOutcome::Stalled;
}

void spa::adoptRetry(BatchItemResult &R, BatchItemResult Retry) {
  double Total = R.Seconds + Retry.Seconds;
  if (Retry.Ok)
    R = std::move(Retry);
  R.Retried = true;
  R.Seconds = Total;
}

BatchItemResult spa::runBatchItem(const BatchItem &Item,
                                  const std::vector<uint8_t> *Snapshot,
                                  const BatchOptions &Opts,
                                  const AnalyzerOptions &A) {
  BatchItemResult R;
  R.Name = Item.Name;
  Timer Clock;
  // The "build" fault phase covers program *construction* whichever way
  // it happens — frontend or snapshot loader.
  maybeInjectFault("build");
  std::unique_ptr<Program> Prog;
  if (Snapshot || !Item.SnapshotPath.empty()) {
    SnapshotLoadResult L = Snapshot ? loadSnapshot(*Snapshot)
                                    : loadSnapshotFile(Item.SnapshotPath);
    Prog = std::move(L.Prog);
    if (!Prog)
      R.Error = L.Error.str();
  } else {
    BuildResult Built = buildProgramFromSource(Item.Source);
    Prog = std::move(Built.Prog);
    R.Error = std::move(Built.Error);
  }
  if (!Prog) {
    R.Outcome = BatchOutcome::BuildError;
    R.Seconds = Clock.seconds();
    return R;
  }
  AnalysisRun Run = analyzeProgram(*Prog, A);
  R.Degraded = Run.degraded();
  R.BudgetSteps = Run.BudgetSteps;
  if (Run.Ledger) {
    obs::PointCost T = Run.Ledger->totals();
    R.LedgerVisits = T.Visits;
    R.LedgerWidenings = T.Widenings;
    R.LedgerGrowth = T.Growth;
    R.LedgerTimeMicros = T.TimeMicros;
  }
  if (Opts.Check) {
    maybeInjectFault("check");
    CheckerSummary Summary = checkBufferOverruns(*Prog, Run);
    R.Checks = static_cast<unsigned>(Summary.Checks.size());
    R.Alarms = Summary.numAlarms();
  }
  R.Outcome = R.Degraded ? BatchOutcome::Degraded : BatchOutcome::Ok;
  R.Ok = true;
  R.Seconds = Clock.seconds();
  return R;
}

void spa::publishBatchGauges(const BatchResult &R, unsigned Lanes) {
  // Gauge scoping: per-run gauges (program.points, analysis.degraded,
  // phase.*.seconds, ledger.*) hold whichever item's run wrote them
  // last — meaningless at batch level and misleading in the batch's
  // --metrics-out snapshot.  Zero them so the export carries only
  // batch-scoped gauges; counters and histograms accumulate as before.
  // Peak RSS is a genuine process-wide maximum, so it is re-measured.
  obs::Registry::global().resetGauges();
  SPA_OBS_GAUGE_MAX("mem.peak_rss_kib", currentPeakRssKiB());

  SPA_OBS_GAUGE_SET("batch.programs", R.Items.size());
  SPA_OBS_GAUGE_SET("batch.failed", R.numFailed());
  SPA_OBS_GAUGE_SET("batch.jobs", Lanes);
  SPA_OBS_GAUGE_SET("batch.seconds", R.Seconds);
  SPA_OBS_GAUGE_SET("batch.programs_per_sec", R.programsPerSec());
  SPA_OBS_GAUGE_SET("batch.degraded", R.numDegraded());
  SPA_OBS_GAUGE_SET("batch.failures.timeout",
                    R.countOutcome(BatchOutcome::Timeout));
  SPA_OBS_GAUGE_SET("batch.failures.oom", R.countOutcome(BatchOutcome::Oom));
  SPA_OBS_GAUGE_SET("batch.failures.crash",
                    R.countOutcome(BatchOutcome::Crash));
  SPA_OBS_GAUGE_SET("batch.failures.stalled",
                    R.countOutcome(BatchOutcome::Stalled));
  SPA_OBS_GAUGE_SET("batch.failures.build_error",
                    R.countOutcome(BatchOutcome::BuildError));
}

BatchResult spa::runBatch(const std::vector<BatchItem> &Items,
                          const BatchOptions &Opts) {
  BatchResult Result;
  Result.Items.resize(Items.size());

  const AnalyzerOptions &AOpts = Opts.Analyzer;
  AnalyzerOptions Lower = lowerTierOptions(AOpts);
  unsigned Jobs = AOpts.Jobs ? AOpts.Jobs : ThreadPool::defaultJobs();

  Timer Clock;
  // One program per index: each lane builds and analyzes its own Program
  // (no shared mutable state beyond the obs registry, whose counters are
  // atomic).  Inside a worker lane the analyzer's parallel phases run
  // inline, so the batch does not oversubscribe the pool.
  ThreadPool::global().parallelFor(Items.size(), Jobs, [&](size_t I) {
    SPA_OBS_JOURNAL(BatchItemBegin, I, 0);
    BatchItemResult R = runBatchItem(Items[I], nullptr, Opts, AOpts);
    if (Opts.RetryAtLowerTier && retryable(R.Outcome)) {
      SPA_OBS_COUNT("batch.retries", 1);
      adoptRetry(R, runBatchItem(Items[I], nullptr, Opts, Lower));
    }
    SPA_OBS_JOURNAL(BatchItemEnd, I, static_cast<uint64_t>(R.Outcome));
    Result.Items[I] = std::move(R);
  });
  Result.Seconds = Clock.seconds();

  publishBatchGauges(Result, Jobs);
  obs::MetricsSink::appendBenchRecord("batch", batchEngineName(AOpts.Engine),
                                      Result.numFailed() == 0);
  return Result;
}

std::vector<BatchItem> spa::suiteBatch(double Scale) {
  std::vector<BatchItem> Items;
  for (const SuiteEntry &E : paperSuite(Scale)) {
    BatchItem It;
    It.Name = E.Name;
    It.Source = generateSource(E.Config);
    Items.push_back(std::move(It));
  }
  return Items;
}

bool spa::loadBatchFile(const std::string &Path,
                        std::vector<BatchItem> &Items, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot open " + Path;
    return false;
  }
  std::string Dir;
  if (size_t Slash = Path.find_last_of('/'); Slash != std::string::npos)
    Dir = Path.substr(0, Slash + 1);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t B = Line.find_first_not_of(" \t\r");
    if (B == std::string::npos || Line[B] == '#')
      continue;
    size_t E = Line.find_last_not_of(" \t\r");
    std::string Entry = Line.substr(B, E - B + 1);
    std::string Full =
        (Entry[0] == '/' || Dir.empty()) ? Entry : Dir + Entry;
    BatchItem It;
    It.Name = Entry;
    // .snap entries are pre-serialized IR: loaded by the snapshot
    // loader at analysis time, never opened here.
    if (Entry.size() > 5 && Entry.rfind(".snap") == Entry.size() - 5) {
      It.SnapshotPath = Full;
    } else {
      std::ifstream Src(Full);
      if (!Src) {
        Error = "cannot open " + Full;
        return false;
      }
      std::ostringstream OS;
      OS << Src.rdbuf();
      It.Source = OS.str();
    }
    Items.push_back(std::move(It));
  }
  return true;
}
