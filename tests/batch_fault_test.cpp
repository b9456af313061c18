//===- batch_fault_test.cpp - Fault-isolated batch execution tests --------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-isolation contract of docs/ROBUSTNESS.md: injected faults
/// (SPA_FAULT crash/oom/timeout, armed only inside shard workers, around
/// one item at a time) take down exactly the worker running the targeted
/// program; the batch completes, classifies the failure in its taxonomy,
/// leaves every other item's results identical to a clean run, and the
/// process exit code reflects the worst outcome (0 clean / 3 degraded /
/// 2 failed).  Isolated runs go through the one executor that forks,
/// runSharded, with one worker per lane — what `--isolate` runs.
///
//===----------------------------------------------------------------------===//

#include "obs/Postmortem.h"
#include "support/Fault.h"
#include "workload/Batch.h"
#include "workload/Generator.h"
#include "workload/ShardCoordinator.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include <sys/stat.h>
#include <unistd.h>

using namespace spa;

namespace {

/// A small randomized suite: 6 generated programs with varied shapes.
std::vector<BatchItem> makeSuite() {
  std::vector<BatchItem> Items;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    GenConfig Config;
    Config.Seed = Seed * 271;
    Config.NumFunctions = 3;
    Config.StmtsPerFunction = 8;
    Config.AllowLoops = true;
    Config.AllowRecursion = (Seed % 2) == 0;
    Items.push_back({"prog" + std::to_string(Seed), generateSource(Config)});
  }
  return Items;
}

/// RAII guard: sets SPA_FAULT for the duration of one batch run.
struct FaultEnv {
  explicit FaultEnv(const char *Spec) { setenv("SPA_FAULT", Spec, 1); }
  ~FaultEnv() { unsetenv("SPA_FAULT"); }
};

BatchOptions isolatedOptions() {
  BatchOptions Opts;
  Opts.Analyzer.Jobs = 2;
  Opts.Check = true;
  // Bounds the injected "timeout" fault (which sleeps forever in the
  // worker) without slowing the healthy programs down.
  Opts.KillLimitSec = 2;
  return Opts;
}

/// A fault-isolated batch: `--isolate`, i.e. one shard worker per lane.
BatchResult runIsolated(const std::vector<BatchItem> &Items,
                        const BatchOptions &Opts) {
  ShardOptions SOpts;
  SOpts.Batch = Opts;
  SOpts.Shards = Opts.Analyzer.Jobs;
  return runSharded(Items, SOpts).Batch;
}

void expectSameResults(const BatchItemResult &A, const BatchItemResult &B) {
  EXPECT_EQ(A.Name, B.Name);
  EXPECT_EQ(A.Ok, B.Ok);
  EXPECT_EQ(A.Outcome, B.Outcome);
  EXPECT_EQ(A.Degraded, B.Degraded);
  EXPECT_EQ(A.Checks, B.Checks);
  EXPECT_EQ(A.Alarms, B.Alarms);
}

} // namespace

//===----------------------------------------------------------------------===//
// SPA_FAULT parsing
//===----------------------------------------------------------------------===//

TEST(FaultPlan, ParsesKindPhaseAndNameFilter) {
  FaultPlan P = FaultPlan::parse("crash@fix:prog3");
  EXPECT_TRUE(P.active());
  EXPECT_EQ(P.K, FaultPlan::Kind::Crash);
  EXPECT_EQ(P.Phase, "fix");
  EXPECT_EQ(P.NameSub, "prog3");

  P = FaultPlan::parse("oom@*");
  EXPECT_TRUE(P.active());
  EXPECT_EQ(P.K, FaultPlan::Kind::Oom);
  EXPECT_EQ(P.Phase, "*");
  EXPECT_TRUE(P.NameSub.empty());

  P = FaultPlan::parse("timeout@pre");
  EXPECT_EQ(P.K, FaultPlan::Kind::Timeout);
  EXPECT_EQ(P.Phase, "pre");
}

TEST(FaultPlan, ParsesParentSideReaderKinds) {
  FaultPlan P = FaultPlan::parse("truncate@reader:prog2");
  EXPECT_TRUE(P.active());
  EXPECT_EQ(P.K, FaultPlan::Kind::Truncate);
  EXPECT_TRUE(P.parentSide());
  EXPECT_EQ(P.Phase, "reader");
  EXPECT_EQ(P.NameSub, "prog2");

  P = FaultPlan::parse("partial@reader");
  EXPECT_TRUE(P.active());
  EXPECT_EQ(P.K, FaultPlan::Kind::Partial);
  EXPECT_TRUE(P.parentSide());

  // Child-killing kinds are never parent-side.
  EXPECT_FALSE(FaultPlan::parse("crash@fix").parentSide());
  EXPECT_FALSE(FaultPlan::parse("oom@*").parentSide());
  EXPECT_FALSE(FaultPlan::parse("timeout@pre").parentSide());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::parse(nullptr).active());
  EXPECT_FALSE(FaultPlan::parse("").active());
  EXPECT_FALSE(FaultPlan::parse("crash").active());
  EXPECT_FALSE(FaultPlan::parse("explode@fix").active());
}

TEST(FaultPlan, InjectionIsInertOutsideAFaultScope) {
  FaultEnv Env("crash@fix");
  // Without a FaultScope (i.e. outside a shard worker) the armed plan
  // must never fire in this process.
  maybeInjectFault("fix");
  SUCCEED();
}

//===----------------------------------------------------------------------===//
// Fault-isolated batch execution
//===----------------------------------------------------------------------===//

class BatchFaultInjection : public ::testing::Test {
protected:
  void SetUp() override {
    unsetenv("SPA_FAULT");
    Items = makeSuite();
    Clean = runIsolated(Items, isolatedOptions());
    ASSERT_EQ(Clean.Items.size(), Items.size());
    ASSERT_EQ(Clean.numFailed(), 0u);
    ASSERT_EQ(exitCodeFor(Clean), 0);
  }

  /// Runs the batch with \p Spec injected, expecting exactly item
  /// \p Victim to fail with \p Expected while the rest match the clean
  /// run bit for bit.  When \p ErrorSub is given, the victim's error
  /// string must contain it (pins the classification message).
  void runInjected(const char *Spec, size_t Victim, BatchOutcome Expected,
                   const char *ErrorSub = nullptr) {
    FaultEnv Env(Spec);
    BatchResult Faulty = runIsolated(Items, isolatedOptions());
    ASSERT_EQ(Faulty.Items.size(), Items.size());

    // The batch completed and classified exactly one failure.
    EXPECT_EQ(Faulty.numFailed(), 1u) << Spec;
    EXPECT_EQ(Faulty.countOutcome(Expected), 1u) << Spec;
    EXPECT_EQ(exitCodeFor(Faulty), 2) << Spec;

    const BatchItemResult &R = Faulty.Items[Victim];
    EXPECT_EQ(R.Outcome, Expected) << Spec << ": " << R.Error;
    EXPECT_FALSE(R.Ok);
    // A deterministic fault re-fires on the lower-tier retry, so the
    // first classification is kept and the retry is recorded.
    EXPECT_TRUE(R.Retried) << Spec;
    if (ErrorSub) {
      EXPECT_NE(R.Error.find(ErrorSub), std::string::npos)
          << Spec << ": " << R.Error;
    }

    // Fault isolation: every other program's results are unchanged.
    for (size_t I = 0; I < Items.size(); ++I) {
      if (I == Victim)
        continue;
      expectSameResults(Faulty.Items[I], Clean.Items[I]);
    }
  }

  std::vector<BatchItem> Items;
  BatchResult Clean;
};

TEST_F(BatchFaultInjection, CrashIsIsolatedAndClassified) {
  runInjected("crash@fix:prog3", 2, BatchOutcome::Crash);
}

TEST_F(BatchFaultInjection, OomIsIsolatedAndClassified) {
  runInjected("oom@pre:prog5", 4, BatchOutcome::Oom);
}

TEST_F(BatchFaultInjection, TimeoutIsKilledAtTheLimitAndClassified) {
  runInjected("timeout@defuse:prog1", 0, BatchOutcome::Timeout);
}

TEST_F(BatchFaultInjection, BuildPhaseCrashLosesOnlyThatItem) {
  runInjected("crash@build:prog6", 5, BatchOutcome::Crash);
}

TEST_F(BatchFaultInjection, TruncatedPipePayloadIsClassifiedAsCrash) {
  // Parent-side reader fault: the worker does its work and ships its
  // frame, but the parent sees none of the payload (a torn write).  The
  // batch must classify the lost item as a crash without wedging the
  // dealer, and the other items' results stay intact.
  runInjected("truncate@reader:prog2", 1, BatchOutcome::Crash,
              "truncated result payload");
}

TEST_F(BatchFaultInjection, PartialPipePayloadIsClassifiedAsCrash) {
  // Same, but the payload is cut off mid-write: the prefix arrives, half
  // the payload does not.
  runInjected("partial@reader:prog4", 3, BatchOutcome::Crash,
              "truncated result payload");
}

#if SPA_OBS_ENABLED

TEST_F(BatchFaultInjection, CrashedChildShipsAPostmortem) {
  std::string Dir =
      ::testing::TempDir() + "spa-pm-crash-" + std::to_string(getpid());
  mkdir(Dir.c_str(), 0755);

  FaultEnv Env("crash@fix:prog3");
  BatchOptions Opts = isolatedOptions();
  Opts.PostmortemDir = Dir;
  Opts.RetryAtLowerTier = false;
  BatchResult R = runIsolated(Items, Opts);
  ASSERT_EQ(R.Items.size(), Items.size());

  // The dying worker shipped its diagnosis over the result pipe: the
  // victim carries a crash note (abort = SIGABRT) folded into its error.
  const BatchItemResult &V = R.Items[2];
  EXPECT_EQ(V.Outcome, BatchOutcome::Crash) << V.Error;
  EXPECT_TRUE(V.HasPostmortem);
  EXPECT_NE(V.CrashNote.find("signal 6"), std::string::npos) << V.CrashNote;
  EXPECT_NE(V.Error.find("postmortem:"), std::string::npos) << V.Error;

  // And the postmortem file is a structurally complete document.
  std::ifstream In(Dir + "/prog3.pm.json");
  ASSERT_TRUE(In.good()) << "missing " << Dir << "/prog3.pm.json";
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Doc = SS.str();
  EXPECT_NE(Doc.find("\"schema\": \"spa-postmortem-v1\""), std::string::npos);
  EXPECT_NE(Doc.find("\"reason\": \"signal\""), std::string::npos);
  EXPECT_NE(Doc.find("\"signal\": 6"), std::string::npos);
  EXPECT_NE(Doc.find("\"threads\""), std::string::npos);
  long Depth = 0;
  bool InString = false;
  for (size_t I = 0; I < Doc.size(); ++I) {
    char C = Doc[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{' || C == '[')
      ++Depth;
    else if (C == '}' || C == ']')
      --Depth;
    ASSERT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0) << "unbalanced postmortem document";

  // Surviving items: postmortem-free and identical to the clean run.
  for (size_t I = 0; I < Items.size(); ++I) {
    if (I == 2)
      continue;
    EXPECT_FALSE(R.Items[I].HasPostmortem) << I;
    expectSameResults(R.Items[I], Clean.Items[I]);
  }
}

TEST_F(BatchFaultInjection, StallIsCaughtByTheWatchdogNotTheKillLimit) {
  // A fixpoint that stops heartbeating (the stall fault parks forever at
  // the in-loop checkpoint) must be diagnosed as `stalled` by the
  // watchdog within a few hundred ms — long before the kill limit, whose
  // bare Timeout classification would mean the watchdog failed.
  FaultEnv Env("stall@fixloop:prog1");
  BatchOptions Opts = isolatedOptions();
  Opts.WatchdogMs = 100;
  Opts.KillLimitSec = 30;
  Opts.RetryAtLowerTier = false;
  BatchResult R = runIsolated(Items, Opts);
  ASSERT_EQ(R.Items.size(), Items.size());

  const BatchItemResult &V = R.Items[0];
  EXPECT_EQ(V.Outcome, BatchOutcome::Stalled) << V.Error;
  EXPECT_FALSE(V.Ok);
  EXPECT_NE(V.Error.find("stalled"), std::string::npos) << V.Error;
  // The watchdog's pipe summary names the stall context.
  EXPECT_TRUE(V.HasPostmortem);
  EXPECT_NE(V.CrashNote.find("stall"), std::string::npos) << V.CrashNote;
  EXPECT_EQ(R.countOutcome(BatchOutcome::Stalled), 1u);
  EXPECT_EQ(R.countOutcome(BatchOutcome::Timeout), 0u);
  EXPECT_EQ(exitCodeFor(R), 2);

  for (size_t I = 1; I < Items.size(); ++I)
    expectSameResults(R.Items[I], Clean.Items[I]);
}

#endif // SPA_OBS_ENABLED

TEST_F(BatchFaultInjection, FaultsNeverEscapeWithoutIsolation) {
  // The same plan in an in-process batch must not fire at all: there is
  // no FaultScope outside shard workers, so the run is clean.
  FaultEnv Env("crash@fix");
  BatchOptions Opts;
  Opts.Analyzer.Jobs = 2;
  Opts.Check = true;
  BatchResult R = runBatch(Items, Opts);
  EXPECT_EQ(R.numFailed(), 0u);
  for (size_t I = 0; I < Items.size(); ++I)
    expectSameResults(R.Items[I], Clean.Items[I]);
}

//===----------------------------------------------------------------------===//
// Exit-code contract and degraded batches
//===----------------------------------------------------------------------===//

TEST(BatchExitCodes, DegradedBatchReportsThreeAndKeepsResultsUsable) {
  std::vector<BatchItem> Items = makeSuite();
  BatchOptions Opts;
  Opts.Analyzer.Jobs = 2;
  Opts.Analyzer.Budget.DeadlineSec = -1; // Expired: every item degrades.
  Opts.RetryAtLowerTier = false;
  BatchResult R = runBatch(Items, Opts);
  EXPECT_EQ(R.numFailed(), 0u);
  EXPECT_EQ(R.numDegraded(), Items.size());
  for (const BatchItemResult &Item : R.Items) {
    EXPECT_TRUE(Item.Ok);
    EXPECT_TRUE(Item.Degraded);
    // The deadline degrades the run; only the shard kill limit times out.
    EXPECT_FALSE(Item.TimedOut);
    EXPECT_EQ(Item.Outcome, BatchOutcome::Degraded);
  }
  EXPECT_EQ(exitCodeFor(R), 3);
}

TEST(BatchExitCodes, IsolatedDegradedBatchAgreesWithInProcess) {
  std::vector<BatchItem> Items = makeSuite();
  BatchOptions Opts;
  Opts.Analyzer.Jobs = 2;
  Opts.Analyzer.Budget.StepLimit = 50;
  Opts.RetryAtLowerTier = false;
  BatchResult InProc = runBatch(Items, Opts);
  Opts.KillLimitSec = 10;
  BatchResult Isolated = runIsolated(Items, Opts);
  ASSERT_EQ(InProc.Items.size(), Isolated.Items.size());
  for (size_t I = 0; I < Items.size(); ++I)
    expectSameResults(InProc.Items[I], Isolated.Items[I]);
  EXPECT_EQ(exitCodeFor(InProc), exitCodeFor(Isolated));
}

TEST(BatchExitCodes, RetryAdoptsAUsableLowerTierResult) {
  // A first attempt that times out at the isolation kill limit (injected
  // timeout) retries at a tightened budget; the fault re-fires, so the
  // timeout classification survives with Retried set — pinned above.
  // Here: a *clean* retryable failure path instead.  Build-error items
  // are not retryable and keep their classification.
  std::vector<BatchItem> Items = makeSuite();
  Items.push_back({"broken", "this is not a program"});
  BatchOptions Opts;
  Opts.Analyzer.Jobs = 2;
  Opts.KillLimitSec = 10;
  BatchResult R = runIsolated(Items, Opts);
  const BatchItemResult &Broken = R.Items.back();
  EXPECT_EQ(Broken.Outcome, BatchOutcome::BuildError);
  EXPECT_FALSE(Broken.Ok);
  EXPECT_FALSE(Broken.Retried); // BuildError is deterministic, no retry.
  EXPECT_EQ(R.numFailed(), 1u);
  EXPECT_EQ(exitCodeFor(R), 2);
}
