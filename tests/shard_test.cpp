//===- shard_test.cpp - Work-stealing shard coordinator tests -------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shard coordinator's contract (DESIGN.md §8 "The shard protocol"):
/// merged results are bit-identical (deterministic fields) to a
/// single-shard run and to plain in-process runBatch regardless of how
/// the dealer interleaved dispatches; and the death rule: a worker an
/// SPA_FAULT kills loses only the item it held — classified Crash after
/// one lower-tier retry — while a replacement worker keeps the lane and
/// every other item finishes as in a clean run.
///
//===----------------------------------------------------------------------===//

#include "support/Fault.h"
#include "workload/Generator.h"
#include "workload/ShardCoordinator.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

using namespace spa;

namespace {

std::vector<BatchItem> makeSuite(unsigned Count) {
  std::vector<BatchItem> Items;
  for (unsigned I = 0; I < Count; ++I) {
    GenConfig C;
    C.Seed = 0x5ad + I * 131;
    C.NumFunctions = 2 + I % 5;
    C.StmtsPerFunction = 6 + (I * 3) % 14;
    C.PointerLocals = I % 3;
    C.AllowRecursion = I % 4 == 1;
    Items.push_back({"prog" + std::to_string(I), generateSource(C)});
  }
  return Items;
}

ShardOptions shardOptions(unsigned Shards) {
  ShardOptions Opts;
  Opts.Batch.Check = true;
  Opts.Shards = Shards;
  return Opts;
}

/// The deterministic slice of a result — everything that must not depend
/// on shard count, dispatch order, or which worker ran the item.
void expectSameDeterministicFields(const BatchItemResult &A,
                                   const BatchItemResult &B,
                                   const std::string &Ctx) {
  EXPECT_EQ(A.Name, B.Name) << Ctx;
  EXPECT_EQ(A.Ok, B.Ok) << Ctx;
  EXPECT_EQ(A.Outcome, B.Outcome) << Ctx;
  EXPECT_EQ(A.Degraded, B.Degraded) << Ctx;
  EXPECT_EQ(A.Checks, B.Checks) << Ctx;
  EXPECT_EQ(A.Alarms, B.Alarms) << Ctx;
  EXPECT_EQ(A.BudgetSteps, B.BudgetSteps) << Ctx;
  EXPECT_EQ(A.LedgerVisits, B.LedgerVisits) << Ctx;
  EXPECT_EQ(A.LedgerWidenings, B.LedgerWidenings) << Ctx;
  EXPECT_EQ(A.LedgerGrowth, B.LedgerGrowth) << Ctx;
}

/// RAII guard: sets SPA_FAULT for the duration of one run.
struct FaultEnv {
  explicit FaultEnv(const char *Spec) { setenv("SPA_FAULT", Spec, 1); }
  ~FaultEnv() { unsetenv("SPA_FAULT"); }
};

} // namespace

TEST(ShardCoordinator, MergedResultsBitIdenticalAcrossShardCounts) {
  std::vector<BatchItem> Items = makeSuite(9);
  ShardRunResult One = runSharded(Items, shardOptions(1));
  ASSERT_EQ(One.Batch.Items.size(), Items.size());
  for (const BatchItemResult &R : One.Batch.Items)
    ASSERT_TRUE(R.Ok) << R.Name << ": " << R.Error;

  for (unsigned Shards : {2u, 3u, 4u}) {
    ShardRunResult Many = runSharded(Items, shardOptions(Shards));
    ASSERT_EQ(Many.Batch.Items.size(), Items.size());
    EXPECT_EQ(Many.WorkerDeaths, 0u);
    for (size_t I = 0; I < Items.size(); ++I)
      expectSameDeterministicFields(
          One.Batch.Items[I], Many.Batch.Items[I],
          "shards=" + std::to_string(Shards) + " item " +
              std::to_string(I));
  }
}

TEST(ShardCoordinator, MatchesPlainInProcessBatch) {
  std::vector<BatchItem> Items = makeSuite(6);
  BatchOptions BOpts;
  BOpts.Check = true;
  BatchResult Plain = runBatch(Items, BOpts);

  ShardRunResult Sharded = runSharded(Items, shardOptions(3));
  ASSERT_EQ(Plain.Items.size(), Sharded.Batch.Items.size());
  for (size_t I = 0; I < Plain.Items.size(); ++I)
    expectSameDeterministicFields(Plain.Items[I], Sharded.Batch.Items[I],
                                  "item " + std::to_string(I));
}

TEST(ShardCoordinator, TimingAndShardAssignmentsAreRecorded) {
  std::vector<BatchItem> Items = makeSuite(5);
  ShardRunResult R = runSharded(Items, shardOptions(2));
  ASSERT_EQ(R.Timing.size(), Items.size());
  for (size_t I = 0; I < R.Timing.size(); ++I) {
    EXPECT_EQ(R.Timing[I].Assignments, 1u) << I;
    EXPECT_LT(R.Timing[I].Shard, 2u) << I;
    EXPECT_GE(R.Timing[I].DoneSeconds, R.Timing[I].DispatchSeconds) << I;
  }
}

//===----------------------------------------------------------------------===//
// Fault tolerance
//===----------------------------------------------------------------------===//

TEST(ShardCoordinator, KilledWorkerLosesNothing) {
  // crash@shardloop:prog3 fires in whichever worker picks up prog3, right
  // after the dispatch, on both attempts.  The death rule classifies
  // prog3 Crash after its lower-tier retry, each dead worker is replaced,
  // and nothing else is lost: every other item equals a clean run.
  std::vector<BatchItem> Items = makeSuite(8);
  ShardRunResult Clean = runSharded(Items, shardOptions(3));
  FaultEnv Env("crash@shardloop:prog3");
  ShardRunResult R = runSharded(Items, shardOptions(3));
  ASSERT_EQ(R.Batch.Items.size(), Items.size());
  EXPECT_EQ(R.WorkerDeaths, 2u); // First attempt and retry.

  const BatchItemResult &Victim = R.Batch.Items[3];
  EXPECT_FALSE(Victim.Ok);
  EXPECT_EQ(Victim.Outcome, BatchOutcome::Crash) << Victim.Error;
  EXPECT_TRUE(Victim.Retried);
  EXPECT_EQ(R.Timing[3].Assignments, 2u);
  EXPECT_EQ(exitCodeFor(R.Batch), 2);

  for (size_t I = 0; I < Items.size(); ++I) {
    if (I == 3)
      continue;
    EXPECT_TRUE(R.Batch.Items[I].Ok)
        << Items[I].Name << ": " << R.Batch.Items[I].Error;
    EXPECT_FALSE(R.Batch.Items[I].Retried) << I;
    EXPECT_EQ(R.Timing[I].Assignments, 1u) << I;
    expectSameDeterministicFields(Clean.Batch.Items[I], R.Batch.Items[I],
                                  "item " + std::to_string(I));
  }
}

TEST(ShardCoordinator, AllWorkersDeadClassifiesLeftoversAsCrash) {
  // No name filter: the fault arms for every item, so every attempt kills
  // its worker.  Each item must end Crash after its retry, and the run
  // must end — replacements never outnumber attempts.
  std::vector<BatchItem> Items = makeSuite(5);
  FaultEnv Env("crash@shardloop");
  ShardRunResult R = runSharded(Items, shardOptions(2));
  ASSERT_EQ(R.Batch.Items.size(), Items.size());
  EXPECT_EQ(R.WorkerDeaths, 2 * Items.size());
  for (const BatchItemResult &I : R.Batch.Items) {
    EXPECT_FALSE(I.Ok) << I.Name;
    EXPECT_EQ(I.Outcome, BatchOutcome::Crash) << I.Name;
    EXPECT_TRUE(I.Retried) << I.Name;
  }
  EXPECT_EQ(exitCodeFor(R.Batch), 2);
}
