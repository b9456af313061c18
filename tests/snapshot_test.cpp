//===- snapshot_test.cpp - spa-ir-v1 roundtrip fuzzing --------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The snapshot format's positive contract (DESIGN.md §8 "Binary IR
/// snapshots"): save -> load is the identity on every Program the
/// frontend can produce.  Identity is checked twice over — structurally
/// (programDiff over points, commands, edges, locs, functions, and the
/// name index) and behaviorally (the analyzer, checker, and both octagon
/// backends produce bit-identical results on the loaded program, at every
/// job count).  A hundred generator shapes plus the checked-in example
/// programs stand in for "every Program".
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/Checker.h"
#include "core/Export.h"
#include "ir/Builder.h"
#include "ir/Snapshot.h"
#include "oct/OctAnalysis.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace spa;

namespace {

/// Generator shapes spanning the IR surface: recursion, SCC groups,
/// function pointers, pointer traffic, disconnected call trees.
GenConfig fuzzConfig(unsigned Round) {
  GenConfig C;
  C.Seed = 0x51a9 + Round * 7919;
  C.NumFunctions = 2 + Round % 10;
  C.StmtsPerFunction = 6 + (Round * 5) % 24;
  C.NumGlobals = Round % 6;
  C.NumericLocals = 3 + Round % 4;
  C.PointerLocals = Round % 5;
  C.BranchPercent = 10 + Round % 30;
  C.LoopPercent = Round % 4 ? 12 : 0;
  C.CallPercent = Round % 3 ? 18 : 6;
  C.PointerPercent = 10 + Round % 20;
  C.AllocPercent = Round % 10;
  C.AllowRecursion = Round % 4 == 1;
  C.UseFunctionPointers = Round % 5 == 2;
  C.SccGroupSize = Round % 6 == 3 ? 3 : 0;
  return C;
}

std::unique_ptr<Program> buildOrDie(const std::string &Source) {
  BuildResult Built = buildProgramFromSource(Source);
  EXPECT_TRUE(Built.ok()) << Built.Error;
  return std::move(Built.Prog);
}

/// Everything a value run produces that the snapshot must preserve.
struct RunDigest {
  std::string Listing;
  std::string Alarms;
  uint64_t Visits = 0;
  uint64_t StateEntries = 0;
  std::vector<AbsState> In, Out;
};

RunDigest digestRun(const Program &Prog, unsigned Jobs) {
  AnalyzerOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Dep.Bypass = false; // The listing prints every input buffer.
  AnalysisRun Run = analyzeProgram(Prog, Opts);

  RunDigest D;
  D.Listing = exportAnnotatedListing(Prog, Run);
  CheckerSummary Summary = checkBufferOverruns(Prog, Run);
  for (const AccessCheck &C : Summary.Checks)
    D.Alarms += C.str(Prog) + "\n";
  D.Visits = Run.Sparse->Visits;
  D.StateEntries = Run.Sparse->StateEntries;
  D.In = Run.Sparse->In;
  D.Out = Run.Sparse->Out;
  return D;
}

} // namespace

//===----------------------------------------------------------------------===//
// Structural roundtrip
//===----------------------------------------------------------------------===//

TEST(SnapshotRoundTrip, HundredFuzzedProgramsSurviveStructurally) {
  for (unsigned Round = 0; Round < 100; ++Round) {
    std::unique_ptr<Program> Prog =
        buildOrDie(generateSource(fuzzConfig(Round)));

    std::vector<uint8_t> Bytes = saveSnapshot(*Prog);
    SnapshotLoadResult Loaded = loadSnapshot(Bytes);
    ASSERT_TRUE(Loaded.ok()) << "round " << Round << ": "
                             << Loaded.Error.str();
    EXPECT_EQ(programDiff(*Prog, *Loaded.Prog), "") << "round " << Round;

    // Serialization is canonical: re-encoding the loaded program yields
    // the same bytes (the property the golden corpus pins over time).
    EXPECT_EQ(saveSnapshot(*Loaded.Prog), Bytes) << "round " << Round;
  }
}

TEST(SnapshotRoundTrip, ExampleProgramsSurvive) {
  for (const char *Name : {"loop.spa", "pointers.spa"}) {
    std::string Path = std::string(SPA_EXAMPLES_DIR) + "/" + Name;
    std::ifstream In(Path);
    ASSERT_TRUE(In.good()) << Path;
    std::stringstream SS;
    SS << In.rdbuf();
    std::unique_ptr<Program> Prog = buildOrDie(SS.str());

    SnapshotLoadResult Loaded = loadSnapshot(saveSnapshot(*Prog));
    ASSERT_TRUE(Loaded.ok()) << Name << ": " << Loaded.Error.str();
    EXPECT_EQ(programDiff(*Prog, *Loaded.Prog), "") << Name;
  }
}

TEST(SnapshotRoundTrip, FileRoundTripMatchesInMemory) {
  std::unique_ptr<Program> Prog = buildOrDie(generateSource(fuzzConfig(3)));
  std::string Path =
      testing::TempDir() + "/spa_snapshot_roundtrip_" +
      std::to_string(::getpid()) + ".snap";
  std::string Error;
  ASSERT_TRUE(writeSnapshotFile(Path, *Prog, Error)) << Error;
  SnapshotLoadResult Loaded = loadSnapshotFile(Path);
  ASSERT_TRUE(Loaded.ok()) << Loaded.Error.str();
  EXPECT_EQ(programDiff(*Prog, *Loaded.Prog), "");
  ::unlink(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Behavioral roundtrip: the analyses cannot tell the programs apart
//===----------------------------------------------------------------------===//

TEST(SnapshotRoundTrip, AnalysisBitIdenticalAtEveryJobCount) {
  for (unsigned Round : {0u, 11u, 23u, 37u, 41u, 58u, 73u, 97u}) {
    std::unique_ptr<Program> Prog =
        buildOrDie(generateSource(fuzzConfig(Round)));
    SnapshotLoadResult Loaded = loadSnapshot(saveSnapshot(*Prog));
    ASSERT_TRUE(Loaded.ok()) << Loaded.Error.str();

    for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
      RunDigest A = digestRun(*Prog, Jobs);
      RunDigest B = digestRun(*Loaded.Prog, Jobs);
      ASSERT_EQ(A.Listing, B.Listing)
          << "round " << Round << " jobs " << Jobs;
      ASSERT_EQ(A.Alarms, B.Alarms)
          << "round " << Round << " jobs " << Jobs;
      ASSERT_EQ(A.Visits, B.Visits)
          << "round " << Round << " jobs " << Jobs;
      ASSERT_EQ(A.StateEntries, B.StateEntries)
          << "round " << Round << " jobs " << Jobs;
      ASSERT_EQ(A.In, B.In) << "round " << Round << " jobs " << Jobs;
      ASSERT_EQ(A.Out, B.Out) << "round " << Round << " jobs " << Jobs;
    }
  }
}

TEST(SnapshotRoundTrip, OctagonBitIdenticalOnBothBackends) {
  for (unsigned Round : {2u, 17u, 29u, 53u}) {
    std::unique_ptr<Program> Prog =
        buildOrDie(generateSource(fuzzConfig(Round)));
    SnapshotLoadResult Loaded = loadSnapshot(saveSnapshot(*Prog));
    ASSERT_TRUE(Loaded.ok()) << Loaded.Error.str();

    OctRun A = runOctAnalysis(*Prog, OctOptions());
    OctRun B = runOctAnalysis(*Loaded.Prog, OctOptions());
    ASSERT_TRUE(A.Sparse && B.Sparse);
    ASSERT_EQ(A.Sparse->Visits, B.Sparse->Visits) << "round " << Round;
    ASSERT_EQ(A.Sparse->StateEntries, B.Sparse->StateEntries)
        << "round " << Round;
    ASSERT_EQ(A.Sparse->In, B.Sparse->In) << "round " << Round;
    ASSERT_EQ(A.Sparse->Out, B.Sparse->Out) << "round " << Round;
  }
}
