//===- server_test.cpp - Resident analysis daemon tests -------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The spa-serve contract (docs/SERVER.md), enforced at three layers:
///
///  * Service (in-process): warm results are bit-identical to a cold
///    `spa-analyze` run — same hashSparseStates digest at every --jobs —
///    across an edit-storm of single-function edits, with partition
///    reuse actually firing (serve.partitions.reused > 0).  Plus the
///    LRU bounds, the --no-incremental ablation, and the one-shot
///    injected fault.
///  * Payload decoders (socket-free): every proper prefix of each payload
///    kind is refused, and every byte flip or 0xffffffff word is either
///    refused or decoded to a value that re-encodes to the same bytes.
///  * Wire protocol (socket): lifecycle with sequential and concurrent
///    clients, typed rejection of bad handshakes and oversized frames.
///  * Snapshot v2 depgraph section: encode/decode round trip, the
///    depSnapshotUsable options gate (an older payload version is
///    refused and rebuilt), and the PrebuiltGraph warm start.
///
/// Also pins the checker on the graph the Service analyzes: the Service
/// keeps bypass ON (dependency partitions only separate under it) while
/// `spa-analyze --check` checks on the bypass-off graph.  Their verdicts
/// agree on some programs (pinned below) but not on all: the two graphs
/// widen block-size bounds differently, so either side can raise an
/// alarm the other proves safe (docs/SERVER.md).  What holds for every
/// program is soundness: served verdicts flag every overrun the
/// interpreter reaches.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Checker.h"
#include "core/DepSnapshot.h"
#include "core/PreAnalysis.h"
#include "interp/Interp.h"
#include "ir/Builder.h"
#include "ir/Snapshot.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/Service.h"
#include "support/Resource.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace spa;
using namespace spa::serve;

namespace {

/// Three data-independent workers plus main: no shared globals and no
/// argument/return traffic, so the bypassed dependency graph splits into
/// one partition per worker loop (plus main's).  The literals are the
/// edit-storm knobs: changing one only perturbs that worker's partition
/// signature.
std::string multiSource(int ABound, int BStart, int CRounds) {
  char Buf[768];
  std::snprintf(Buf, sizeof(Buf),
                "fun alpha() {\n"
                "  a = 0;\n"
                "  while (a < %d) {\n"
                "    a = a + 1;\n"
                "  }\n"
                "  return 0;\n"
                "}\n"
                "fun beta() {\n"
                "  b = %d;\n"
                "  while (b > 0) {\n"
                "    b = b - 2;\n"
                "  }\n"
                "  return 0;\n"
                "}\n"
                "fun gamma() {\n"
                "  c = 1;\n"
                "  d = 0;\n"
                "  while (d < %d) {\n"
                "    c = c * 2;\n"
                "    d = d + 1;\n"
                "  }\n"
                "  return 0;\n"
                "}\n"
                "fun main() {\n"
                "  alpha();\n"
                "  beta();\n"
                "  gamma();\n"
                "  return 0;\n"
                "}\n",
                ABound, BStart, CRounds);
  return Buf;
}

/// Digest of a cold, in-process run with the exact options the Service
/// uses (sparse engine, bypass on — the defaults).
uint64_t coldDigest(const std::string &Source, unsigned Jobs = 1) {
  std::unique_ptr<Program> Prog = test::build(Source);
  AnalyzerOptions Opts;
  Opts.Engine = EngineKind::Sparse;
  Opts.Jobs = Jobs;
  AnalysisRun Run = analyzeProgram(*Prog, Opts);
  EXPECT_TRUE(Run.Sparse);
  return hashSparseStates(*Run.Sparse);
}

ServiceOptions defaultServiceOptions() {
  ServiceOptions O;
  O.Analyzer.Jobs = 1;
  return O;
}

AnalyzeResponse mustAnalyze(Service &Svc, const std::string &Source,
                            uint32_t Flags = 0, uint32_t Jobs = 0) {
  AnalyzeRequest Req;
  Req.Program = Source;
  Req.Flags = Flags;
  Req.Jobs = Jobs;
  AnalyzeResponse Resp;
  std::string Error;
  EXPECT_EQ(Svc.analyze(Req, Resp, Error), ServeErrc::None) << Error;
  return Resp;
}

std::string testSocketPath(const char *Tag) {
  return "/tmp/spa_server_test_" + std::to_string(::getpid()) + "_" + Tag +
         ".sock";
}

} // namespace

//===----------------------------------------------------------------------===//
// Service: bit-identity, incrementality, cache discipline
//===----------------------------------------------------------------------===//

TEST(ServeService, WarmResultsBitIdenticalToColdAtEveryJobs) {
  const std::string Base = multiSource(10, 100, 5);
  const std::string Edited = multiSource(20, 100, 5);
  for (unsigned Jobs : {1u, 2u, 4u}) {
    Service Svc(defaultServiceOptions());
    AnalyzeResponse Cold = mustAnalyze(Svc, Base, 0, Jobs);
    EXPECT_EQ(Cold.CacheHit, 0u);
    EXPECT_EQ(Cold.ResultDigest, coldDigest(Base, Jobs)) << "jobs " << Jobs;

    // Single-function edit: the warm run must re-solve only alpha's
    // partition yet produce exactly the cold result.
    AnalyzeResponse Warm = mustAnalyze(Svc, Edited, 0, Jobs);
    EXPECT_EQ(Warm.CacheHit, 0u);
    EXPECT_GT(Warm.PartitionsReused, 0u) << "jobs " << Jobs;
    EXPECT_LT(Warm.PartitionsSolved, Warm.PartitionsTotal);
    EXPECT_EQ(Warm.PartitionsReused + Warm.PartitionsSolved,
              Warm.PartitionsTotal);
    EXPECT_EQ(Warm.ResultDigest, coldDigest(Edited, Jobs)) << "jobs " << Jobs;
  }
}

TEST(ServeService, RepeatRequestIsWholeProgramCacheHit) {
  Service Svc(defaultServiceOptions());
  const std::string Src = multiSource(10, 100, 5);
  AnalyzeResponse First = mustAnalyze(Svc, Src);
  AnalyzeResponse Second = mustAnalyze(Svc, Src);
  EXPECT_EQ(First.CacheHit, 0u);
  EXPECT_EQ(Second.CacheHit, 1u);
  EXPECT_EQ(Second.ResultDigest, First.ResultDigest);
  EXPECT_EQ(Second.ProgramDigest, First.ProgramDigest);
  EXPECT_EQ(Second.PartitionsReused, Second.PartitionsTotal);
  EXPECT_EQ(Second.PartitionsSolved, 0u);
}

TEST(ServeService, EditStormWarmEqualsColdAndReusesPartitions) {
  Service Svc(defaultServiceOptions());
  mustAnalyze(Svc, multiSource(10, 100, 5));

  // ~50 single-function edits (round-robin over the three workers, with
  // repeats so whole-program cache hits occur too).  Every warm result
  // must match a cold run bit for bit, and partial partition reuse must
  // actually fire — reuse that never triggers would make the warm path
  // a silent full re-analysis.
  uint64_t TotalReused = 0;
  bool SawPartialReuse = false;
  int A = 10, B = 100, C = 5;
  for (int I = 0; I < 50; ++I) {
    switch (I % 3) {
    case 0:
      A = 10 + (I * 7) % 23;
      break;
    case 1:
      B = 100 + (I * 5) % 17;
      break;
    case 2:
      C = 5 + (I * 3) % 11;
      break;
    }
    const std::string Src = multiSource(A, B, C);
    AnalyzeResponse Warm = mustAnalyze(Svc, Src);
    ASSERT_EQ(Warm.ResultDigest, coldDigest(Src)) << "edit " << I;
    TotalReused += Warm.PartitionsReused;
    SawPartialReuse |= Warm.CacheHit == 0 && Warm.PartitionsReused > 0 &&
                       Warm.PartitionsSolved > 0;
  }
  EXPECT_GT(TotalReused, 0u);
  EXPECT_TRUE(SawPartialReuse);
}

TEST(ServeService, NoIncrementalAblationBypassesTheCache) {
  Service Svc(defaultServiceOptions());
  const std::string Src = multiSource(10, 100, 5);
  AnalyzeResponse Inc = mustAnalyze(Svc, Src);

  // The flagged request must ignore the (warm) cache entirely...
  AnalyzeResponse Ablated = mustAnalyze(Svc, Src, ReqFlagNoIncremental);
  EXPECT_EQ(Ablated.CacheHit, 0u);
  EXPECT_EQ(Ablated.PartitionsReused, 0u);
  EXPECT_EQ(Ablated.ResultDigest, Inc.ResultDigest);

  // ...and a service configured non-incremental must never warm up.
  ServiceOptions Cold = defaultServiceOptions();
  Cold.Incremental = false;
  Service ColdSvc(Cold);
  mustAnalyze(ColdSvc, Src);
  AnalyzeResponse Again = mustAnalyze(ColdSvc, Src);
  EXPECT_EQ(Again.CacheHit, 0u);
  EXPECT_EQ(Again.PartitionsReused, 0u);
  EXPECT_EQ(Again.ResultDigest, Inc.ResultDigest);
  EXPECT_EQ(ColdSvc.cacheEntries(), 0u);
}

TEST(ServeService, SnapshotRequestMatchesSourceRequest) {
  std::unique_ptr<Program> Prog = test::build(multiSource(10, 100, 5));
  std::vector<uint8_t> Snap = saveSnapshot(*Prog);

  Service Svc(defaultServiceOptions());
  AnalyzeResponse FromSource = mustAnalyze(Svc, multiSource(10, 100, 5));
  AnalyzeRequest Req;
  Req.Flags = ReqFlagSnapshot;
  Req.Program.assign(Snap.begin(), Snap.end());
  AnalyzeResponse FromSnap;
  std::string Error;
  ASSERT_EQ(Svc.analyze(Req, FromSnap, Error), ServeErrc::None) << Error;
  EXPECT_EQ(FromSnap.ResultDigest, FromSource.ResultDigest);
  EXPECT_EQ(FromSnap.ProgramDigest, FromSource.ProgramDigest);
  // Identical program, different request bytes: the canonical program
  // digest must still dedupe it into a whole-program cache hit.
  EXPECT_EQ(FromSnap.CacheHit, 1u);
}

TEST(ServeService, CheckerRequestReportsAlarms) {
  // The known alarm shape from examples/pointers.spa distilled: an
  // unconstrained index stored through a small buffer.
  const char *Src = "fun main() {\n"
                    "  buf = alloc(4);\n"
                    "  i = input();\n"
                    "  p = buf + i;\n"
                    "  *p = 7;\n"
                    "  q = buf + 1;\n"
                    "  x = *q;\n"
                    "  return x;\n"
                    "}\n";
  Service Svc(defaultServiceOptions());
  AnalyzeResponse R = mustAnalyze(Svc, Src, ReqFlagCheck);
  EXPECT_GT(R.Checks, 0u);
  EXPECT_GT(R.Alarms, 0u);
  EXPECT_NE(R.AlarmsText.find("ALARM"), std::string::npos);

  // The check flag must not poison the cache: a no-check repeat is a
  // hit and carries no stale alarm text.
  AnalyzeResponse NoCheck = mustAnalyze(Svc, Src);
  EXPECT_EQ(NoCheck.CacheHit, 1u);
  EXPECT_EQ(NoCheck.ResultDigest, R.ResultDigest);
}

TEST(ServeService, CacheEvictionHonorsEntryBudget) {
  ServiceOptions O = defaultServiceOptions();
  O.MaxCacheEntries = 2;
  Service Svc(O);
  AnalyzeResponse R1 = mustAnalyze(Svc, multiSource(10, 100, 5));
  mustAnalyze(Svc, multiSource(11, 101, 6));
  mustAnalyze(Svc, multiSource(12, 102, 7));
  EXPECT_LE(Svc.cacheEntries(), 2u);
  EXPECT_GT(Svc.cacheBytes(), 0u);

  // The evicted program (LRU = the first) must re-analyze correctly.
  AnalyzeResponse Again = mustAnalyze(Svc, multiSource(10, 100, 5));
  EXPECT_EQ(Again.ResultDigest, R1.ResultDigest);
}

TEST(ServeService, InjectedFaultIsTypedAndOneShot) {
  ServiceOptions O = defaultServiceOptions();
  O.FaultArmed = true;
  Service Svc(O);

  AnalyzeRequest Req;
  Req.Program = multiSource(10, 100, 5);
  AnalyzeResponse Resp;
  std::string Error;
  EXPECT_EQ(Svc.analyze(Req, Resp, Error), ServeErrc::Injected);
  EXPECT_FALSE(Error.empty());

#if SPA_OBS_ENABLED
  // The aborted request must not vanish from the flight recorder: a
  // serve.abort event carries its request id, so a postmortem can tell
  // which in-flight request the injected fault killed (the per-request
  // gauges it would have published are gone by design).
  EXPECT_NE(obs::journalToJson().find("serve.abort"), std::string::npos);
#endif

  // The trap disarms after firing once: the daemon (and its cache)
  // keep working.
  AnalyzeResponse Ok = mustAnalyze(Svc, Req.Program);
  EXPECT_EQ(Ok.ResultDigest, coldDigest(Req.Program));
}

TEST(ServeService, BuildErrorsAreTypedNotFatal) {
  Service Svc(defaultServiceOptions());
  AnalyzeRequest Req;
  Req.Program = "fun main( { this does not parse";
  AnalyzeResponse Resp;
  std::string Error;
  EXPECT_EQ(Svc.analyze(Req, Resp, Error), ServeErrc::BuildError);
  EXPECT_FALSE(Error.empty());

  Req.Program = "not a snapshot";
  Req.Flags = ReqFlagSnapshot;
  EXPECT_EQ(Svc.analyze(Req, Resp, Error), ServeErrc::SnapshotError);

  // Still serving.
  mustAnalyze(Svc, multiSource(10, 100, 5));
}

TEST(ServeService, DeeplyNestedSourceIsABuildErrorNotACrash) {
  // Nesting deep enough to overflow an unbounded recursive descent is a
  // typed build error, and the service answers the next request.
  Service Svc(defaultServiceOptions());
  std::string Ifs = "fun main() { x = 0; ";
  for (int I = 0; I < 100000; ++I)
    Ifs += "if (x < 1) { ";
  Ifs += std::string(100000, '}') + " return x; }";
  for (const std::string &Src :
       {"fun main() { x = " + std::string(200000, '(') + "1" +
            std::string(200000, ')') + "; return x; }",
        Ifs}) {
    AnalyzeRequest Req;
    Req.Program.assign(Src.begin(), Src.end());
    AnalyzeResponse Resp;
    std::string Error;
    EXPECT_EQ(Svc.analyze(Req, Resp, Error), ServeErrc::BuildError);
    EXPECT_NE(Error.find("nesting deeper than 1024"), std::string::npos)
        << Error;
    mustAnalyze(Svc, multiSource(10, 100, 5));
  }
}

#if SPA_OBS_ENABLED
TEST(ServeService, PerRequestGaugesAreScopedCountersCumulative) {
  obs::Registry &Reg = obs::Registry::global();
  Reg.reset();
  Service Svc(defaultServiceOptions());
  const std::string Src = multiSource(10, 100, 5);

  AnalyzeResponse Cold = mustAnalyze(Svc, Src);
  EXPECT_EQ(Reg.value("serve.partitions.resolved"),
            double(Cold.PartitionsSolved));

  // The warm repeat resets the gauges: resolved snaps back to 0 and
  // reused covers everything — per-request scoping, not accumulation.
  AnalyzeResponse Warm = mustAnalyze(Svc, Src);
  EXPECT_EQ(Warm.CacheHit, 1u);
  EXPECT_EQ(Reg.value("serve.partitions.resolved"), 0.0);
  EXPECT_EQ(Reg.value("serve.partitions.reused"),
            double(Warm.PartitionsReused));
  EXPECT_GT(Reg.value("serve.partitions.reused"), 0.0);

  // Counters are cumulative across both requests.
  EXPECT_EQ(Reg.value("serve.requests"), 2.0);
  EXPECT_EQ(Reg.value("serve.cache.hits"), 1.0);
  EXPECT_EQ(Reg.value("serve.cache.misses"), 1.0);

  // The per-request metrics JSON shipped in the response carries the
  // serve.* keys the smoke test and CI gate grep for.
  EXPECT_NE(Warm.MetricsJson.find("serve.request.seconds"),
            std::string::npos);
  EXPECT_NE(Warm.MetricsJson.find("serve.partitions.total"),
            std::string::npos);
}

TEST(ServeService, StatsTelemetryAndPromDocuments) {
  obs::Registry::global().reset();
  Service Svc(defaultServiceOptions());
  const std::string Src = multiSource(10, 100, 5);
  mustAnalyze(Svc, Src);

  // --serve-stats document: schema marker, uptime, cache occupancy, and
  // the cumulative registry nested under "metrics".
  std::string Stats = Svc.statsJson();
  EXPECT_NE(Stats.find("\"spa-serve-stats-v1\""), std::string::npos);
  EXPECT_NE(Stats.find("\"uptime_seconds\""), std::string::npos);
  EXPECT_NE(Stats.find("\"epoch_ns\""), std::string::npos);
  EXPECT_NE(Stats.find("\"cache\""), std::string::npos);
  EXPECT_NE(Stats.find("\"serve.requests\""), std::string::npos);
  EXPECT_GE(Svc.uptimeSeconds(), 0.0);

  // Telemetry frames: monotone sequence numbers and per-interval deltas
  // (one request between the frames => requests_delta 1 in the second).
  std::string T1 = Svc.telemetryJson();
  EXPECT_NE(T1.find("\"spa-serve-telemetry-v1\""), std::string::npos);
  EXPECT_NE(T1.find("\"seq\": 1"), std::string::npos);
  EXPECT_NE(T1.find("\"requests_total\": 1"), std::string::npos);
  mustAnalyze(Svc, Src);
  std::string T2 = Svc.telemetryJson();
  EXPECT_NE(T2.find("\"seq\": 2"), std::string::npos);
  EXPECT_NE(T2.find("\"requests_total\": 2"), std::string::npos);
  EXPECT_NE(T2.find("\"requests_delta\": 1"), std::string::npos);
  EXPECT_NE(T2.find("\"hit_ratio\""), std::string::npos);
  EXPECT_NE(T2.find("\"serve.cache.hits\": 1"), std::string::npos);

  // The Prometheus variant of the same registry: counter families with
  // the spa_ prefix and _total suffix.
  std::string Prom = Svc.statsProm();
  EXPECT_NE(Prom.find("# TYPE spa_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(Prom.find("spa_serve_requests_total 2"), std::string::npos);
}
#endif // SPA_OBS_ENABLED

//===----------------------------------------------------------------------===//
// The bypass-invariance fact the Service's check path rests on
//===----------------------------------------------------------------------===//

TEST(ServeService, CheckerVerdictsUnaffectedByBypassContraction) {
  // Pointer-heavy generator shapes plus the distilled alarm program on
  // which the bypass-on and bypass-off verdicts agree exactly.  They do
  // not agree on every program: see the soundness pin below.
  std::vector<std::string> Sources;
  for (uint32_t Seed : {21u, 22u, 23u, 99u}) {
    GenConfig C;
    C.Seed = Seed;
    C.NumFunctions = 3;
    C.PointerLocals = 4;
    C.PointerPercent = 35;
    C.AllocPercent = 15;
    Sources.push_back(generateSource(C));
  }
  Sources.push_back("fun main() {\n"
                    "  buf = alloc(4);\n"
                    "  i = input();\n"
                    "  p = buf + i;\n"
                    "  *p = 7;\n"
                    "  q = buf + 1;\n"
                    "  x = *q;\n"
                    "  return x;\n"
                    "}\n");

  size_t TotalChecks = 0;
  for (size_t I = 0; I < Sources.size(); ++I) {
    std::unique_ptr<Program> Prog = test::build(Sources[I]);
    AnalyzerOptions Bypassed;
    Bypassed.Engine = EngineKind::Sparse;
    AnalyzerOptions Full = Bypassed;
    Full.Dep.Bypass = false;
    AnalysisRun RunB = analyzeProgram(*Prog, Bypassed);
    AnalysisRun RunF = analyzeProgram(*Prog, Full);
    CheckerSummary SB = checkBufferOverruns(*Prog, RunB);
    CheckerSummary SF = checkBufferOverruns(*Prog, RunF);
    ASSERT_EQ(SB.Checks.size(), SF.Checks.size()) << "source " << I;
    for (size_t J = 0; J < SB.Checks.size(); ++J)
      EXPECT_EQ(SB.Checks[J].str(*Prog), SF.Checks[J].str(*Prog))
          << "source " << I << " check " << J;
    TotalChecks += SB.Checks.size();
  }
  EXPECT_GT(TotalChecks, 0u); // The comparison must not be vacuous.
}

TEST(ServeService, ServedVerdictsFlagEveryOverrunTheInterpreterReaches) {
  // Served verdicts come from the bypass-on graph and can differ from
  // `spa-analyze --check` both ways: on seeds 11 and 17 the service
  // raises 10 and 5 alarms `--check` proves safe, on seed 96 `--check`
  // raises 2 the service proves safe (widened block-size lower bounds).
  // Neither side is unsound; this pins that for the served side.  The
  // interpreter reaches no overrun on the generated programs, so two
  // hand-written ones (the distilled alarm and an interprocedural
  // off-by-two) keep the check from being vacuous.
  std::vector<std::string> Sources;
  for (uint32_t Seed : {11u, 17u, 96u, 21u, 22u, 23u, 99u}) {
    GenConfig C;
    C.Seed = Seed;
    C.NumFunctions = 3;
    C.PointerLocals = 4;
    C.PointerPercent = 35;
    C.AllocPercent = 15;
    Sources.push_back(generateSource(C));
  }
  Sources.push_back("fun main() {\n"
                    "  buf = alloc(4);\n"
                    "  i = input();\n"
                    "  p = buf + i;\n"
                    "  *p = 7;\n"
                    "  return 0;\n"
                    "}\n");
  Sources.push_back("fun fill(buf, n) {\n"
                    "  i = 0;\n"
                    "  while (i < n) {\n"
                    "    q = buf + i;\n"
                    "    *q = 0;\n"
                    "    i = i + 1;\n"
                    "  }\n"
                    "  return 0;\n"
                    "}\n"
                    "fun main() {\n"
                    "  a = alloc(8);\n"
                    "  fill(a, 8);\n"
                    "  b = alloc(4);\n"
                    "  fill(b, 6);\n"
                    "  return 0;\n"
                    "}\n");

  Service Svc(defaultServiceOptions());
  size_t Reached = 0;
  for (size_t I = 0; I < Sources.size(); ++I) {
    AnalyzeResponse Resp = mustAnalyze(Svc, Sources[I], ReqFlagCheck);
    std::unique_ptr<Program> Prog = test::build(Sources[I]);
    PreAnalysisResult Pre = runPreAnalysis(*Prog, SemanticsOptions());
    for (uint64_t Seed = 1; Seed <= 64; ++Seed) {
      InterpOptions IOpts;
      IOpts.InputSeed = Seed;
      IOpts.MaxSteps = 10000;
      InterpResult R = Interp(*Prog, Pre.CG, IOpts).run(nullptr);
      if (R.Reason != StopReason::Overrun)
        continue;
      ++Reached;
      ASSERT_EQ(R.OverrunPoints.size(), 1u);
      std::string At = "at {" + Prog->pointToString(R.OverrunPoints[0]) + "}";
      EXPECT_NE(Resp.AlarmsText.find(At), std::string::npos)
          << "source " << I << ", input seed " << Seed
          << ": no served alarm " << At;
    }
  }
  EXPECT_GT(Reached, 0u); // The pin must not be vacuous.
}

//===----------------------------------------------------------------------===//
// Snapshot v2 depgraph section + PrebuiltGraph warm start
//===----------------------------------------------------------------------===//

TEST(DepSnapshot, RoundTripPreservesTheGraph) {
  std::unique_ptr<Program> Prog = test::build(multiSource(10, 100, 5));
  AnalyzerOptions Opts;
  Opts.Engine = EngineKind::Sparse;
  AnalysisRun Run = analyzeProgram(*Prog, Opts);
  ASSERT_TRUE(Run.Graph);

  std::vector<uint8_t> Payload = encodeDepGraph(*Run.Graph, Opts.Dep);
  DepSnapshotResult Dec = decodeDepGraph(*Prog, Payload);
  ASSERT_TRUE(Dec.ok()) << Dec.Error;
  EXPECT_TRUE(depSnapshotUsable(Dec, Opts.Dep));

  const SparseGraph &A = *Run.Graph, &B = Dec.Graph;
  ASSERT_EQ(A.numNodes(), B.numNodes());
  ASSERT_EQ(A.Phis.size(), B.Phis.size());
  for (size_t I = 0; I < A.Phis.size(); ++I) {
    EXPECT_EQ(A.Phis[I].At.value(), B.Phis[I].At.value());
    EXPECT_EQ(A.Phis[I].L.value(), B.Phis[I].L.value());
  }
  EXPECT_EQ(A.NodeDefs, B.NodeDefs);
  EXPECT_EQ(A.NodeUses, B.NodeUses);

  auto EdgeList = [](const SparseGraph &G) {
    std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> E;
    for (uint32_t N = 0; N < G.numNodes(); ++N)
      G.Edges->forEachOut(N, [&](LocId L, uint32_t Dst) {
        E.emplace_back(N, L.value(), Dst);
      });
    std::sort(E.begin(), E.end());
    return E;
  };
  EXPECT_EQ(EdgeList(A), EdgeList(B));
}

TEST(DepSnapshot, OptionsGateRejectsMismatchedBuilds) {
  std::unique_ptr<Program> Prog = test::build(multiSource(10, 100, 5));
  AnalyzerOptions Opts;
  Opts.Engine = EngineKind::Sparse;
  AnalysisRun Run = analyzeProgram(*Prog, Opts);
  ASSERT_TRUE(Run.Graph);
  std::vector<uint8_t> Payload = encodeDepGraph(*Run.Graph, Opts.Dep);
  DepSnapshotResult Dec = decodeDepGraph(*Prog, Payload);
  ASSERT_TRUE(Dec.ok());

  DepOptions Other = Opts.Dep;
  Other.Kind = DepBuilderKind::ReachingDefs;
  EXPECT_FALSE(depSnapshotUsable(Dec, Other));
  Other = Opts.Dep;
  Other.Bypass = !Other.Bypass;
  EXPECT_FALSE(depSnapshotUsable(Dec, Other));
  Other = Opts.Dep;
  Other.NumLocsOverride = 7;
  EXPECT_FALSE(depSnapshotUsable(Dec, Other));

  // Corruption is a typed decode error, not UB.
  std::vector<uint8_t> Short(Payload.begin(), Payload.begin() + 8);
  EXPECT_FALSE(decodeDepGraph(*Prog, Short).ok());

  // A payload recorded for a different program shape is rejected.
  std::unique_ptr<Program> Other2 = test::build(multiSource(10, 100, 5) +
                                                "fun extra() { return 1; }\n");
  EXPECT_FALSE(decodeDepGraph(*Other2, Payload).ok());
}

TEST(DepSnapshot, OlderPayloadVersionIsRefusedAndRebuilt) {
  std::unique_ptr<Program> Prog = test::build(multiSource(10, 100, 5));
  AnalyzerOptions Opts;
  Opts.Engine = EngineKind::Sparse;
  AnalysisRun Cold = analyzeProgram(*Prog, Opts);
  ASSERT_TRUE(Cold.Graph && Cold.Sparse);
  // Version 1 stored a def/use list per phi and kept the phis the
  // contraction leaves edgeless; the version word alone must refuse it.
  std::vector<uint8_t> V1 = encodeDepGraph(*Cold.Graph, Opts.Dep);
  ASSERT_EQ(V1[0], 2u);
  V1[0] = 1;

  DepSnapshotResult Dec = decodeDepGraph(*Prog, V1);
  EXPECT_FALSE(Dec.ok());
  EXPECT_NE(Dec.Error.find("payload version 1"), std::string::npos)
      << Dec.Error;
  EXPECT_FALSE(depSnapshotUsable(Dec, Opts.Dep));

  // A snapshot request carrying the old payload is analyzed from a fresh
  // build: no warm start, and the cold run's result.
  std::vector<uint8_t> Snap = saveSnapshot(*Prog, &V1);
  AnalyzeRequest Req;
  Req.Flags = ReqFlagSnapshot;
  Req.Program.assign(Snap.begin(), Snap.end());
  Service Svc(defaultServiceOptions());
  double WarmBefore =
      obs::Registry::global().value("serve.depgraph.warm_starts");
  AnalyzeResponse Resp;
  std::string Error;
  ASSERT_EQ(Svc.analyze(Req, Resp, Error), ServeErrc::None) << Error;
  EXPECT_EQ(obs::Registry::global().value("serve.depgraph.warm_starts"),
            WarmBefore);
  EXPECT_EQ(Resp.ResultDigest, hashSparseStates(*Cold.Sparse));
}

TEST(DepSnapshot, TruncatedAndOutOfRangePayloadsFailTyped) {
  std::unique_ptr<Program> Prog = test::build(multiSource(10, 100, 5));
  AnalyzerOptions Opts;
  Opts.Engine = EngineKind::Sparse;
  AnalysisRun Run = analyzeProgram(*Prog, Opts);
  ASSERT_TRUE(Run.Graph);
  std::vector<uint8_t> Payload = encodeDepGraph(*Run.Graph, Opts.Dep);
  auto Typed = [](const DepSnapshotResult &D) {
    return D.Error.rfind("depgraph payload: ", 0) == 0;
  };
  // Every proper prefix is a typed error.
  for (size_t Len = 0; Len < Payload.size(); ++Len) {
    std::vector<uint8_t> Cut(Payload.begin(), Payload.begin() + Len);
    DepSnapshotResult D = decodeDepGraph(*Prog, Cut);
    EXPECT_FALSE(D.ok()) << "prefix " << Len;
    EXPECT_TRUE(Typed(D)) << D.Error;
  }
  // A word overwritten with an out-of-range id or count is a typed error
  // (the trailer's statistics words may hold any value).
  size_t Failed = 0;
  for (size_t Pos = 8; Pos + 4 <= Payload.size(); Pos += 4) {
    std::vector<uint8_t> Bad = Payload;
    std::fill(Bad.begin() + Pos, Bad.begin() + Pos + 4, 0xff);
    DepSnapshotResult D = decodeDepGraph(*Prog, Bad);
    if (!D.ok()) {
      ++Failed;
      EXPECT_TRUE(Typed(D)) << D.Error;
    }
  }
  EXPECT_GE(Failed, (Payload.size() - 8) / 4 - 6);
}

TEST(DepSnapshot, V2SnapshotCarriesTheSectionAndV1StillLoads) {
  std::unique_ptr<Program> Prog = test::build(multiSource(10, 100, 5));
  AnalyzerOptions Opts;
  Opts.Engine = EngineKind::Sparse;
  AnalysisRun Run = analyzeProgram(*Prog, Opts);
  ASSERT_TRUE(Run.Graph);
  std::vector<uint8_t> Payload = encodeDepGraph(*Run.Graph, Opts.Dep);

  // With the optional section: load recovers program AND payload.
  std::vector<uint8_t> WithGraph = saveSnapshot(*Prog, &Payload);
  SnapshotLoadResult L = loadSnapshot(WithGraph);
  ASSERT_TRUE(L.ok()) << L.Error.str();
  EXPECT_TRUE(L.HasDepGraph);
  EXPECT_EQ(L.DepGraph, Payload);
  EXPECT_EQ(saveSnapshot(*L.Prog), saveSnapshot(*Prog));

  // Without it: still a valid (5-section) v2 snapshot.
  SnapshotLoadResult Plain = loadSnapshot(saveSnapshot(*Prog));
  ASSERT_TRUE(Plain.ok());
  EXPECT_FALSE(Plain.HasDepGraph);
}

TEST(DepSnapshot, PrebuiltGraphWarmStartIsBitIdentical) {
  std::unique_ptr<Program> Prog = test::build(multiSource(10, 100, 5));
  AnalyzerOptions Opts;
  Opts.Engine = EngineKind::Sparse;
  AnalysisRun Cold = analyzeProgram(*Prog, Opts);
  ASSERT_TRUE(Cold.Graph && Cold.Sparse);

  std::vector<uint8_t> Payload = encodeDepGraph(*Cold.Graph, Opts.Dep);
  DepSnapshotResult Dec = decodeDepGraph(*Prog, Payload);
  ASSERT_TRUE(depSnapshotUsable(Dec, Opts.Dep));

  AnalyzerOptions WarmOpts = Opts;
  WarmOpts.PrebuiltGraph = &Dec.Graph;
  AnalysisRun Warm = analyzeProgram(*Prog, WarmOpts);
  ASSERT_TRUE(Warm.Sparse);
  EXPECT_EQ(hashSparseStates(*Warm.Sparse), hashSparseStates(*Cold.Sparse));
}

//===----------------------------------------------------------------------===//
// Payload decoders under mutation
//===----------------------------------------------------------------------===//

namespace {

/// One payload kind: a valid encoding plus its decoder, which answers the
/// re-encoding of what it accepted (nullopt when it refused the bytes).
struct PayloadCase {
  const char *Name;
  std::vector<uint8_t> Bytes;
  std::function<std::optional<std::vector<uint8_t>>(
      const std::vector<uint8_t> &)>
      Reencode;
  std::vector<size_t> StrLenAt; ///< Offsets of the u32 string lengths.
  int PadAt = -1;               ///< A byte the decoder reads and ignores.
};

std::vector<PayloadCase> payloadCases() {
  AnalyzeRequest Req;
  Req.Flags = ReqFlagCheck;
  Req.Jobs = 3;
  Req.Program = "fun main() { x = 1; while (x < 10) { x = x + 1; } }";
  AnalyzeResponse Resp;
  Resp.ResultDigest = 0x0123456789abcdefull;
  Resp.ProgramDigest = 42;
  Resp.PartitionsTotal = 5;
  Resp.PartitionsReused = 3;
  Resp.PartitionsSolved = 2;
  Resp.CacheHit = 1;
  Resp.Checks = 7;
  Resp.Alarms = 1;
  Resp.WallSeconds = 0.25;
  Resp.LedgerVisits = 1000;
  Resp.LedgerGrowth = 12;
  Resp.AlarmsText = "main:3 buf[i] size [1, 6] index [0, 6]\n";
  Resp.InvariantsText = "x -> [10, 10]\n";
  Resp.MetricsJson = "{\"fixpoint.visits\": 1000}";
  SubscribeRequest Sub;
  Sub.IntervalMs = 250;
  Sub.MaxFrames = 4;
  const std::string Message = "build error: line 1: unexpected ';'";

  size_t RespStrings = 8 + 8 + 4 * 3 + 4 + 4 * 2 + 8 * 3;
  return {
      {"request", encodeAnalyzeRequest(Req),
       [](const std::vector<uint8_t> &B)
           -> std::optional<std::vector<uint8_t>> {
         AnalyzeRequest Out;
         if (!decodeAnalyzeRequest(B, Out))
           return std::nullopt;
         return encodeAnalyzeRequest(Out);
       },
       {8}},
      {"response", encodeAnalyzeResponse(Resp),
       [](const std::vector<uint8_t> &B)
           -> std::optional<std::vector<uint8_t>> {
         AnalyzeResponse Out;
         if (!decodeAnalyzeResponse(B, Out))
           return std::nullopt;
         return encodeAnalyzeResponse(Out);
       },
       {RespStrings, RespStrings + 4 + Resp.AlarmsText.size(),
        RespStrings + 8 + Resp.AlarmsText.size() +
            Resp.InvariantsText.size()},
       31},
      {"error", encodeError(ServeErrc::BuildError, Message),
       [](const std::vector<uint8_t> &B)
           -> std::optional<std::vector<uint8_t>> {
         ServeErrc Code = ServeErrc::None;
         std::string Text;
         if (!decodeError(B, Code, Text))
           return std::nullopt;
         return encodeError(Code, Text);
       },
       {2}},
      {"string", encodeString(Message),
       [](const std::vector<uint8_t> &B)
           -> std::optional<std::vector<uint8_t>> {
         std::string Text;
         if (!decodeString(B, Text))
           return std::nullopt;
         return encodeString(Text);
       },
       {0}},
      {"subscribe", encodeSubscribeRequest(Sub),
       [](const std::vector<uint8_t> &B)
           -> std::optional<std::vector<uint8_t>> {
         SubscribeRequest Out;
         if (!decodeSubscribeRequest(B, Out))
           return std::nullopt;
         return encodeSubscribeRequest(Out);
       },
       {}},
  };
}

} // namespace

// The socket-free half of "never crash on a serve frame": every payload
// decoder is total over mutated bytes.  What it accepts re-encodes to the
// very bytes it read (pad byte aside), so nothing is skipped or read past
// the end; the sanitizer trees run this under ASan/UBSan.
TEST(ServeProtocol, MutatedPayloadsDecodeTotally) {
  for (const PayloadCase &C : payloadCases()) {
    SCOPED_TRACE(C.Name);
    ASSERT_EQ(C.Reencode(C.Bytes), C.Bytes);
    auto Check = [&](const std::vector<uint8_t> &Bad) {
      std::optional<std::vector<uint8_t>> Got = C.Reencode(Bad);
      if (!Got)
        return;
      std::vector<uint8_t> Want = Bad;
      if (C.PadAt >= 0)
        Want[C.PadAt] = 0;
      EXPECT_EQ(*Got, Want);
    };
    for (size_t Len = 0; Len < C.Bytes.size(); ++Len) {
      std::vector<uint8_t> Cut(C.Bytes.begin(), C.Bytes.begin() + Len);
      EXPECT_FALSE(C.Reencode(Cut)) << "prefix " << Len;
    }
    for (size_t Pos = 0; Pos < C.Bytes.size(); ++Pos)
      for (uint8_t Mask : {0x01, 0x80, 0xff}) {
        std::vector<uint8_t> Bad = C.Bytes;
        Bad[Pos] ^= Mask;
        Check(Bad);
      }
    for (size_t Pos = 0; Pos + 4 <= C.Bytes.size(); Pos += 4) {
      std::vector<uint8_t> Bad = C.Bytes;
      std::fill(Bad.begin() + Pos, Bad.begin() + Pos + 4, 0xff);
      Check(Bad);
    }
    // A 4 GiB string length fails on the length itself: the decoder
    // allocates nothing for it (the counting allocator would show the
    // spike; sanitizer builds run without it).
    for (size_t At : C.StrLenAt) {
      std::vector<uint8_t> Bad = C.Bytes;
      std::fill(Bad.begin() + At, Bad.begin() + At + 4, 0xff);
      uint64_t PeakBefore = peakTrackedHeapBytes();
      EXPECT_FALSE(C.Reencode(Bad)) << "length at " << At;
      EXPECT_LT(peakTrackedHeapBytes() - PeakBefore, 1u << 20);
    }
  }
}

//===----------------------------------------------------------------------===//
// Socket layer
//===----------------------------------------------------------------------===//

namespace {

/// Runs a server on a background thread for the duration of the test.
struct ServerFixture {
  std::string Path;
  Server Srv;
  std::thread Thread;

  explicit ServerFixture(const char *Tag, ServiceOptions SO)
      : Path(testSocketPath(Tag)),
        Srv(ServerOptions{Path, std::move(SO)}) {
    ::unlink(Path.c_str());
    std::string Error;
    if (!Srv.listen(Error)) {
      ADD_FAILURE() << "listen: " << Error;
      return;
    }
    Thread = std::thread([this] { Srv.run(); });
  }

  ~ServerFixture() {
    if (Thread.joinable()) {
      Srv.stop();
      Thread.join();
    }
    ::unlink(Path.c_str());
  }
};

} // namespace

TEST(ServeSocket, LifecycleSequentialAndConcurrentClients) {
  ServerFixture Fix("life", defaultServiceOptions());
  const std::string Src = multiSource(10, 100, 5);

  // Sequential clients: cold then cache hits, identical digests.
  uint64_t Digest = 0;
  for (int I = 0; I < 3; ++I) {
    Client C;
    std::string Error;
    ASSERT_EQ(C.connect(Fix.Path, Error), ServeErrc::None) << Error;
    AnalyzeRequest Req;
    Req.Program = Src;
    AnalyzeResponse Resp;
    ASSERT_EQ(C.analyze(Req, Resp, Error), ServeErrc::None) << Error;
    if (I == 0) {
      EXPECT_EQ(Resp.CacheHit, 0u);
      Digest = Resp.ResultDigest;
    } else {
      EXPECT_EQ(Resp.CacheHit, 1u);
      EXPECT_EQ(Resp.ResultDigest, Digest);
    }
  }

  // Concurrent clients: the daemon serializes them (single accept loop);
  // every one must succeed with the same digest.
  std::vector<std::thread> Threads;
  std::vector<uint64_t> Digests(4, 0);
  std::vector<ServeErrc> Rcs(4, ServeErrc::ServerError);
  for (int I = 0; I < 4; ++I)
    Threads.emplace_back([&, I] {
      Client C;
      std::string Error;
      if (C.connect(Fix.Path, Error) != ServeErrc::None)
        return;
      AnalyzeRequest Req;
      Req.Program = Src;
      AnalyzeResponse Resp;
      Rcs[I] = C.analyze(Req, Resp, Error);
      Digests[I] = Resp.ResultDigest;
    });
  for (std::thread &T : Threads)
    T.join();
  for (int I = 0; I < 4; ++I) {
    EXPECT_EQ(Rcs[I], ServeErrc::None) << "client " << I;
    EXPECT_EQ(Digests[I], Digest) << "client " << I;
  }

  // Stats over the wire, then a clean shutdown (which also ends run()).
  Client C;
  std::string Error;
  ASSERT_EQ(C.connect(Fix.Path, Error), ServeErrc::None) << Error;
  std::string Json;
  ASSERT_EQ(C.stats(Json, Error), ServeErrc::None) << Error;
#if SPA_OBS_ENABLED
  EXPECT_NE(Json.find("serve.requests"), std::string::npos);
#endif
  EXPECT_EQ(C.shutdown(Error), ServeErrc::None) << Error;
}

TEST(ServeSocket, SubscribeStreamsConsecutiveTelemetryFrames) {
  ServerFixture Fix("watch", defaultServiceOptions());
  const std::string Src = multiSource(10, 100, 5);

  Client C;
  std::string Error;
  ASSERT_EQ(C.connect(Fix.Path, Error), ServeErrc::None) << Error;
  AnalyzeRequest Req;
  Req.Program = Src;
  AnalyzeResponse Resp;
  ASSERT_EQ(C.analyze(Req, Resp, Error), ServeErrc::None) << Error;

  // A bounded subscription streams exactly MaxFrames telemetry frames,
  // each a spa-serve-telemetry-v1 document with a monotone sequence.
  SubscribeRequest Sub;
  Sub.IntervalMs = 10;
  Sub.MaxFrames = 3;
  std::vector<std::string> Frames;
  ASSERT_EQ(C.subscribe(
                Sub,
                [&](const std::string &Doc) {
                  Frames.push_back(Doc);
                  return true;
                },
                Error),
            ServeErrc::None)
      << Error;
  ASSERT_EQ(Frames.size(), 3u);
  for (const std::string &F : Frames)
    EXPECT_NE(F.find("\"spa-serve-telemetry-v1\""), std::string::npos);
  size_t SeqAt = Frames[0].find("\"seq\": ");
  ASSERT_NE(SeqAt, std::string::npos);
  for (size_t I = 0; I < Frames.size(); ++I)
    EXPECT_NE(Frames[I].find("\"seq\": " + std::to_string(I + 1)),
              std::string::npos)
        << Frames[I];

  // The daemon is still blocked reading this client's next frame;
  // disconnect so it moves on to the clients below.
  C = Client();

  // Returning false from the callback disconnects (the unsubscribe
  // protocol); the daemon notices the dead peer and serves the next
  // client — including the Prometheus stats variant.
  Client C2;
  ASSERT_EQ(C2.connect(Fix.Path, Error), ServeErrc::None) << Error;
  SubscribeRequest Forever;
  Forever.IntervalMs = 5;
  Forever.MaxFrames = 0;
  int Got = 0;
  ASSERT_EQ(C2.subscribe(
                Forever, [&](const std::string &) { return ++Got < 2; },
                Error),
            ServeErrc::None)
      << Error;
  EXPECT_EQ(Got, 2);

  Client C3;
  ASSERT_EQ(C3.connect(Fix.Path, Error), ServeErrc::None) << Error;
#if SPA_OBS_ENABLED
  std::string Prom;
  ASSERT_EQ(C3.stats(Prom, Error, /*Prom=*/true), ServeErrc::None) << Error;
  EXPECT_NE(Prom.find("# TYPE spa_serve_requests_total counter"),
            std::string::npos);
#endif
  ASSERT_EQ(C3.shutdown(Error), ServeErrc::None) << Error;
}

TEST(ServeSocket, InjectedFaultOverTheWireThenRecovery) {
  ServiceOptions SO = defaultServiceOptions();
  SO.FaultArmed = true;
  ServerFixture Fix("fault", std::move(SO));
  const std::string Src = multiSource(10, 100, 5);

  Client C1;
  std::string Error;
  ASSERT_EQ(C1.connect(Fix.Path, Error), ServeErrc::None) << Error;
  AnalyzeRequest Req;
  Req.Program = Src;
  AnalyzeResponse Resp;
  EXPECT_EQ(C1.analyze(Req, Resp, Error), ServeErrc::Injected);
  EXPECT_FALSE(Error.empty());

  // Same connection, next request: the daemon survived its fault.
  AnalyzeResponse Ok;
  ASSERT_EQ(C1.analyze(Req, Ok, Error), ServeErrc::None) << Error;
  EXPECT_EQ(Ok.ResultDigest, coldDigest(Src));
  ASSERT_EQ(C1.shutdown(Error), ServeErrc::None) << Error;
}

TEST(ServeSocket, BadHandshakeMagicIsRejectedTyped) {
  ServerFixture Fix("magic", defaultServiceOptions());

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s",
                Fix.Path.c_str());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  // Swallow the server's greeting, then send 12 bytes of wrong magic.
  ASSERT_EQ(readHandshake(Fd), ServeErrc::None);
  unsigned char Bad[12] = {'N', 'O', 'T', 'S', 'P', 'A', '!', '\n',
                           1,   0,   0,   0};
  ASSERT_EQ(::write(Fd, Bad, sizeof(Bad)), 12);

  Frame Reply;
  ASSERT_EQ(readFrame(Fd, Reply), ServeErrc::None);
  ASSERT_EQ(Reply.Type, FrameType::RespError);
  ServeErrc Code = ServeErrc::None;
  std::string Message;
  ASSERT_TRUE(decodeError(Reply.Payload, Code, Message));
  EXPECT_EQ(Code, ServeErrc::BadMagic);
  ::close(Fd);

  // The daemon still serves real clients afterwards.
  Client C;
  std::string Error;
  ASSERT_EQ(C.connect(Fix.Path, Error), ServeErrc::None) << Error;
  ASSERT_EQ(C.shutdown(Error), ServeErrc::None) << Error;
}

TEST(ServeSocket, OversizedFrameIsRejectedTyped) {
  ServerFixture Fix("huge", defaultServiceOptions());

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s",
                Fix.Path.c_str());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  ASSERT_EQ(readHandshake(Fd), ServeErrc::None);
  ASSERT_TRUE(writeHandshake(Fd));

  // Header claiming a payload over the cap: rejected before allocation.
  unsigned char Header[8];
  uint32_t Len = MaxFrameBytes + 1;
  uint16_t Type = 1, Flags = 0;
  std::memcpy(Header, &Len, 4);
  std::memcpy(Header + 4, &Type, 2);
  std::memcpy(Header + 6, &Flags, 2);
  ASSERT_EQ(::write(Fd, Header, sizeof(Header)), 8);

  Frame Reply;
  ASSERT_EQ(readFrame(Fd, Reply), ServeErrc::None);
  ASSERT_EQ(Reply.Type, FrameType::RespError);
  ServeErrc Code = ServeErrc::None;
  std::string Message;
  ASSERT_TRUE(decodeError(Reply.Payload, Code, Message));
  EXPECT_EQ(Code, ServeErrc::TooLarge);
  ::close(Fd);

  Client C;
  std::string Error;
  ASSERT_EQ(C.connect(Fix.Path, Error), ServeErrc::None) << Error;
  ASSERT_EQ(C.shutdown(Error), ServeErrc::None) << Error;
}
