//===- spa-analyze.cpp - Command-line analyzer driver -------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyzer as a command-line tool:
///
///   spa-analyze [options] <file.spa | ->
///
///   --engine=vanilla|base|sparse   analyzer generation (default sparse)
///   --domain=interval|octagon      abstract domain (default interval)
///   --pre=precise|semisparse|staged  pre-analysis instance
///   --dep=ssa|rd|chains|whole      dependency builder (sparse engine)
///   --no-bypass                    disable the bypass contraction
///   --bdd                          store dependencies in a BDD
///   --check                        run the buffer-overrun checker
///                                  (sparse engine, interval domain)
///   --list                         annotated listing (per-point values)
///   --dump-cfg                     supergraph in Graphviz dot
///   --dump-deps                    dependency graph in Graphviz dot
///   --run[=seed]                   execute concretely (input() seed)
///   --deadline=SECONDS             resource budget: degrade soundly past
///                                  this wall-clock deadline (<0 = already
///                                  expired; the run degrades immediately);
///                                  the only wall-clock limit
///   --step-limit=N                 resource budget: degrade after N steps
///   --mem-limit=MIB                resource budget: degrade past this RSS
///   --isolate                      batch: --shards=<--jobs> (crashes,
///                                  hangs, OOM lose one item, not all)
///   --jobs=N                       thread-pool lanes (0 = SPA_JOBS/cores)
///   --batch=FILE                   analyze every program listed in FILE
///   --batch-suite[=scale]          analyze the generated paper suite
///   --stats                        metrics registry dump (key=value lines)
///                                  plus the ledger's top-K hotspot table
///   --metrics-out=FILE             write the metrics registry as JSON
///   --prom-out=FILE                write the metrics registry as
///                                  Prometheus text exposition (with
///                                  --connect --serve-stats: the daemon's
///                                  registry)
///   --trace-out=FILE               write Chrome trace-event JSON spans
///   --ledger-out=FILE              write the per-point cost ledger as JSON
///                                  (batch mode: per-item rollup)
///   --journal-out=FILE             write the flight-recorder journal as
///                                  JSON (spa-journal-v1)
///   --postmortem-dir=DIR           crash/stall/OOM forensics: write
///                                  spa-postmortem-v1 files here (sharded
///                                  batch: one per item whose worker died)
///   --watchdog=MS                  stall watchdog interval; a fixpoint
///                                  with no heartbeat for two intervals
///                                  dies with a stall postmortem
///   --explain-alarm=N              alarm provenance: print the backward
///                                  dependency slice of alarm #N (implies
///                                  --check; ids number the non-safe
///                                  checks in report order)
///   --snapshot-out=FILE            save the built IR as an spa-ir-v1
///                                  binary snapshot (DESIGN.md §8)
///   --snapshot-in=FILE             analyze a snapshot instead of source
///                                  (no frontend; strict typed loader;
///                                  a v2 embedded depgraph warm-starts
///                                  the sparse engine when compatible)
///   --snapshot-graph               with --snapshot-out: embed the built
///                                  dependency graph as the optional v2
///                                  depgraph section (sparse engine)
///   --shards=N                     batch: fan items out across N forked
///                                  worker processes with work-stealing
///                                  dispatch (DESIGN.md §8)
///   --connect=SOCK                 client mode: send the program to a
///                                  resident spa-serve daemon instead of
///                                  analyzing in-process (docs/SERVER.md)
///   --no-incremental               with --connect: ablation — ask the
///                                  daemon for a cold, cache-free run
///   --serve-stats                  with --connect: print the daemon's
///                                  stats document (uptime, cache
///                                  occupancy, cumulative metrics) and
///                                  exit
///   --serve-watch[=N]              with --connect: subscribe to the
///                                  daemon's live telemetry stream and
///                                  print each frame (N frames; omitted
///                                  or 0 = until the daemon goes away)
///   --watch-ms=MS                  telemetry frame interval (default
///                                  1000)
///   --serve-shutdown               with --connect: stop the daemon
///
/// Batch mode fans programs out across the pool (docs/PARALLELISM.md);
/// per-program results print in input order and are identical for every
/// --jobs value.  The metric taxonomy and both output formats are
/// documented in docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/Checker.h"
#include "core/DepSnapshot.h"
#include "core/Export.h"
#include "serve/Client.h"
#include "interp/Interp.h"
#include "ir/Builder.h"
#include "obs/Journal.h"
#include "obs/MetricsSink.h"
#include "obs/Postmortem.h"
#include "obs/Trace.h"
#include "oct/OctAnalysis.h"
#include "support/ThreadPool.h"
#include "ir/Snapshot.h"
#include "workload/Batch.h"
#include "workload/ShardCoordinator.h"
#include "workload/Suite.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace spa;

namespace {

struct CliOptions {
  std::string Path;
  EngineKind Engine = EngineKind::Sparse;
  bool Octagon = false;
  PreAnalysisKind Pre = PreAnalysisKind::Precise;
  DepOptions Dep;
  bool Check = false;
  bool List = false;
  bool DumpCfg = false;
  bool DumpDeps = false;
  bool Run = false;
  uint64_t RunSeed = 1;
  bool Stats = false;
  std::string MetricsOut;
  std::string PromOut; ///< Prometheus text exposition sink.
  std::string TraceOut;
  std::string LedgerOut;
  std::string JournalOut;
  std::string PostmortemDir;
  uint32_t WatchdogMs = 0;
  long ExplainAlarm = -1; ///< Alarm id to explain; <0 = off.
  BudgetLimits Budget;
  bool Isolate = false;
  unsigned Jobs = 1; ///< 0 = ThreadPool::defaultJobs().
  std::string BatchFile;
  bool BatchSuite = false;
  double BatchSuiteScale = 0; ///< 0 = suiteScaleFromEnv().
  std::string SnapshotOut;   ///< Save the built IR as spa-ir-v1.
  std::string SnapshotIn;    ///< Analyze a snapshot instead of source.
  bool SnapshotGraph = false; ///< Embed the depgraph in --snapshot-out.
  unsigned Shards = 0;       ///< Batch: fork N shard workers (0 = off).
  std::string Connect;       ///< spa-serve socket (client mode).
  bool NoIncremental = false; ///< --connect: request a cold run.
  bool ServeStats = false;    ///< --connect: dump daemon metrics.
  bool ServeShutdown = false; ///< --connect: stop the daemon.
  long ServeWatch = -1;  ///< --connect: stream N telemetry frames
                         ///< (0 = until the daemon goes away; -1 = off).
  uint32_t WatchMs = 1000; ///< Telemetry frame interval.
};

void usage() {
  std::fprintf(stderr,
               "usage: spa-analyze [options] <file | ->\n"
               "  --engine=vanilla|base|sparse --domain=interval|octagon\n"
               "  --pre=precise|semisparse|staged "
               "--dep=ssa|rd|chains|whole\n"
               "  --no-bypass --bdd --check --list --dump-cfg "
               "--dump-deps\n"
               "  --run[=seed] --stats\n"
               "  --deadline=N --step-limit=N --mem-limit=MIB --isolate\n"
               "  --jobs=N --batch=FILE --batch-suite[=scale]\n"
               "  --metrics-out=FILE --prom-out=FILE --trace-out=FILE "
               "--ledger-out=FILE   (\"-\" = stdout)\n"
               "  --journal-out=FILE --postmortem-dir=DIR --watchdog=MS\n"
               "  --explain-alarm=N   (implies --check)\n"
               "  --snapshot-out=FILE --snapshot-in=FILE   (spa-ir-v1 "
               "binary IR)\n"
               "  --snapshot-graph    (embed the depgraph in "
               "--snapshot-out)\n"
               "  --shards=N          (batch: work-stealing worker "
               "processes)\n"
               "  --connect=SOCK --no-incremental --serve-stats "
               "--serve-shutdown\n"
               "  --serve-watch[=N] --watch-ms=MS   (live telemetry "
               "stream)\n"
               "                      (client mode against an spa-serve "
               "daemon)\n");
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return A.compare(0, N, Prefix) == 0 ? A.c_str() + N : nullptr;
    };
    if (const char *V = Value("--engine=")) {
      if (!std::strcmp(V, "vanilla"))
        Opts.Engine = EngineKind::Vanilla;
      else if (!std::strcmp(V, "base"))
        Opts.Engine = EngineKind::Base;
      else if (!std::strcmp(V, "sparse"))
        Opts.Engine = EngineKind::Sparse;
      else
        return false;
    } else if (const char *V = Value("--domain=")) {
      if (!std::strcmp(V, "interval"))
        Opts.Octagon = false;
      else if (!std::strcmp(V, "octagon"))
        Opts.Octagon = true;
      else
        return false;
    } else if (const char *V = Value("--pre=")) {
      if (!std::strcmp(V, "precise"))
        Opts.Pre = PreAnalysisKind::Precise;
      else if (!std::strcmp(V, "semisparse"))
        Opts.Pre = PreAnalysisKind::SemiSparse;
      else if (!std::strcmp(V, "staged"))
        Opts.Pre = PreAnalysisKind::Staged;
      else
        return false;
    } else if (const char *V = Value("--dep=")) {
      if (!std::strcmp(V, "ssa"))
        Opts.Dep.Kind = DepBuilderKind::Ssa;
      else if (!std::strcmp(V, "rd"))
        Opts.Dep.Kind = DepBuilderKind::ReachingDefs;
      else if (!std::strcmp(V, "chains"))
        Opts.Dep.Kind = DepBuilderKind::DefUseChains;
      else if (!std::strcmp(V, "whole"))
        Opts.Dep.Kind = DepBuilderKind::WholeProgram;
      else
        return false;
    } else if (A == "--no-bypass") {
      Opts.Dep.Bypass = false;
    } else if (A == "--bdd") {
      Opts.Dep.UseBdd = true;
    } else if (A == "--check") {
      Opts.Check = true;
    } else if (A == "--list") {
      Opts.List = true;
    } else if (A == "--dump-cfg") {
      Opts.DumpCfg = true;
    } else if (A == "--dump-deps") {
      Opts.DumpDeps = true;
    } else if (A == "--run") {
      Opts.Run = true;
    } else if (const char *V = Value("--run=")) {
      Opts.Run = true;
      Opts.RunSeed = std::strtoull(V, nullptr, 10);
    } else if (const char *V = Value("--deadline=")) {
      Opts.Budget.DeadlineSec = std::atof(V);
    } else if (const char *V = Value("--step-limit=")) {
      Opts.Budget.StepLimit = std::strtoull(V, nullptr, 10);
    } else if (const char *V = Value("--mem-limit=")) {
      Opts.Budget.MemLimitKiB = std::strtoull(V, nullptr, 10) * 1024;
    } else if (A == "--isolate") {
      Opts.Isolate = true;
    } else if (const char *V = Value("--jobs=")) {
      Opts.Jobs = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (const char *V = Value("--batch=")) {
      Opts.BatchFile = V;
    } else if (A == "--batch-suite") {
      Opts.BatchSuite = true;
    } else if (const char *V = Value("--batch-suite=")) {
      Opts.BatchSuite = true;
      Opts.BatchSuiteScale = std::atof(V);
    } else if (A == "--stats") {
      Opts.Stats = true;
    } else if (const char *V = Value("--metrics-out=")) {
      Opts.MetricsOut = V;
    } else if (const char *V = Value("--prom-out=")) {
      Opts.PromOut = V;
    } else if (const char *V = Value("--trace-out=")) {
      Opts.TraceOut = V;
    } else if (const char *V = Value("--ledger-out=")) {
      Opts.LedgerOut = V;
    } else if (const char *V = Value("--journal-out=")) {
      Opts.JournalOut = V;
    } else if (const char *V = Value("--postmortem-dir=")) {
      Opts.PostmortemDir = V;
    } else if (const char *V = Value("--watchdog=")) {
      Opts.WatchdogMs = static_cast<uint32_t>(std::strtoul(V, nullptr, 10));
    } else if (const char *V = Value("--explain-alarm=")) {
      // Digits only: a bare strtol reads "abc" as alarm 0 and "-1" as
      // "no alarm to explain".
      char *End = nullptr;
      errno = 0;
      Opts.ExplainAlarm = std::strtol(V, &End, 10);
      if (!std::isdigit(static_cast<unsigned char>(*V)) || *End ||
          errno == ERANGE) {
        std::fprintf(stderr, "error: --explain-alarm needs an alarm "
                             "number, got '%s'\n", V);
        return false;
      }
      Opts.Check = true; // The walk explains an alarm of the checked run.
    } else if (const char *V = Value("--snapshot-out=")) {
      Opts.SnapshotOut = V;
    } else if (const char *V = Value("--snapshot-in=")) {
      Opts.SnapshotIn = V;
    } else if (A == "--snapshot-graph") {
      Opts.SnapshotGraph = true;
    } else if (const char *V = Value("--shards=")) {
      Opts.Shards = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (const char *V = Value("--connect=")) {
      Opts.Connect = V;
    } else if (A == "--no-incremental") {
      Opts.NoIncremental = true;
    } else if (A == "--serve-stats") {
      Opts.ServeStats = true;
    } else if (A == "--serve-shutdown") {
      Opts.ServeShutdown = true;
    } else if (A == "--serve-watch") {
      Opts.ServeWatch = 0;
    } else if (const char *V = Value("--serve-watch=")) {
      Opts.ServeWatch = std::strtol(V, nullptr, 10);
    } else if (const char *V = Value("--watch-ms=")) {
      Opts.WatchMs = static_cast<uint32_t>(std::strtoul(V, nullptr, 10));
    } else if (A == "--help" || A == "-h") {
      return false;
    } else if (!A.empty() && A[0] == '-' && A != "-") {
      std::fprintf(stderr, "unknown option: %s\n", A.c_str());
      return false;
    } else if (Opts.Path.empty()) {
      Opts.Path = A;
    } else {
      return false;
    }
  }
  // Batch modes and --snapshot-in supply their own program, and the
  // daemon control requests need none; otherwise a path is required.
  return !Opts.Path.empty() || !Opts.BatchFile.empty() || Opts.BatchSuite ||
         !Opts.SnapshotIn.empty() ||
         (!Opts.Connect.empty() &&
          (Opts.ServeStats || Opts.ServeShutdown || Opts.ServeWatch >= 0));
}

std::string readInput(const std::string &Path) {
  if (Path == "-") {
    std::ostringstream OS;
    OS << std::cin.rdbuf();
    return OS.str();
  }
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
    std::exit(1);
  }
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

/// --connect: ship the program to a resident spa-serve daemon and render
/// its response in the cold CLI's output format (docs/SERVER.md).  The
/// summary line carries the warm-path evidence (partition reuse, cache
/// hits) the server tests and the bench ablation grep for.
int runConnectMode(const CliOptions &Cli) {
  serve::Client C;
  std::string Error;
  if (C.connect(Cli.Connect, Error) != serve::ServeErrc::None) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  if (Cli.ServeStats) {
    std::string Doc;
    if (C.stats(Doc, Error) != serve::ServeErrc::None) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::fputs(Doc.c_str(), stdout);
    if (!Cli.PromOut.empty()) {
      // Second round trip on the same connection: the daemon's registry
      // rendered as Prometheus text.
      std::string Prom;
      if (C.stats(Prom, Error, /*Prom=*/true) != serve::ServeErrc::None) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 1;
      }
      if (!obs::MetricsSink::writeFile(Cli.PromOut, Prom)) {
        std::fprintf(stderr, "error: cannot write %s\n", Cli.PromOut.c_str());
        return 1;
      }
    }
    return 0;
  }
  if (Cli.ServeWatch >= 0) {
    serve::SubscribeRequest Sub;
    Sub.IntervalMs = Cli.WatchMs;
    Sub.MaxFrames = static_cast<uint32_t>(Cli.ServeWatch);
    serve::ServeErrc Rc = C.subscribe(
        Sub,
        [](const std::string &Doc) {
          std::fputs(Doc.c_str(), stdout);
          std::fflush(stdout);
          return true;
        },
        Error);
    if (Rc != serve::ServeErrc::None) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    return 0;
  }
  if (Cli.ServeShutdown) {
    if (C.shutdown(Error) != serve::ServeErrc::None) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::printf("server shut down\n");
    return 0;
  }

  serve::AnalyzeRequest Req;
  Req.Jobs = Cli.Jobs;
  if (Cli.NoIncremental)
    Req.Flags |= serve::ReqFlagNoIncremental;
  if (Cli.Check)
    Req.Flags |= serve::ReqFlagCheck;
  if (!Cli.SnapshotIn.empty()) {
    std::ifstream In(Cli.SnapshotIn, std::ios::binary);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", Cli.SnapshotIn.c_str());
      return 1;
    }
    std::ostringstream OS;
    OS << In.rdbuf();
    Req.Program = OS.str();
    Req.Flags |= serve::ReqFlagSnapshot;
  } else {
    Req.Program = readInput(Cli.Path);
  }

  serve::AnalyzeResponse Resp;
  serve::ServeErrc Rc = C.analyze(Req, Resp, Error);
  if (Rc != serve::ServeErrc::None) {
    std::fprintf(stderr, "error: %s: %s\n", serve::serveErrorName(Rc),
                 Error.c_str());
    return 1;
  }

  std::printf("digest=%016llx partitions=%u reused=%u solved=%u "
              "cache_hit=%u\n",
              static_cast<unsigned long long>(Resp.ResultDigest),
              Resp.PartitionsTotal, Resp.PartitionsReused,
              Resp.PartitionsSolved, Resp.CacheHit);
  if (Resp.Degraded)
    std::printf("!! degraded: resource budget exhausted; results are "
                "sound but coarse\n");
  if (Cli.Check) {
    std::printf("checked %u dereferences: %u safe, %u alarms\n",
                Resp.Checks, Resp.Checks - Resp.Alarms, Resp.Alarms);
    std::fputs(Resp.AlarmsText.c_str(), stdout);
  } else {
    std::fputs(Resp.InvariantsText.c_str(), stdout);
  }
  if (!Cli.MetricsOut.empty() &&
      !obs::MetricsSink::writeFile(Cli.MetricsOut, Resp.MetricsJson)) {
    std::fprintf(stderr, "error: cannot write %s\n", Cli.MetricsOut.c_str());
    return 1;
  }
  return Resp.Degraded ? 3 : 0;
}

/// Emits --stats / --metrics-out / --trace-out / --ledger-out.  The
/// caller renders the mode-specific ledger document and hotspot table
/// (empty = none); the key=value dump always precedes the table so
/// line-oriented consumers keep working.
int emitObservability(const CliOptions &Cli,
                      const std::string &LedgerJson = "",
                      const std::string &HotspotText = "") {
  if (Cli.Stats) {
    std::fputs(
        obs::MetricsSink::toKeyValueText(obs::Registry::global()).c_str(),
        stdout);
    if (!HotspotText.empty())
      std::fputs(HotspotText.c_str(), stdout);
  }
  int Rc = 0;
  if (!Cli.MetricsOut.empty() &&
      !obs::MetricsSink::writeFile(Cli.MetricsOut,
                                   obs::MetricsSink::toJson(
                                       obs::Registry::global()))) {
    std::fprintf(stderr, "error: cannot write %s\n", Cli.MetricsOut.c_str());
    Rc = 1;
  }
  if (!Cli.PromOut.empty() &&
      !obs::MetricsSink::writeFile(Cli.PromOut,
                                   obs::Registry::global().renderProm())) {
    std::fprintf(stderr, "error: cannot write %s\n", Cli.PromOut.c_str());
    Rc = 1;
  }
  if (!Cli.TraceOut.empty() &&
      !obs::MetricsSink::writeFile(Cli.TraceOut,
                                   obs::Tracer::global().toChromeJson())) {
    std::fprintf(stderr, "error: cannot write %s\n", Cli.TraceOut.c_str());
    Rc = 1;
  }
  if (!Cli.LedgerOut.empty() &&
      !obs::MetricsSink::writeFile(Cli.LedgerOut, LedgerJson)) {
    std::fprintf(stderr, "error: cannot write %s\n", Cli.LedgerOut.c_str());
    Rc = 1;
  }
  if (!Cli.JournalOut.empty() &&
      !obs::MetricsSink::writeFile(Cli.JournalOut, obs::journalToJson())) {
    std::fprintf(stderr, "error: cannot write %s\n", Cli.JournalOut.c_str());
    Rc = 1;
  }
  return Rc;
}

/// RAII for the single-run forensics the CLI flags install in *this*
/// process (batch children install their own around each item).
struct ForensicsScope {
  bool Active = false;

  void install(const CliOptions &Cli) {
    if (Cli.PostmortemDir.empty() && Cli.WatchdogMs == 0)
      return;
    obs::PostmortemOptions PO;
    PO.Dir = Cli.PostmortemDir.empty() ? nullptr : Cli.PostmortemDir.c_str();
    PO.RunId = Cli.Path.empty() ? "run" : Cli.Path.c_str();
    if (!obs::postmortemInstall(PO))
      std::fprintf(stderr, "warning: cannot create postmortem file in %s\n",
                   Cli.PostmortemDir.c_str());
    obs::watchdogStart(Cli.WatchdogMs);
    Active = true;
  }

  ~ForensicsScope() {
    if (Active)
      obs::postmortemUninstall(); // Also stops the watchdog.
  }
};

/// Provenance walk budget: the run's own token is spent by now, so the
/// walk gets a fresh one with the CLI limits (null = unbudgeted walk).
struct WalkBudget {
  std::optional<Budget> Storage;
  ProvenanceQuery Query;

  explicit WalkBudget(const BudgetLimits &Limits) {
    if (Limits.enabled()) {
      Storage.emplace(Limits);
      Query.Bud = &*Storage;
    }
  }
};

int runOctagonMode(const Program &Prog, const CliOptions &Cli) {
  OctOptions Opts;
  Opts.Engine = Cli.Engine;
  Opts.Dep = Cli.Dep;
  // Exit invariants are printed from the exit input buffers, which the
  // bypass contraction would (correctly) thin out.
  Opts.Dep.Bypass = false;
  // Lanes for the dependency build and the fixpoint's component shards.
  Opts.Dep.Jobs = Cli.Jobs ? Cli.Jobs : ThreadPool::defaultJobs();
  Opts.Budget = Cli.Budget;
  OctRun Run = runOctAnalysis(Prog, Opts);
  if (Run.degraded())
    std::printf("!! degraded: resource budget exhausted (%s); invariants "
                "are sound but coarse\n",
                budgetReasonName(Run.BudgetStop));

  // Octagon ledger nodes live in pack space, so phi labels name the pack
  // rather than a source location.
  auto Label = [&](uint32_t Node) -> std::string {
    const SparseGraph *G = Run.Graph ? &*Run.Graph : nullptr;
    if (G && G->isPhi(Node)) {
      const PhiNode &Phi = G->phi(Node);
      return "phi(pack" + std::to_string(Phi.L.value()) + ") @ " +
             Prog.pointToString(Phi.At);
    }
    return Prog.pointToString(G ? G->anchor(Node) : PointId(Node));
  };

  obs::Ledger EmptyLedger;
  const obs::Ledger &Led = Run.Ledger ? *Run.Ledger : EmptyLedger;
  std::string LedgerJson;
  if (!Cli.LedgerOut.empty())
    LedgerJson = Led.toJson(/*HotspotK=*/10, Label);
  if (int Rc = emitObservability(Cli, LedgerJson,
                                 Cli.Stats ? Led.hotspotText(10, Label)
                                           : std::string()))
    return Rc;

  // Per-function exit intervals via singleton-pack projection.
  for (uint32_t F = 0; F < Prog.numFuncs(); ++F) {
    const FunctionInfo &Info = Prog.function(FuncId(F));
    if (Info.Name == "_start")
      continue;
    std::printf("%s at exit:\n", Info.Name.c_str());
    for (uint32_t L = 0; L < Prog.numLocs(); ++L) {
      const LocInfo &Loc = Prog.loc(LocId(L));
      if (Loc.Owner != FuncId(F) && Loc.Kind != LocKind::Global)
        continue;
      Interval Itv;
      if (Run.Dense) {
        Itv = Run.denseIntervalAt(Info.Exit, LocId(L));
      } else {
        PackId S = Run.Packs.singleton(LocId(L));
        const OctVal *O = Run.Sparse->In[Info.Exit.value()].lookup(S);
        Itv = O ? O->project(0) : Interval::bot();
      }
      if (!Itv.isBot())
        std::printf("  %-16s in %s\n", Loc.Name.c_str(),
                    Itv.str().c_str());
    }
  }
  return Run.degraded() ? 3 : 0;
}

/// --batch / --batch-suite: analyze many programs across the pool.
/// Per-item lines print in input order (independent of --jobs).
int runBatchMode(const CliOptions &Cli) {
  std::vector<BatchItem> Items;
  if (Cli.BatchSuite) {
    double Scale =
        Cli.BatchSuiteScale > 0 ? Cli.BatchSuiteScale : suiteScaleFromEnv();
    Items = suiteBatch(Scale);
  }
  if (!Cli.BatchFile.empty()) {
    std::string Error;
    if (!loadBatchFile(Cli.BatchFile, Items, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
  }
  if (Items.empty()) {
    std::fprintf(stderr, "error: batch contains no programs\n");
    return 1;
  }

  BatchOptions Opts;
  Opts.Analyzer.Engine = Cli.Engine;
  Opts.Analyzer.Pre = Cli.Pre;
  Opts.Analyzer.Dep = Cli.Dep;
  Opts.Analyzer.Budget = Cli.Budget;
  Opts.Analyzer.Jobs = Cli.Jobs;
  Opts.Check = Cli.Check;
  Opts.WatchdogMs = Cli.WatchdogMs;
  Opts.PostmortemDir = Cli.PostmortemDir;

  // --isolate is the shard executor with one worker per --jobs lane.
  unsigned Shards = Cli.Shards;
  if (Shards == 0 && Cli.Isolate)
    Shards = Cli.Jobs ? Cli.Jobs : ThreadPool::defaultJobs();
  BatchResult R;
  unsigned WorkerDeaths = 0;
  uint64_t Steals = 0;
  if (Shards > 0) {
    ShardOptions SOpts;
    SOpts.Batch = Opts;
    SOpts.Shards = Shards;
    ShardRunResult SR = runSharded(Items, SOpts);
    R = std::move(SR.Batch);
    WorkerDeaths = SR.WorkerDeaths;
    Steals = SR.Steals;
  } else {
    R = runBatch(Items, Opts);
  }
  for (const BatchItemResult &I : R.Items) {
    std::string Tag;
    if (I.Degraded)
      Tag += " [degraded]";
    if (I.Retried)
      Tag += " [retried]";
    if (!I.Ok && !I.Error.empty())
      std::printf("%-24s %s: %s%s\n", I.Name.c_str(),
                  batchOutcomeName(I.Outcome), I.Error.c_str(),
                  Tag.c_str());
    else if (Cli.Check)
      std::printf("%-24s %.2fs  %u checks, %u alarms%s\n", I.Name.c_str(),
                  I.Seconds, I.Checks, I.Alarms, Tag.c_str());
    else
      std::printf("%-24s %.2fs%s\n", I.Name.c_str(), I.Seconds,
                  Tag.c_str());
  }
  std::printf("%zu programs in %.2fs (%.2f programs/sec, %zu failed)\n",
              R.Items.size(), R.Seconds, R.programsPerSec(),
              R.numFailed());
  if (R.numDegraded() > 0)
    std::printf("%zu degraded (sound, coarse results)\n", R.numDegraded());
  if (Shards > 0)
    std::printf("%u shards: %llu steals, %u worker deaths\n", Shards,
                static_cast<unsigned long long>(Steals), WorkerDeaths);

  // Batch ledger: the per-item fixpoint-cost rollup (full per-node
  // ledgers stay inside each item's run; only totals cross the batch —
  // and, sharded, the fork — boundary).
  std::string LedgerJson;
  if (!Cli.LedgerOut.empty()) {
    auto Quote = [](const std::string &S) {
      std::string Q = "\"";
      for (char C : S) {
        if (C == '"' || C == '\\')
          Q += '\\';
        Q += C;
      }
      return Q += '"';
    };
    LedgerJson = "{\n  \"schema\": \"spa-batch-ledger-v1\",\n  \"items\": [";
    for (size_t I = 0; I < R.Items.size(); ++I) {
      const BatchItemResult &It = R.Items[I];
      LedgerJson += I ? ",\n    {" : "\n    {";
      LedgerJson += "\"name\": " + Quote(It.Name);
      LedgerJson +=
          std::string(", \"outcome\": \"") + batchOutcomeName(It.Outcome) +
          "\"";
      LedgerJson += ", \"visits\": " + std::to_string(It.LedgerVisits);
      LedgerJson +=
          ", \"widenings\": " + std::to_string(It.LedgerWidenings);
      LedgerJson += ", \"growth\": " + std::to_string(It.LedgerGrowth);
      LedgerJson +=
          ", \"time_micros\": " + std::to_string(It.LedgerTimeMicros);
      LedgerJson += "}";
    }
    LedgerJson += R.Items.empty() ? "]\n}\n" : "\n  ]\n}\n";
  }
  if (int Rc = emitObservability(Cli, LedgerJson))
    return Rc;
  return exitCodeFor(R);
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Cli;
  if (!parseArgs(Argc, Argv, Cli)) {
    usage();
    return 1;
  }

  if (!Cli.TraceOut.empty())
    obs::Tracer::global().enable();

  if ((Cli.ServeStats || Cli.ServeShutdown || Cli.ServeWatch >= 0) &&
      Cli.Connect.empty()) {
    std::fprintf(stderr,
                 "error: --serve-stats/--serve-watch/--serve-shutdown "
                 "require --connect=SOCK\n");
    return 1;
  }
  if (!Cli.Connect.empty())
    return runConnectMode(Cli);

  // The checker reads the input buffers of a sparse interval run: the
  // dense engines keep none, and octagons carry no block sizes.  (A
  // served check always runs sparse interval.)
  if (Cli.Check && (Cli.Engine != EngineKind::Sparse || Cli.Octagon)) {
    std::fprintf(stderr, "error: --check and --explain-alarm need "
                         "--engine=sparse and --domain=interval\n");
    return 1;
  }

  if (!Cli.BatchFile.empty() || Cli.BatchSuite)
    return runBatchMode(Cli); // Forensics install per item in workers.

  ForensicsScope Forensics;
  Forensics.install(Cli);

  // The program comes from a snapshot (--snapshot-in) or from source;
  // --snapshot-out then persists it as spa-ir-v1 (both at once re-encodes
  // a snapshot, a format-stability round trip).
  std::unique_ptr<Program> OwnedProg;
  DepSnapshotResult DecodedGraph;
  bool HaveDecodedGraph = false;
  if (!Cli.SnapshotIn.empty()) {
    SnapshotLoadResult Loaded = loadSnapshotFile(Cli.SnapshotIn);
    if (!Loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", Loaded.Error.str().c_str());
      return 1;
    }
    OwnedProg = std::move(Loaded.Prog);
    if (Loaded.HasDepGraph) {
      DecodedGraph = decodeDepGraph(*OwnedProg, Loaded.DepGraph);
      if (!DecodedGraph.ok())
        std::fprintf(stderr, "warning: ignoring snapshot depgraph: %s\n",
                     DecodedGraph.Error.c_str());
      else
        HaveDecodedGraph = true;
    }
  } else {
    BuildResult Built = buildProgramFromSource(readInput(Cli.Path));
    if (!Built.ok()) {
      std::fprintf(stderr, "error: %s\n", Built.Error.c_str());
      return 1;
    }
    OwnedProg = std::move(Built.Prog);
  }
  const Program &Prog = *OwnedProg;

  // --snapshot-graph defers the write until the dependency graph exists
  // (after the sparse run below); a plain --snapshot-out needs only the
  // IR and writes immediately.
  if (Cli.SnapshotGraph &&
      (Cli.Octagon || Cli.Engine != EngineKind::Sparse ||
       Cli.SnapshotOut.empty())) {
    std::fprintf(stderr, "error: --snapshot-graph requires --snapshot-out, "
                         "the sparse engine, and --domain=interval\n");
    return 1;
  }
  if (!Cli.SnapshotOut.empty() && !Cli.SnapshotGraph) {
    std::string Error;
    if (!writeSnapshotFile(Cli.SnapshotOut, Prog, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
  }

  if (Cli.Octagon)
    return runOctagonMode(Prog, Cli);

  AnalyzerOptions Opts;
  Opts.Engine = Cli.Engine;
  Opts.Pre = Cli.Pre;
  Opts.Dep = Cli.Dep;
  if (Cli.List)
    Opts.Dep.Bypass = false; // The listing prints every input buffer.
  Opts.Budget = Cli.Budget;
  Opts.Jobs = Cli.Jobs;
  // Warm start from the snapshot's embedded depgraph when the recorded
  // builder options match this invocation's (otherwise fall through to a
  // normal build — a mismatch only costs the warm start, never safety).
  if (HaveDecodedGraph && Opts.Engine == EngineKind::Sparse &&
      depSnapshotUsable(DecodedGraph, Opts.Dep))
    Opts.PrebuiltGraph = &DecodedGraph.Graph;
  AnalysisRun Run = analyzeProgram(Prog, Opts);
  if (Run.degraded())
    std::printf("!! degraded: resource budget exhausted (%s); results are "
                "sound but coarse\n",
                budgetReasonName(Run.BudgetStop));

  if (Cli.SnapshotGraph) {
    if (!Run.Graph) {
      std::fprintf(stderr,
                   "error: --snapshot-graph: the run built no dependency "
                   "graph\n");
      return 1;
    }
    std::vector<uint8_t> Payload = encodeDepGraph(*Run.Graph, Opts.Dep);
    std::string Error;
    if (!writeSnapshotFile(Cli.SnapshotOut, Prog, Error, &Payload)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
  }

  // Checker + alarm provenance run before the observability sinks so the
  // ledger JSON can embed the provenance array.
  std::optional<CheckerSummary> Summary;
  std::vector<AlarmProvenance> Slices;
  std::string ProvJson;
  if (Cli.Check) {
    Summary.emplace(checkBufferOverruns(Prog, Run));
    if (!Cli.LedgerOut.empty() || Cli.ExplainAlarm >= 0) {
      WalkBudget WB(Cli.Budget);
      Slices = collectAlarmProvenance(Prog, Run, *Summary, WB.Query);
      ProvJson = provenanceJsonArray(Prog, Run, Slices);
    }
  }

  auto Label = [&](uint32_t Node) {
    return ledgerNodeLabel(Prog, Run.Graph ? &*Run.Graph : nullptr, Node);
  };
  obs::Ledger EmptyLedger;
  const obs::Ledger &Led = Run.Ledger ? *Run.Ledger : EmptyLedger;
  std::string LedgerJson;
  if (!Cli.LedgerOut.empty())
    LedgerJson = Led.toJson(/*HotspotK=*/10, Label, ProvJson);
  if (int Rc = emitObservability(Cli, LedgerJson,
                                 Cli.Stats ? Led.hotspotText(10, Label)
                                           : std::string()))
    return Rc;

  if (Cli.DumpCfg)
    std::fputs(exportSupergraphDot(Prog, Run.Pre.CG).c_str(), stdout);
  if (Cli.DumpDeps && Run.Graph)
    std::fputs(exportDepGraphDot(Prog, *Run.Graph).c_str(), stdout);
  if (Cli.List)
    std::fputs(exportAnnotatedListing(Prog, Run).c_str(), stdout);

  if (Summary) {
    std::printf("checked %zu dereferences: %u safe, %u alarms\n",
                Summary->Checks.size(), Summary->numSafe(),
                Summary->numAlarms());
    for (const AccessCheck &C : Summary->Checks)
      if (C.Result != AccessCheck::Verdict::Safe)
        std::printf("  %s\n", C.str(Prog).c_str());
  }
  if (Cli.ExplainAlarm >= 0) {
    size_t Id = static_cast<size_t>(Cli.ExplainAlarm);
    if (Id >= Slices.size()) {
      std::fprintf(stderr, "error: no alarm #%zu (%zu alarms)\n", Id,
                   Slices.size());
      return 1;
    }
    std::fputs(Slices[Id].str(Prog, Run).c_str(), stdout);
  }

  if (Cli.Run) {
    InterpOptions IOpts;
    IOpts.InputSeed = Cli.RunSeed;
    Interp I(Prog, Run.Pre.CG, IOpts);
    InterpResult R = I.run(nullptr);
    const char *Reason[] = {"finished", "out of fuel", "trapped",
                            "blocked by assume", "buffer overrun"};
    std::printf("concrete run (seed %llu): %s after %llu steps\n",
                static_cast<unsigned long long>(Cli.RunSeed),
                Reason[static_cast<int>(R.Reason)],
                static_cast<unsigned long long>(R.Steps));
  }

  if (!Cli.Stats && !Cli.Check && !Cli.List && !Cli.DumpCfg &&
      !Cli.DumpDeps && !Cli.Run) {
    // Default action: print main's exit invariants.
    FuncId Main = Prog.mainFunc();
    PointId Exit = Prog.function(Main).Exit;
    std::printf("invariants at main's exit:\n");
    const AbsState *St = nullptr;
    AbsState DenseIn;
    if (Run.Sparse) {
      St = &Run.Sparse->In[Exit.value()];
    } else {
      DenseIn = Run.Dense->Post[Exit.value()];
      St = &DenseIn;
    }
    for (const auto &[L, V] : *St)
      std::printf("  %-16s = %s\n", Prog.loc(L).Name.c_str(),
                  V.str().c_str());
  }
  return Run.degraded() ? 3 : 0;
}
