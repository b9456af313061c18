//===- driver.cpp - The repository benchmark ------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload (README.md explains each) and prints its
/// metrics: a human table, then one JSON object as the last stdout line.
///
///   spa-perfbench --workload interval|check-batch|serve-edit|octagon
///                 --seed N --seconds S --trace 0|1
///                 [--work-dir DIR] [--smoke]
///
/// --trace 0 measures the end-to-end metrics; --trace 1 instead calls
/// each layer's public functions under in-memory spans and reports the
/// per-layer metrics.  Every analysis result is checked against an oracle
/// that does not come from the analyzer (oracle.h), outside the timed
/// region; any failed operation makes the exit code 1.  --smoke shrinks
/// every input set so the whole schema and oracle path runs in seconds.
///
//===----------------------------------------------------------------------===//

#include "oracle.h"
#include "spans.h"

#include "core/Analyzer.h"
#include "core/Checker.h"
#include "domains/AbsState.h"
#include "domains/Interner.h"
#include "ir/Builder.h"
#include "ir/Snapshot.h"
#include "lang/Parser.h"
#include "obs/Metrics.h"
#include "oct/OctAnalysis.h"
#include "serve/Client.h"
#include "serve/Service.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "workload/Generator.h"
#include "workload/ShardCoordinator.h"
#include "workload/Suite.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <functional>
#include <iterator>
#include <optional>
#include <sched.h>
#include <sstream>
#include <string>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace spa;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Configuration
//===----------------------------------------------------------------------===//

/// One workload's input set: \c Copies renderings of a suite at \c Scale.
struct InputSet {
  double Scale;
  unsigned Copies;
};

/// Input sets per workload; README.md "Workloads" gives the reasons.
/// --smoke shrinks them.
struct Sizes {
  InputSet Interval{0.05, 1};
  InputSet Check{0.04, 2};
  InputSet Serve{0.05, 1};
  InputSet Oct{0.1, 1};
};

/// Set-up is repeated and its median reported, so set-up time is a
/// steady metric of its own (work moved into set-up shows there).  The
/// daemon workload's set-up primes a whole suite, so it repeats less.
constexpr unsigned SetupRepeats = 5;
constexpr unsigned ServeSetupRepeats = 3;
/// Interpreter input streams per analyzed program.
constexpr unsigned OracleInputs = 3;
/// Lanes: at most this many, and at most the CPUs this process may use.
constexpr unsigned MaxLanes = 4;
/// check-batch shard workers.  Two, not four: the pass then leaves half
/// the cores to the rest of the host, and its wall-time spread halves
/// (README.md "Worker count").
constexpr unsigned CheckWorkers = 2;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  std::string WorkDir = ".";
};

unsigned lanes() {
  cpu_set_t Set;
  unsigned N = 1;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    N = static_cast<unsigned>(CPU_COUNT(&Set));
  return std::clamp(N, 1u, MaxLanes);
}

/// Independent seed for (stream, index) under the workload seed.
uint64_t deriveSeed(uint64_t Seed, uint64_t Stream, uint64_t Index) {
  Rng R(Seed * 0x9E3779B97F4A7C15ull ^ (Stream << 40) ^ Index);
  return R.next();
}

std::string fmt(const char *Format, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), Format, V);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Measurement helpers
//===----------------------------------------------------------------------===//

double seconds(const timeval &T) { return T.tv_sec + T.tv_usec * 1e-6; }

double cpuSecondsOf(int Who) {
  rusage U{};
  getrusage(Who, &U);
  return seconds(U.ru_utime) + seconds(U.ru_stime);
}

/// User plus system time of this process and its waited-for children.
double cpuSeconds() {
  return cpuSecondsOf(RUSAGE_SELF) + cpuSecondsOf(RUSAGE_CHILDREN);
}

/// Highest RSS of this process or any waited-for child, in MiB.
double peakRssMiB() {
  rusage Self{}, Kids{};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Kids);
  return std::max(Self.ru_maxrss, Kids.ru_maxrss) / 1024.0;
}

/// VmHWM of a live process, in MiB (0 if unreadable).
double processPeakMiB(pid_t Pid) {
  std::string Path = "/proc/" + std::to_string(Pid) + "/status";
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return 0;
  char Line[256];
  double KiB = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      KiB = std::atof(Line + 6);
  std::fclose(F);
  return KiB / 1024.0;
}

/// User plus system time of a live process (all its threads), in seconds.
double processCpuSeconds(pid_t Pid) {
  std::string Path = "/proc/" + std::to_string(Pid) + "/stat";
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return 0;
  char Buf[1024];
  size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  Buf[N] = 0;
  // utime and stime are the 14th and 15th fields; the command name
  // (field 2) is parenthesized and may contain spaces.
  const char *P = std::strrchr(Buf, ')');
  unsigned long long Utime = 0, Stime = 0;
  if (!P ||
      std::sscanf(P + 2, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &Utime, &Stime) != 2)
    return 0;
  return static_cast<double>(Utime + Stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Quantile with linear interpolation between closest ranks.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Runs set-up \p Repeats times; \p F learns whether its result is kept.
template <class Fn> double medianSetup(unsigned Repeats, Fn &&F) {
  std::vector<double> Times;
  for (unsigned R = 0; R < Repeats; ++R) {
    double T0 = nowSeconds();
    F(R + 1 == Repeats);
    Times.push_back(nowSeconds() - T0);
  }
  return median(Times);
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

//===----------------------------------------------------------------------===//
// One program per process
//===----------------------------------------------------------------------===//

/// What a forked child produced.
struct ChildOutput {
  bool Ok = false; ///< Exited with status 0.
  std::string Text;
  double PeakMiB = 0; ///< The child's own peak RSS.
};

/// Runs \p Job in a forked child and returns the text it produced.  Each
/// program is analyzed in a fresh process, as `spa-analyze` does: value
/// pools, interners and the thread pool are process-wide, and a long-lived
/// process would carry one program's state into the next (measured: run
/// order alone moved octagon's pass time by a quarter).  The caller must
/// not have started threads.
ChildOutput runChild(const std::function<std::string()> &Job) {
  ChildOutput Out;
  int Fds[2];
  if (::pipe(Fds) != 0)
    return Out;
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Fds[0]);
    ::close(Fds[1]);
    return Out;
  }
  if (Pid == 0) {
    ::close(Fds[0]);
    // Nothing may unwind out of the child into the parent's code.
    std::string Text;
    try {
      Text = Job();
    } catch (...) {
      ::_exit(4);
    }
    const char *P = Text.data();
    size_t Left = Text.size();
    while (Left > 0) {
      ssize_t N = ::write(Fds[1], P, Left);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        ::_exit(3);
      P += N;
      Left -= static_cast<size_t>(N);
    }
    ::_exit(0);
  }
  ::close(Fds[1]);
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = ::read(Fds[0], Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Out.Text.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fds[0]);
  int Status = 0;
  rusage Usage{};
  while (::wait4(Pid, &Status, 0, &Usage) < 0 && errno == EINTR) {
  }
  Out.Ok = WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  Out.PeakMiB = Usage.ru_maxrss / 1024.0;
  return Out;
}

/// One operation (one program analysis) in a fresh child.
struct OpResult {
  bool Ok = false; ///< The child exited cleanly and reported.
  double Wall = 0, Cpu = 0, PeakMiB = 0;
  std::string Verdict; ///< Oracle outcome; "" = passed.
  std::string SpanText;
};

/// Runs \p Timed in a fresh child under the wall and CPU clocks, with
/// spans recorded when \p Traced.  \p Verdict then checks the result when
/// \p Check, outside the timed section and outside every span.
template <class TimedFn, class VerdictFn>
OpResult runOp(bool Traced, bool Check, TimedFn &&Timed, VerdictFn &&Verdict) {
  ChildOutput C = runChild([&] {
    SpanLog Log;
    if (Traced)
      Log.enable();
    double T0 = nowSeconds(), C0 = cpuSecondsOf(RUSAGE_SELF);
    auto Result = Timed(Log);
    double Wall = nowSeconds() - T0, Cpu = cpuSecondsOf(RUSAGE_SELF) - C0;
    std::string V = Check ? Verdict(Result) : "";
    std::replace(V.begin(), V.end(), '\n', ' ');
    return fmt("%.17g", Wall) + " " + fmt("%.17g", Cpu) + "\n" + V + "\n" +
           serializeSpans(Log.spans());
  });
  OpResult R;
  std::istringstream IS(C.Text);
  std::string Line;
  if (!C.Ok || !std::getline(IS, Line) ||
      std::sscanf(Line.c_str(), "%lf %lf", &R.Wall, &R.Cpu) != 2 ||
      !std::getline(IS, R.Verdict)) {
    R.Verdict = "analysis process failed";
    return R;
  }
  R.Ok = true;
  R.PeakMiB = C.PeakMiB;
  R.SpanText.assign(std::istreambuf_iterator<char>(IS), {});
  return R;
}

//===----------------------------------------------------------------------===//
// Reports
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Operations attempted and failed.  An operation is one program analysis
/// or one serve request; it fails on an error, a timeout, a degraded
/// result, or an oracle violation.
struct Ops {
  uint64_t Attempted = 0, Failed = 0;

  /// Counts one attempt, and a failure when \p Why is non-empty.
  void record(const std::string &What, const std::string &Why) {
    ++Attempted;
    if (Why.empty())
      return;
    if (++Failed <= 5)
      std::fprintf(stderr, "perfbench: %s failed: %s\n", What.c_str(),
                   Why.c_str());
  }
};

struct Report {
  Ops O;
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void note(const std::string &Line) { Notes.push_back(Line); }
};

/// Timed samples of the end-to-end run: wall and CPU time per pass over
/// the input set, and the highest RSS seen.
struct Samples {
  std::vector<double> Walls, Cpus;
  double PeakMiB = 0;
};

/// The end-to-end metrics, the same set on every workload.
void addEndToEnd(Report &R, double Setup, const Samples &S) {
  R.add("setup_s", Setup, "s");
  R.add("wall_s", median(S.Walls), "s");
  R.add("cpu_s", median(S.Cpus), "s");
  R.add("peak_rss_mib", S.PeakMiB, "MiB");
  R.note("passes: " + std::to_string(S.Walls.size()));
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

struct Input {
  std::string Name;
  std::string Source;
};

/// Renders every program of \p Set.  The corpus is fixed: copy 0 keeps
/// the suite's own generator seeds and copy K offsets them, so no program
/// text depends on the workload seed (README.md "Seeds" gives the
/// measurements behind this); the workload seed permutes the order.
std::vector<Input> generateInputs(const std::vector<SuiteEntry> &Suite,
                                  const InputSet &Set, uint64_t Seed) {
  std::vector<Input> Out;
  for (unsigned K = 0; K < Set.Copies; ++K)
    for (const SuiteEntry &E : Suite) {
      GenConfig C = E.Config;
      C.Seed += uint64_t(K) << 32;
      Out.push_back({E.Name + "#" + std::to_string(K), generateSource(C)});
    }
  Rng Order(deriveSeed(Seed, 1, 0));
  for (size_t I = Out.size(); I > 1; --I)
    std::swap(Out[I - 1], Out[Order.below(I)]);
  return Out;
}

std::string describe(const char *Suite, const InputSet &Set) {
  return std::string(Suite) + "(" + fmt("%g", Set.Scale) + ") x " +
         std::to_string(Set.Copies) + ", seeded order";
}

/// Positions of the integer literals in each top-level function of a
/// rendered program (digit runs not touching an identifier character).
std::vector<std::vector<std::pair<size_t, size_t>>>
literalSites(const std::string &Src) {
  auto IsIdent = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  std::vector<std::vector<std::pair<size_t, size_t>>> Funcs;
  for (size_t I = 0; I < Src.size(); ++I) {
    if ((I == 0 || Src[I - 1] == '\n') && Src.compare(I, 4, "fun ") == 0)
      Funcs.emplace_back();
    if (Funcs.empty() || !std::isdigit(static_cast<unsigned char>(Src[I])) ||
        (I > 0 && IsIdent(Src[I - 1])))
      continue;
    size_t E = I;
    while (E < Src.size() && std::isdigit(static_cast<unsigned char>(Src[E])))
      ++E;
    if (E == Src.size() || !IsIdent(Src[E]))
      Funcs.back().emplace_back(I, E - I);
    I = E - 1;
  }
  Funcs.erase(std::remove_if(Funcs.begin(), Funcs.end(),
                             [](const auto &F) { return F.empty(); }),
              Funcs.end());
  return Funcs;
}

/// A one-function edit: one integer literal of one seeded-chosen function
/// becomes \p NewValue.  Values are unique per edit, so every edited text
/// is a program the daemon has never seen.
void applyEdit(std::string &Src, Rng &R, uint64_t NewValue) {
  auto Funcs = literalSites(Src);
  if (Funcs.empty())
    return;
  const auto &Sites = Funcs[R.below(Funcs.size())];
  auto [Pos, Len] = Sites[R.below(Sites.size())];
  Src.replace(Pos, Len, std::to_string(NewValue));
}

//===----------------------------------------------------------------------===//
// The layer pipeline (traced run)
//===----------------------------------------------------------------------===//

/// How a workload runs one program, as public layer calls.
struct Pipeline {
  bool Bypass = true;      ///< The workload's dependency graph contracts.
  bool Check = false;      ///< The buffer-overrun checker runs.
  bool SnapEncode = false; ///< The program is encoded as spa-ir (shard
                           ///< parent; serve digest).
  bool SnapLoad = false;   ///< ... and analyzed from the decoded bytes
                           ///< (shard worker).
  unsigned Jobs = 1;
};

struct LayerResult {
  std::unique_ptr<Program> Prog;
  std::optional<AnalysisRun> Run;
  std::optional<CheckerSummary> Summary;
  std::string Error;
};

/// Process-wide value-pool and COW counters of the domains layer.
struct DomainStats {
  InternStats Pool;
  uint64_t Detaches = 0;

  static DomainStats now() {
    return {combinedInternerStats(),
            CowStats::Detaches.load(std::memory_order_relaxed)};
  }
};

/// Records the domains-layer counters accumulated since \p Before on \p S.
void countDomains(SpanScope &S, const DomainStats &Before) {
  DomainStats After = DomainStats::now();
  S.count("pool_hits", double(After.Pool.Hits - Before.Pool.Hits));
  S.count("pool_misses", double(After.Pool.Misses - Before.Pool.Misses));
  S.count("join_hits",
          double(After.Pool.JoinCacheHits - Before.Pool.JoinCacheHits));
  S.count("join_misses",
          double(After.Pool.JoinCacheMisses - Before.Pool.JoinCacheMisses));
  S.count("cow_detaches", double(After.Detaches - Before.Detaches));
}

/// Parses and lowers \p Source under spans; null program on failure.
std::unique_ptr<Program> frontEnd(SpanLog &Log, const std::string &Source,
                                  std::string &Error) {
  ParseResult Parsed;
  {
    SpanScope S(Log, "lang.parse");
    Parsed = parseProgram(Source);
  }
  if (!Parsed.Ok) {
    Error = Parsed.Error;
    return nullptr;
  }
  SpanScope S(Log, "ir.build");
  BuildResult Built = buildProgram(Parsed.Program);
  if (!Built.ok()) {
    Error = Built.Error;
    return nullptr;
  }
  S.count("points", static_cast<double>(Built.Prog->numPoints()));
  S.count("locs", static_cast<double>(Built.Prog->numLocs()));
  return std::move(Built.Prog);
}

/// Runs \p Source through the layers of \p P, one span per call, with the
/// counts that explain each call's cost recorded on its span.  The
/// bypass-off dependency build is an extra call the pipeline itself does
/// not make: it splits depbuild into its SSA part and its contraction.
LayerResult layerProgram(SpanLog &Log, uint32_t RunId,
                         const std::string &Source, const Pipeline &P) {
  LayerResult Out;
  DomainStats Domains = DomainStats::now();
  SpanScope Root(Log, "program", RunId);
  Out.Prog = frontEnd(Log, Source, Out.Error);
  if (!Out.Prog)
    return Out;
  if (P.SnapEncode) {
    std::vector<uint8_t> Bytes;
    {
      SpanScope S(Log, "ir.snapshot_encode");
      Bytes = saveSnapshot(*Out.Prog);
      S.count("bytes", static_cast<double>(Bytes.size()));
    }
    if (P.SnapLoad) {
      SpanScope S(Log, "ir.snapshot_load");
      SnapshotLoadResult Loaded = loadSnapshot(Bytes);
      if (!Loaded.ok()) {
        Out.Error = Loaded.Error.str();
        return Out;
      }
      Out.Prog = std::move(Loaded.Prog);
    }
  }
  const Program &Prog = *Out.Prog;
  double Points = static_cast<double>(Prog.numPoints());

  std::optional<PreAnalysisResult> Pre;
  {
    SpanScope S(Log, "core.pre");
    Pre.emplace(runPreAnalysis(Prog, SemanticsOptions()));
    S.count("sweeps", static_cast<double>(Pre->Sweeps));
  }
  Out.Run.emplace(AnalysisRun{std::move(*Pre), DefUseInfo{}, {}, {}, {}, 0, 0});
  AnalysisRun &Run = *Out.Run;
  {
    SpanScope S(Log, "core.defuse");
    Run.DU = computeDefUse(Prog, Run.Pre, P.Jobs);
    S.count("def_entries", Run.DU.avgDefSize() * Points);
    S.count("use_entries", Run.DU.avgUseSize() * Points);
  }
  DepOptions Dep;
  Dep.Jobs = P.Jobs;
  if (P.Bypass) {
    SpanScope S(Log, "core.depbuild.ssa");
    Dep.Bypass = false;
    SparseGraph G = buildDepGraph(Prog, Run.Pre.CG, Run.DU, Dep);
    S.count("edges", static_cast<double>(G.Edges->edgeCount()));
  }
  {
    SpanScope S(Log, "core.depbuild");
    Dep.Bypass = P.Bypass;
    Run.Graph = buildDepGraph(Prog, Run.Pre.CG, Run.DU, Dep);
    S.count("phis", static_cast<double>(Run.Graph->Phis.size()));
    S.count("edges_before", static_cast<double>(Run.Graph->EdgesBeforeBypass));
    S.count("edges_after", static_cast<double>(Run.Graph->Edges->edgeCount()));
    S.count("removed", static_cast<double>(Run.Graph->BypassRemoved));
  }
  {
    SpanScope S(Log, "core.fix");
    SparseOptions SOpts;
    SOpts.Jobs = P.Jobs;
    SOpts.DegradeTo = &Run.Pre.Global;
    Run.Sparse = runSparseAnalysis(Prog, Run.Pre.CG, *Run.Graph, SOpts);
    S.count("nodes", static_cast<double>(Run.Graph->numNodes()));
    S.count("visits", static_cast<double>(Run.Sparse->Visits));
  }
  {
    // Partition sizes are the benchmark's own computation, not part of
    // the fixpoint call, so they get a span of their own.
    SpanScope S(Log, "bench.partitions");
    DepComponents DC = computeDepComponents(Prog, *Run.Graph);
    std::vector<double> Size(DC.NumComps, 0);
    for (uint32_t C : DC.CompOfNode)
      Size[C] += 1;
    S.count("partitions", DC.NumComps);
    S.count("largest",
            Size.empty() ? 0 : *std::max_element(Size.begin(), Size.end()));
  }
  if (P.Check) {
    SpanScope S(Log, "core.checker");
    Out.Summary = checkBufferOverruns(Prog, Run);
    S.count("checks", static_cast<double>(Out.Summary->Checks.size()));
    S.count("alarms", Out.Summary->numAlarms());
  }
  countDomains(Root, Domains);
  return Out;
}

/// Per-layer metrics of one traced pass.  Every ratio has its base among
/// the metrics (README.md "Metric glossary").  Metrics of layers a
/// workload does not exercise read 0.
void addLayerMetrics(Report &R, const std::vector<Span> &Spans,
                     const Pipeline &P) {
  std::map<std::string, LayerRow> Rows = aggregate(Spans);
  auto Total = [&](const char *Name) { return Rows[Name].Total; };
  auto Count = [&](const char *Name, const char *Key) {
    return Rows[Name].Counts[Key];
  };
  double Points = Count("ir.build", "points");
  R.add("lang.parse_s", Total("lang.parse"), "s");
  R.add("ir.build_s", Total("ir.build"), "s");
  R.add("ir.points", Points, "count");
  R.add("ir.locs", Count("ir.build", "locs"), "count");
  R.add("ir.snapshot_encode_s", Total("ir.snapshot_encode"), "s");
  R.add("ir.snapshot_load_s", Total("ir.snapshot_load"), "s");
  R.add("core.pre_s", Total("core.pre"), "s");
  R.add("core.pre.sweeps", Count("core.pre", "sweeps"), "count");
  R.add("core.defuse_s", Total("core.defuse"), "s");
  R.add("core.defuse.avg_def",
        ratio(Count("core.defuse", "def_entries"), Points), "count");
  R.add("core.defuse.avg_use",
        ratio(Count("core.defuse", "use_entries"), Points), "count");
  double Dep = Total("core.depbuild");
  double Ssa = P.Bypass ? Total("core.depbuild.ssa") : Dep;
  double Phis = Count("core.depbuild", "phis");
  double EdgesBefore = Count("core.depbuild", "edges_before");
  R.add("core.depbuild_s", Dep, "s");
  R.add("core.depbuild.ssa_s", Ssa, "s");
  R.add("core.depbuild.bypass_s", P.Bypass ? Dep - Ssa : 0, "s");
  R.add("core.depbuild.phis", Phis, "count");
  R.add("core.depbuild.phis_per_point", ratio(Phis, Points), "ratio");
  R.add("core.depbuild.edges_before", EdgesBefore, "count");
  R.add("core.depbuild.edges_after", Count("core.depbuild", "edges_after"),
        "count");
  R.add("core.depbuild.bypass_removed_ratio",
        ratio(Count("core.depbuild", "removed"), EdgesBefore), "ratio");
  double Nodes = Count("core.fix", "nodes");
  double Visits = Count("core.fix", "visits");
  R.add("core.fix_s", Total("core.fix"), "s");
  R.add("core.fix.nodes", Nodes, "count");
  R.add("core.fix.visits", Visits, "count");
  R.add("core.fix.visits_per_node", ratio(Visits, Nodes), "ratio");
  R.add("core.fix.partitions", Count("bench.partitions", "partitions"),
        "count");
  R.add("core.fix.largest_partition_share",
        ratio(Count("bench.partitions", "largest"), Nodes), "ratio");
  R.add("core.checker_s", Total("core.checker"), "s");
  R.add("core.checker.checks", Count("core.checker", "checks"), "count");
  R.add("core.checker.alarms", Count("core.checker", "alarms"), "count");

  double Hits = Count("program", "pool_hits");
  double Lookups = Hits + Count("program", "pool_misses");
  double JoinHits = Count("program", "join_hits");
  double JoinLookups = JoinHits + Count("program", "join_misses");
  R.add("domains.pool_lookups", Lookups, "count");
  R.add("domains.pool_hit_rate", ratio(Hits, Lookups), "ratio");
  R.add("domains.join_cache_lookups", JoinLookups, "count");
  R.add("domains.join_cache_hit_rate", ratio(JoinHits, JoinLookups), "ratio");
  R.add("domains.cow_detaches", Count("program", "cow_detaches"), "count");

  R.add("oct.analyze_s", Total("oct.analyze"), "s");
  R.add("oct.pre_s", Count("oct.analyze", "pre_s"), "s");
  R.add("oct.defuse_s", Count("oct.analyze", "defuse_s"), "s");
  R.add("oct.depbuild_s", Count("oct.analyze", "depbuild_s"), "s");
  R.add("oct.fix_s", Count("oct.analyze", "fix_s"), "s");
  R.add("oct.nodes", Count("oct.analyze", "nodes"), "count");
  R.add("oct.visits", Count("oct.analyze", "visits"), "count");
  R.add("oct.closures", Count("oct.analyze", "closures"), "count");

  double Requests = static_cast<double>(Rows["serve.request"].Calls);
  double Parts = Count("serve.request", "partitions_total");
  std::vector<double> LatMs;
  for (const Span &S : Spans)
    if (S.Name == "serve.request")
      LatMs.push_back(S.seconds() * 1e3);
  R.add("serve.requests", Requests, "count");
  R.add("serve.edit_p50_ms", quantile(LatMs, 0.5), "ms");
  R.add("serve.edit_p90_ms", quantile(LatMs, 0.9), "ms");
  R.add("serve.server_s", ratio(Count("serve.request", "server_s"), Requests),
        "s");
  R.add("serve.wire_s",
        ratio(Total("serve.request") - Count("serve.request", "server_s"),
              Requests),
        "s");
  R.add("serve.partitions_total", Parts, "count");
  R.add("serve.partitions_reused_ratio",
        ratio(Count("serve.request", "partitions_reused"), Parts), "ratio");
  R.add("serve.ledger_visits",
        ratio(Count("serve.request", "ledger_visits"), Requests), "count");
  R.add("obs.unattributed_s", Rows["program"].Self, "s");
}

/// Shard-layer metrics from the dispatch/completion record of one sharded
/// pass; zero for workloads that do not shard.
void addShardMetrics(Report &R, const ShardRunResult *SR, unsigned Workers) {
  double Busy = 0, Wait = 0, LastDispatch = 0, LastDone = 0;
  double Items = SR ? static_cast<double>(SR->Timing.size()) : 0;
  for (size_t I = 0; SR && I < SR->Timing.size(); ++I) {
    Busy += SR->Batch.Items[I].Seconds;
    Wait += SR->Timing[I].DispatchSeconds;
    LastDispatch = std::max(LastDispatch, SR->Timing[I].DispatchSeconds);
    LastDone = std::max(LastDone, SR->Timing[I].DoneSeconds);
  }
  R.add("workload.busy_share",
        SR ? ratio(Busy, Workers * SR->Batch.Seconds) : 0, "ratio");
  R.add("workload.queue_wait_s", ratio(Wait, Items), "s");
  R.add("workload.tail_s", LastDone - LastDispatch, "s");
  R.add("workload.steals", SR ? static_cast<double>(SR->Steals) : 0, "count");
}

/// The per-layer self-time table of one traced pass; shares are of the
/// time all root spans (programs, serve requests) cover.
void printSelfTimes(const std::vector<Span> &Spans) {
  std::map<std::string, LayerRow> Rows = aggregate(Spans);
  double Programs = 0;
  for (const Span &S : Spans)
    if (S.Parent < 0)
      Programs += S.seconds();
  std::vector<std::pair<std::string, LayerRow>> Sorted(Rows.begin(),
                                                       Rows.end());
  std::sort(Sorted.begin(), Sorted.end(), [](const auto &A, const auto &B) {
    return A.second.Self > B.second.Self;
  });
  std::printf("# per-layer self time (root spans total %.3f s)\n",
              Programs);
  std::printf("#   %-22s %7s %11s %11s %7s\n", "span", "calls", "total_s",
              "self_s", "share");
  for (const auto &[Name, Row] : Sorted) {
    std::string Label = Name == "program" ? "(unattributed)" : Name;
    std::printf("#   %-22s %7llu %11.4f %11.4f %6.1f%%\n", Label.c_str(),
                static_cast<unsigned long long>(Row.Calls), Row.Total,
                Row.Self, Programs > 0 ? 100.0 * Row.Self / Programs : 0.0);
  }
}

/// The traced run's layer passes: every program twice, each time in a
/// fresh child, once without spans and once with them (alternating per
/// program, so slow drift of the host hits both alike).  \p Run makes the
/// layer calls; \p Verdict(I, Result) checks the traced result in the
/// child, and
/// \p OnVerdict receives it in the parent.  The summed difference of the
/// two passes' program times is the tracing overhead.  \p Spans may hold
/// spans recorded elsewhere (serve requests); the pass's spans join them.
template <class RunFn, class VerdictFn, class OnVerdictFn>
void tracedPasses(Report &R, const Args &A, size_t N, const Pipeline &P,
                  RunFn &&Run, VerdictFn &&Verdict, OnVerdictFn &&OnVerdict,
                  std::vector<Span> Spans = {}) {
  double Epoch = nowSeconds(), Untraced = 0, Traced = 0;
  for (size_t I = 0; I < N; ++I)
    for (bool On : {false, true}) {
      double Offset = nowSeconds() - Epoch;
      OpResult Op = runOp(
          On, On, [&](SpanLog &Log) { return Run(Log, I); },
          [&](const auto &Result) { return Verdict(I, Result); });
      (On ? Traced : Untraced) += Op.Wall;
      if (!On)
        continue;
      OnVerdict(I, Op.Verdict);
      appendSpans(Op.SpanText, Offset, Spans);
    }
  addLayerMetrics(R, Spans, P);
  R.add("obs.trace_overhead_pct", 100.0 * ratio(Traced - Untraced, Untraced),
        "%");
  printSelfTimes(Spans);
  std::string Path = A.WorkDir + "/spans-" + A.Workload + "-" +
                     std::to_string(A.Seed) + ".json";
  if (writeTraceJson(Path, Spans))
    R.note("spans written to " + Path);
}

//===----------------------------------------------------------------------===//
// interval
//===----------------------------------------------------------------------===//

std::string checkInterval(const Args &A, size_t Index, const Program &Prog,
                          const AnalysisRun &Run,
                          const CheckerSummary *Summary) {
  if (Run.timedOut())
    return "timed out";
  if (Run.degraded())
    return "degraded result";
  for (unsigned K = 0; K < OracleInputs; ++K) {
    std::string V = checkSparseRun(Prog, Run, Summary,
                                   deriveSeed(A.Seed, 100, Index * 8 + K));
    if (!V.empty())
      return V;
  }
  return "";
}

/// Repeats passes over \p N programs for the run's seconds; each program
/// is one runOp, timed in its child.
template <class TimedFn, class VerdictFn, class NameFn>
Samples programPasses(Report &R, const Args &A, size_t N, TimedFn &&Timed,
                      VerdictFn &&Verdict, NameFn &&Name) {
  Samples S;
  double Start = nowSeconds();
  do {
    double Wall = 0, Cpu = 0;
    for (size_t I = 0; I < N; ++I) {
      OpResult Op = runOp(
          false, true, [&](SpanLog &) { return Timed(I); },
          [&](const auto &Result) { return Verdict(I, Result); });
      Wall += Op.Wall;
      Cpu += Op.Cpu;
      S.PeakMiB = std::max(S.PeakMiB, Op.PeakMiB);
      R.O.record(Name(I), Op.Verdict);
    }
    S.Walls.push_back(Wall);
    S.Cpus.push_back(Cpu);
  } while (nowSeconds() - Start < A.Seconds);
  return S;
}

Report runInterval(const Args &A, const Sizes &Z) {
  Report R;
  unsigned Lanes = lanes();
  std::vector<Input> Inputs;
  double Setup = medianSetup(SetupRepeats, [&](bool) {
    Inputs = generateInputs(paperSuite(Z.Interval.Scale), Z.Interval, A.Seed);
  });
  R.note("interval: " + std::to_string(Inputs.size()) + " programs, " +
         describe("paperSuite", Z.Interval) +
         ", analyzeProgram with Jobs=" + std::to_string(Lanes) +
         ", one process per program");
  auto Name = [&](size_t I) { return Inputs[I].Name; };

  if (A.Trace) {
    Pipeline P;
    P.Jobs = Lanes;
    tracedPasses(
        R, A, Inputs.size(), P,
        [&](SpanLog &Log, size_t I) {
          return layerProgram(Log, static_cast<uint32_t>(I + 1),
                              Inputs[I].Source, P);
        },
        [&](size_t I, const LayerResult &LR) {
          return LR.Run ? checkInterval(A, I, *LR.Prog, *LR.Run, nullptr)
                        : LR.Error;
        },
        [&](size_t I, const std::string &V) { R.O.record(Name(I), V); });
    addShardMetrics(R, nullptr, 0);
    return R;
  }

  AnalyzerOptions Opts;
  Opts.Jobs = Lanes;
  struct Result {
    BuildResult B;
    std::optional<AnalysisRun> Run;
  };
  Samples S = programPasses(
      R, A, Inputs.size(),
      [&](size_t I) {
        Result Res{buildProgramFromSource(Inputs[I].Source), std::nullopt};
        if (Res.B.ok())
          Res.Run.emplace(analyzeProgram(*Res.B.Prog, Opts));
        return Res;
      },
      [&](size_t I, const Result &Res) {
        return Res.B.ok() ? checkInterval(A, I, *Res.B.Prog, *Res.Run, nullptr)
                          : Res.B.Error;
      },
      Name);
  addEndToEnd(R, Setup, S);
  return R;
}


//===----------------------------------------------------------------------===//
// check-batch
//===----------------------------------------------------------------------===//

/// The check-batch pipeline: sparse, bypass off (the checker reads input
/// buffers), checker on; the shard parent encodes spa-ir and a worker
/// analyzes the decoded program.
Pipeline checkPipeline() {
  Pipeline P;
  P.Bypass = false;
  P.Check = true;
  P.SnapEncode = true;
  P.SnapLoad = true;
  return P;
}

/// The oracle's verdict on one item, as text the parent compares with the
/// sharded result: "<checks> <alarms> <violation or nothing>".
std::string checkVerdict(const Args &A, size_t I, const LayerResult &LR) {
  if (!LR.Run || !LR.Summary)
    return "0 0 " + (LR.Error.empty() ? std::string("no result") : LR.Error);
  return std::to_string(LR.Summary->Checks.size()) + " " +
         std::to_string(LR.Summary->numAlarms()) + " " +
         checkInterval(A, I, *LR.Prog, *LR.Run, &*LR.Summary);
}

/// A sharded item passes when it completed at full precision, the oracle
/// run passed the interpreter, and both agree on the checker's verdicts.
std::string compareItem(const BatchItemResult &Sharded,
                        const std::string &Verdict) {
  if (!Sharded.Ok)
    return std::string(batchOutcomeName(Sharded.Outcome)) + ": " +
           Sharded.Error;
  if (Sharded.Degraded || Sharded.TimedOut)
    return "degraded or timed out";
  unsigned Checks = 0, Alarms = 0;
  int Used = 0;
  if (std::sscanf(Verdict.c_str(), "%u %u %n", &Checks, &Alarms, &Used) < 2)
    return "no oracle verdict: " + Verdict;
  if (static_cast<size_t>(Used) < Verdict.size())
    return Verdict.substr(static_cast<size_t>(Used));
  if (Sharded.Checks != Checks || Sharded.Alarms != Alarms)
    return "sharded verdicts (" + std::to_string(Sharded.Checks) +
           " checks, " + std::to_string(Sharded.Alarms) +
           " alarms) differ from the oracle run (" + std::to_string(Checks) +
           ", " + std::to_string(Alarms) + ")";
  return "";
}

Report runCheckBatch(const Args &A, const Sizes &Z) {
  Report R;
  unsigned Lanes = lanes();
  unsigned Workers = std::min(CheckWorkers, Lanes);
  std::vector<BatchItem> Items;
  double Setup = medianSetup(SetupRepeats, [&](bool) {
    Items.clear();
    for (Input &In :
         generateInputs(paperSuite(Z.Check.Scale), Z.Check, A.Seed))
      Items.emplace_back(std::move(In.Name), std::move(In.Source));
  });
  R.note("check-batch: " + std::to_string(Items.size()) + " programs, " +
         describe("paperSuite", Z.Check) + ", runSharded Check=true with " +
         std::to_string(Workers) + " shard workers");

  ShardOptions SO;
  SO.Batch.Check = true;
  SO.Shards = Workers;
  Samples S;
  std::vector<ShardRunResult> Passes;
  double Start = nowSeconds();
  do {
    double T0 = nowSeconds(), C0 = cpuSeconds();
    Passes.push_back(runSharded(Items, SO));
    S.Walls.push_back(nowSeconds() - T0);
    S.Cpus.push_back(cpuSeconds() - C0);
  } while (!A.Trace && nowSeconds() - Start < A.Seconds);
  S.PeakMiB = peakRssMiB();

  // Oracle: every item once more outside the shards, checked against the
  // interpreter; every sharded pass must agree with it.  The traced run's
  // layer pass is that oracle run.
  std::vector<std::string> Verdicts(Items.size());
  Pipeline P = checkPipeline();
  auto Run = [&](SpanLog &Log, size_t I) {
    return layerProgram(Log, static_cast<uint32_t>(I + 1), Items[I].Source,
                        P);
  };
  if (A.Trace) {
    tracedPasses(
        R, A, Items.size(), P, Run,
        [&](size_t I, const LayerResult &LR) { return checkVerdict(A, I, LR); },
        [&](size_t I, const std::string &V) { Verdicts[I] = V; });
    addShardMetrics(R, &Passes.front(), Workers);
  } else {
    // No fork follows, so the oracle may use the thread pool.
    ThreadPool::global().parallelFor(Items.size(), Lanes, [&](size_t I) {
      SpanLog Quiet;
      Verdicts[I] = checkVerdict(A, I, Run(Quiet, I));
    });
  }
  for (const ShardRunResult &SR : Passes)
    for (size_t I = 0; I < Items.size(); ++I)
      R.O.record(Items[I].Name, compareItem(SR.Batch.Items[I], Verdicts[I]));
  unsigned Checks = 0, Alarms = 0;
  for (const BatchItemResult &It : Passes.front().Batch.Items) {
    Checks += It.Checks;
    Alarms += It.Alarms;
  }
  R.note("verdicts: " + std::to_string(Checks) + " checks, " +
         std::to_string(Alarms) + " non-Safe");
  if (!A.Trace)
    addEndToEnd(R, Setup, S);
  return R;
}

//===----------------------------------------------------------------------===//
// serve-edit
//===----------------------------------------------------------------------===//

/// A spa-serve child process.  The destructor stops and reaps it.
class Daemon {
public:
  Daemon(const std::string &Socket, unsigned Jobs) : Socket(Socket) {
    ::unlink(Socket.c_str());
    std::string Bin = binDir() + "/spa-serve";
    std::string SockArg = "--socket=" + Socket;
    std::string JobsArg = "--jobs=" + std::to_string(Jobs);
    std::fflush(stdout);
    std::fflush(stderr);
    Pid = ::fork();
    if (Pid == 0) {
      // The daemon must not outlive the benchmark, whatever stops it.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      int Null = ::open("/dev/null", O_RDWR);
      if (Null >= 0) {
        ::dup2(Null, STDOUT_FILENO);
        ::dup2(Null, STDERR_FILENO);
      }
      ::execl(Bin.c_str(), "spa-serve", SockArg.c_str(), JobsArg.c_str(),
              static_cast<char *>(nullptr));
      ::_exit(127);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Connects \p C once the daemon accepts connections; "" on success.
  std::string connect(serve::Client &C) {
    std::string Error;
    double Deadline = nowSeconds() + 30;
    while (nowSeconds() < Deadline) {
      if (Pid < 0 || ::waitpid(Pid, nullptr, WNOHANG) == Pid) {
        Pid = -1;
        return "spa-serve exited before accepting connections";
      }
      if (C.connect(Socket, Error) == serve::ServeErrc::None)
        return "";
      ::usleep(2000);
    }
    return "spa-serve did not accept connections: " + Error;
  }

  double peakMiB() const { return Pid > 0 ? processPeakMiB(Pid) : 0; }
  double cpuSeconds() const { return Pid > 0 ? processCpuSeconds(Pid) : 0; }

  /// Asks the daemon to exit, kills it after a grace period, and reaps it.
  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    for (int I = 0; I < 500 && Pid > 0; ++I) {
      if (::waitpid(Pid, nullptr, WNOHANG) == Pid)
        Pid = -1;
      else
        ::usleep(10000);
    }
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
      Pid = -1;
    }
    ::unlink(Socket.c_str());
  }

private:
  static std::string binDir() {
    char Buf[4096];
    ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
    std::string Self(Buf, N > 0 ? static_cast<size_t>(N) : 0);
    size_t Slash = Self.rfind('/');
    return Slash == std::string::npos ? "." : Self.substr(0, Slash);
  }

  std::string Socket;
  pid_t Pid = -1;
};

struct Edit {
  size_t Program = 0;
  std::string Text;
  double Latency = 0;
  serve::AnalyzeResponse Resp;
  std::string Error;
};

std::string responseError(serve::ServeErrc E, const std::string &Error,
                          const serve::AnalyzeResponse &Resp) {
  if (E != serve::ServeErrc::None)
    return std::string(serve::serveErrorName(E)) + ": " + Error;
  if (Resp.TimedOut || Resp.Degraded)
    return "degraded or timed out";
  return "";
}

Report runServeEdit(const Args &A, const Sizes &Z) {
  Report R;
  unsigned Lanes = lanes();
  std::string Socket =
      A.WorkDir + "/serve-" + std::to_string(::getpid()) + ".sock";
  std::vector<Input> Bases;
  std::unique_ptr<Daemon> D;
  serve::Client C;
  std::string SetupError;
  auto SetUp = [&](bool Keep) {
    Bases = generateInputs(paperSuite(Z.Serve.Scale), Z.Serve, A.Seed);
    D = std::make_unique<Daemon>(Socket, Lanes);
    C = serve::Client();
    SetupError = D->connect(C);
    for (size_t I = 0; SetupError.empty() && I < Bases.size(); ++I) {
      serve::AnalyzeRequest Req;
      Req.Program = Bases[I].Source;
      serve::AnalyzeResponse Resp;
      std::string Error;
      serve::ServeErrc E = C.analyze(Req, Resp, Error);
      R.O.record("prime " + Bases[I].Name, responseError(E, Error, Resp));
    }
    if (!Keep) {
      C = serve::Client();
      D.reset();
    }
  };
  double Setup = 0;
  if (A.Trace)
    SetUp(true);
  else
    Setup = medianSetup(ServeSetupRepeats, SetUp);
  if (!SetupError.empty()) {
    R.O.record("serve setup", SetupError);
    return R;
  }
  R.note("serve-edit: spa-serve --jobs=" + std::to_string(Lanes) +
         " primed with " + std::to_string(Bases.size()) + " programs, " +
         describe("paperSuite", Z.Serve) +
         "; one client, closed loop, rounds of one-function edits");

  // The edit stream: whole rounds, one edit per program, so every program
  // weighs the same in every pass.
  SpanLog Log;
  if (A.Trace)
    Log.enable();
  std::vector<std::string> Texts;
  for (const Input &In : Bases)
    Texts.push_back(In.Source);
  std::vector<Edit> Edits;
  std::vector<double> LatMs;
  Samples S;
  Rng EditRng(deriveSeed(A.Seed, 60, 0));
  double Start = nowSeconds();
  do {
    double C0 = cpuSeconds() + D->cpuSeconds();
    size_t First = Edits.size();
    for (size_t P = 0; P < Texts.size(); ++P) {
      applyEdit(Texts[P], EditRng, 100 + Edits.size());
      Edit E;
      E.Program = P;
      E.Text = Texts[P];
      serve::AnalyzeRequest Req;
      Req.Program = E.Text;
      serve::ServeErrc Code;
      {
        SpanScope Sp(Log, "serve.request",
                     static_cast<uint32_t>(Edits.size() + 1));
        double T0 = nowSeconds();
        Code = C.analyze(Req, E.Resp, E.Error);
        E.Latency = nowSeconds() - T0;
        Sp.count("server_s", E.Resp.WallSeconds);
        Sp.count("partitions_total", E.Resp.PartitionsTotal);
        Sp.count("partitions_reused", E.Resp.PartitionsReused);
        Sp.count("ledger_visits", static_cast<double>(E.Resp.LedgerVisits));
      }
      E.Error = responseError(Code, E.Error, E.Resp);
      LatMs.push_back(E.Latency * 1e3);
      Edits.push_back(std::move(E));
    }
    // A pass is one round: the client's time waiting for the answers, and
    // the CPU time of client and daemon together.
    double Wall = 0;
    for (size_t I = First; I < Edits.size(); ++I)
      Wall += Edits[I].Latency;
    S.Walls.push_back(Wall);
    S.Cpus.push_back(cpuSeconds() + D->cpuSeconds() - C0);
    // The resident cache grows with every edit up to its LRU bound, so
    // peak RSS is read at a fixed point of the stream: after round one.
    if (First == 0)
      S.PeakMiB = std::max(peakRssMiB(), D->peakMiB());
  } while (nowSeconds() - Start < A.Seconds);
  R.note("edit latency: p50 " + fmt("%.1f", quantile(LatMs, 0.5)) +
         " ms, p90 " + fmt("%.1f", quantile(LatMs, 0.9)) + " ms over " +
         std::to_string(LatMs.size()) + " edits");
  std::string Error;
  C.shutdown(Error);
  C = serve::Client();
  D.reset();

  if (A.Trace) {
    // In-process replay of the first round: the cold pipeline the daemon
    // runs for an edit of which it can reuse no partition.
    std::vector<std::string> Sources;
    for (size_t I = 0; I < Bases.size() && I < Edits.size(); ++I)
      Sources.push_back(Edits[I].Text);
    Pipeline P;
    P.Check = true;
    P.SnapEncode = true;
    P.Jobs = Lanes;
    tracedPasses(
        R, A, Sources.size(), P,
        [&](SpanLog &L, size_t I) {
          return layerProgram(L, static_cast<uint32_t>(I + 1), Sources[I], P);
        },
        [](size_t, const LayerResult &LR) { return LR.Error; },
        [&](size_t I, const std::string &V) {
          if (!V.empty())
            R.note("replay of edit " + std::to_string(I) + " failed: " + V);
        },
        Log.spans());
    addShardMetrics(R, nullptr, 0);
  }

  // Oracle: each warm answer's digest equals a cold in-process analysis
  // of the same edited text.  No fork follows, so it may use threads.
  std::vector<std::string> Mismatch(Edits.size());
  ThreadPool::global().parallelFor(Edits.size(), Lanes, [&](size_t I) {
    const Edit &E = Edits[I];
    if (!E.Error.empty())
      return;
    BuildResult B = buildProgramFromSource(E.Text);
    if (!B.ok()) {
      Mismatch[I] = B.Error;
      return;
    }
    AnalysisRun Cold = analyzeProgram(*B.Prog, AnalyzerOptions());
    if (serve::hashSparseStates(*Cold.Sparse) != E.Resp.ResultDigest)
      Mismatch[I] = "warm digest differs from a cold analysis";
  });
  for (size_t I = 0; I < Edits.size(); ++I)
    R.O.record("edit " + std::to_string(I) + " of " +
                   Bases[Edits[I].Program].Name,
               Edits[I].Error.empty() ? Mismatch[I] : Edits[I].Error);
  if (!A.Trace)
    addEndToEnd(R, Setup, S);
  return R;
}

//===----------------------------------------------------------------------===//
// octagon
//===----------------------------------------------------------------------===//

/// What `spa-analyze --domain=octagon` configures: sparse engine, default
/// backend, bypass off (exit invariants read the input buffers).
OctOptions octOptions() {
  OctOptions O;
  O.Engine = EngineKind::Sparse;
  O.Dep.Bypass = false;
  return O;
}

std::string checkOct(const Args &A, size_t Index, const Program &Prog,
                     const OctRun &Run) {
  if (Run.timedOut())
    return "timed out";
  if (Run.degraded())
    return "degraded result";
  for (unsigned K = 0; K < OracleInputs; ++K) {
    std::string V =
        checkOctRun(Prog, Run, deriveSeed(A.Seed, 200, Index * 8 + K));
    if (!V.empty())
      return V;
  }
  return "";
}

struct OctResult {
  std::unique_ptr<Program> Prog;
  std::optional<OctRun> Run;
  std::string Error;
};

/// The octagon layers under spans.  runOctAnalysis is one public call;
/// its phase split comes from OctRun's own fields, and the closure count
/// from the registry counter it bumps.
OctResult octProgram(SpanLog &Log, uint32_t RunId, const std::string &Source) {
  OctResult Out;
  DomainStats Domains = DomainStats::now();
  SpanScope Root(Log, "program", RunId);
  Out.Prog = frontEnd(Log, Source, Out.Error);
  if (!Out.Prog)
    return Out;
  {
    SpanScope S(Log, "oct.analyze");
    obs::Registry &Reg = obs::Registry::global();
    double Closures = Reg.value("oct.closures");
    Out.Run.emplace(runOctAnalysis(*Out.Prog, octOptions()));
    const OctRun &Run = *Out.Run;
    S.count("closures", Reg.value("oct.closures") - Closures);
    S.count("pre_s", Run.PreSeconds);
    S.count("defuse_s", Run.DefUseSeconds);
    S.count("depbuild_s", Run.Graph ? Run.Graph->BuildSeconds : 0);
    S.count("fix_s", Run.fixSeconds());
    S.count("nodes", Run.Graph ? double(Run.Graph->numNodes()) : 0);
    S.count("visits", Run.Sparse ? double(Run.Sparse->Visits) : 0);
  }
  countDomains(Root, Domains);
  return Out;
}

Report runOctagon(const Args &A, const Sizes &Z) {
  Report R;
  std::vector<Input> Inputs;
  double Setup = medianSetup(SetupRepeats, [&](bool) {
    Inputs = generateInputs(octagonSuite(Z.Oct.Scale), Z.Oct, A.Seed);
  });
  R.note("octagon: " + std::to_string(Inputs.size()) + " programs, " +
         describe("octagonSuite", Z.Oct) +
         ", runOctAnalysis sparse, bypass off, one process per program");
  auto Name = [&](size_t I) { return Inputs[I].Name; };

  if (A.Trace) {
    Pipeline P;
    P.Bypass = false;
    tracedPasses(
        R, A, Inputs.size(), P,
        [&](SpanLog &Log, size_t I) {
          return octProgram(Log, static_cast<uint32_t>(I + 1),
                            Inputs[I].Source);
        },
        [&](size_t I, const OctResult &Res) {
          return Res.Run ? checkOct(A, I, *Res.Prog, *Res.Run) : Res.Error;
        },
        [&](size_t I, const std::string &V) { R.O.record(Name(I), V); });
    addShardMetrics(R, nullptr, 0);
    return R;
  }

  struct Result {
    BuildResult B;
    std::optional<OctRun> Run;
  };
  Samples S = programPasses(
      R, A, Inputs.size(),
      [&](size_t I) {
        Result Res{buildProgramFromSource(Inputs[I].Source), std::nullopt};
        if (Res.B.ok())
          Res.Run.emplace(runOctAnalysis(*Res.B.Prog, octOptions()));
        return Res;
      },
      [&](size_t I, const Result &Res) {
        return Res.B.ok() ? checkOct(A, I, *Res.B.Prog, *Res.Run)
                          : Res.B.Error;
      },
      Name);
  addEndToEnd(R, Setup, S);
  return R;
}

//===----------------------------------------------------------------------===//
// main
//===----------------------------------------------------------------------===//

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--smoke") {
      A.Smoke = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    const char *V = Argv[++I];
    if (Arg == "--workload")
      A.Workload = V;
    else if (Arg == "--seed")
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seconds")
      A.Seconds = std::atof(V);
    else if (Arg == "--trace")
      A.Trace = std::atoi(V) != 0;
    else if (Arg == "--work-dir")
      A.WorkDir = V;
    else
      return false;
  }
  return !A.Workload.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: spa-perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--smoke]\n");
    return 2;
  }
  // A daemon dying mid-request must surface as a typed client error.
  std::signal(SIGPIPE, SIG_IGN);

  Sizes Z;
  if (A.Smoke)
    Z = {{0.02, 1}, {0.02, 1}, {0.02, 1}, {0.04, 1}};
  Report R;
  if (A.Workload == "interval")
    R = runInterval(A, Z);
  else if (A.Workload == "check-batch")
    R = runCheckBatch(A, Z);
  else if (A.Workload == "serve-edit")
    R = runServeEdit(A, Z);
  else if (A.Workload == "octagon")
    R = runOctagon(A, Z);
  else {
    std::fprintf(stderr, "spa-perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }

  std::printf("# workload=%s seed=%llu trace=%d nproc=%u lanes=%u build=%s\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Trace ? 1 : 0, std::thread::hardware_concurrency(), lanes(),
              PERFBENCH_BUILD_TYPE);
  for (const std::string &N : R.Notes)
    std::printf("# %s\n", N.c_str());
  for (const Metric &M : R.Metrics)
    std::printf("%-38s %18.6f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.O.Failed ? "false" : "true",
              static_cast<unsigned long long>(R.O.Attempted),
              static_cast<unsigned long long>(R.O.Failed));
  for (size_t I = 0; I < R.Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", R.Metrics[I].Name.c_str(), R.Metrics[I].Value,
                R.Metrics[I].Unit.c_str());
  std::printf("}}\n");
  return R.O.Failed || R.O.Attempted == 0 ? 1 : 0;
}
