//===- Service.cpp - Resident incremental analysis service ----------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Service.h"

#include "core/Checker.h"
#include "core/DepSnapshot.h"
#include "core/Fixpoint.h"
#include "ir/Builder.h"
#include "ir/Snapshot.h"
#include "obs/Journal.h"
#include "obs/MetricsSink.h"
#include "obs/Trace.h"
#include "support/ByteIO.h"
#include "support/Resource.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace spa;
using namespace spa::serve;

namespace {

/// Incremental FNV-1a accumulator for the structured hashes below.
struct Fnv {
  uint64_t H = FnvOffsetBasis;

  void bytes(const void *Data, size_t Len) { H = fnv1a64(Data, Len, H); }
  void u8(uint8_t V) { bytes(&V, 1); }
  void u32(uint32_t V) { bytes(&V, 4); }
  void u64(uint64_t V) { bytes(&V, 8); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void f64(double V) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V), "double width");
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
};

//===----------------------------------------------------------------------===//
// Partition signatures
//===----------------------------------------------------------------------===//
//
// A partition's signature covers everything the sparse fixpoint reads
// about its nodes: commands (with callee bindings for call plumbing),
// def/use sets, widening flags, scheduling priority *ranks*, the
// dependency edges, and the T̂pre block sizes that bound the widening on
// them — with cross-references remapped to member indices so
// a partition keeps its signature when unrelated code above it shifts
// node ids... which it deliberately does NOT do for LocIds: abstract
// values embed raw LocIds (points-to sets), so two partitions are only
// interchangeable when their locations are *identical*, not isomorphic.
// In practice edits keep the ids of untouched declarations stable (the
// builder numbers locations in declaration order), which is what makes
// partition reuse fire on single-function edits.

void hashExpr(Fnv &F, const IExpr &E) {
  F.u8(static_cast<uint8_t>(E.Kind));
  switch (E.Kind) {
  case IExprKind::Num:
    F.i64(E.Num);
    break;
  case IExprKind::Var:
  case IExprKind::AddrOf:
  case IExprKind::Deref:
    F.u32(E.Loc.value());
    break;
  case IExprKind::Binary:
    F.u8(static_cast<uint8_t>(E.Op));
    hashExpr(F, *E.Lhs);
    hashExpr(F, *E.Rhs);
    break;
  case IExprKind::Input:
    break;
  case IExprKind::FuncAddr:
    F.u32(E.Func.value());
    break;
  }
}

/// Hashes one command.  \p IdxOf maps graph point node -> member index
/// within the partition (UINT32_MAX for non-members); the Call/Return
/// pair pointer is remapped through it so a partition's signature
/// survives point-id shifts in *other* functions.
void hashCommand(Fnv &F, const Command &C,
                 const std::vector<uint32_t> &IdxOf) {
  F.u8(static_cast<uint8_t>(C.Kind));
  F.u32(C.Target.value());
  F.u8(C.E != nullptr);
  if (C.E)
    hashExpr(F, *C.E);
  F.u8(C.Cnd != nullptr);
  if (C.Cnd) {
    F.u8(static_cast<uint8_t>(C.Cnd->Op));
    hashExpr(F, *C.Cnd->Lhs);
    hashExpr(F, *C.Cnd->Rhs);
  }
  F.u32(C.AllocSite.value());
  F.u32(C.DirectCallee.value());
  F.u8(C.External ? 1 : 0);
  F.u32(static_cast<uint32_t>(C.Args.size()));
  for (const auto &A : C.Args)
    hashExpr(F, *A);
  if (C.Pair.isValid() && C.Pair.value() < IdxOf.size() &&
      IdxOf[C.Pair.value()] != UINT32_MAX) {
    F.u8(1);
    F.u32(IdxOf[C.Pair.value()]);
  } else {
    F.u8(0);
    F.u32(C.Pair.value());
  }
}

/// Hashes an interval.  Canonical bottom: isBot() admits any Lo > Hi
/// representation but operator== treats them all equal, so the digest
/// must too.
void hashItv(Fnv &F, const Interval &I) {
  if (I.isBot()) {
    F.i64(bound::PosInf);
    F.i64(bound::NegInf);
  } else {
    F.i64(I.lo());
    F.i64(I.hi());
  }
}

void hashLocList(Fnv &F, const Program &Prog, std::span<const LocId> Ls) {
  F.u32(static_cast<uint32_t>(Ls.size()));
  for (LocId L : Ls) {
    F.u32(L.value());
    // Strong-update legality depends on the location's summary-ness,
    // which the transfer reads through Prog.loc(); fold it in so a
    // changed declaration kind invalidates the partitions touching it.
    F.u8(static_cast<uint8_t>(Prog.loc(L).Kind));
  }
}

struct PartitionInfo {
  std::vector<std::vector<uint32_t>> Members; ///< Per comp, ascending ids.
  std::vector<uint64_t> Sigs;
};

/// Fixed prefix folded into every signature: the option knobs that
/// change what the fixpoint computes.  Two daemons configured
/// differently must never adopt each other's partitions (they do not
/// share a cache today, but the salt also protects a daemon whose
/// options change across restarts against externally persisted state).
uint64_t optionsSalt(const AnalyzerOptions &Opts) {
  Fnv F;
  F.u32(Opts.WideningDelay);
  F.u8(Opts.Sem.StrongUpdates ? 1 : 0);
  F.u8(static_cast<uint8_t>(Opts.Pre));
  F.u8(static_cast<uint8_t>(Opts.Dep.Kind));
  F.u8(Opts.Dep.Bypass ? 1 : 0);
  F.u8(Opts.Dep.UseBdd ? 1 : 0);
  F.u8(Opts.Budget.enabled() ? 1 : 0);
  return F.H;
}

/// \p Bound is the state the sparse widening meets widened block sizes
/// with (SparseOptions::DegradeTo; null = unbounded).
PartitionInfo computePartitions(const Program &Prog, const CallGraphInfo &CG,
                                const SparseGraph &Graph,
                                const AbsState *Bound, uint64_t Salt) {
  PartitionInfo P;
  DepComponents DC = computeDepComponents(Prog, Graph);
  size_t N = Graph.numNodes();
  P.Members.resize(DC.NumComps);
  for (uint32_t Node = 0; Node < N; ++Node)
    P.Members[DC.CompOfNode[Node]].push_back(Node); // Ascending by loop.

  // The engine's own schedule (core/Fixpoint.h).
  SparseSchedule Sched = computeSparseSchedule(Prog, CG, Graph);
  const std::vector<uint32_t> &Prio = Sched.Prio;

  // Member-index map, rebuilt per component (only member slots are ever
  // read, so stale non-member slots from the previous component are
  // harmless — but reset them anyway to keep the invariant checkable).
  std::vector<uint32_t> IdxOf(N, UINT32_MAX);

  P.Sigs.resize(DC.NumComps);
  for (uint32_t C = 0; C < DC.NumComps; ++C) {
    const std::vector<uint32_t> &M = P.Members[C];
    for (uint32_t K = 0; K < M.size(); ++K)
      IdxOf[M[K]] = K;

    // Priority *ranks*: the worklist only compares priorities, so the
    // schedule depends on their relative order within the component, not
    // their absolute values (which shift whenever earlier functions
    // change size).  Dense-rank them: equal priorities share a rank.
    std::vector<uint32_t> SortedPrio;
    SortedPrio.reserve(M.size());
    for (uint32_t Node : M)
      SortedPrio.push_back(Prio[Node]);
    std::sort(SortedPrio.begin(), SortedPrio.end());
    SortedPrio.erase(std::unique(SortedPrio.begin(), SortedPrio.end()),
                     SortedPrio.end());
    auto RankOf = [&](uint32_t Pr) {
      return static_cast<uint32_t>(
          std::lower_bound(SortedPrio.begin(), SortedPrio.end(), Pr) -
          SortedPrio.begin());
    };

    Fnv F;
    F.u64(Salt);
    F.u32(static_cast<uint32_t>(M.size()));
    for (uint32_t Node : M) {
      if (Graph.isPhi(Node)) {
        const PhiNode &Phi = Graph.phi(Node);
        F.u8(1);
        // The join point is always in the same component; remap it.
        F.u32(IdxOf[Phi.At.value()]);
        F.u32(Phi.L.value());
        F.u8(static_cast<uint8_t>(Prog.loc(Phi.L).Kind));
      } else {
        F.u8(0);
        const Command &Cmd = Prog.point(PointId(Node)).Cmd;
        hashCommand(F, Cmd, IdxOf);
        // Call/Return plumbing reads the callee list and each callee's
        // parameter/return bindings from outside the command itself.
        PointId CallPt;
        if (Cmd.Kind == CmdKind::Call)
          CallPt = PointId(Node);
        else if (Cmd.Kind == CmdKind::Return)
          CallPt = Cmd.Pair;
        if (CallPt.isValid()) {
          const std::vector<FuncId> &Cs = CG.callees(CallPt);
          F.u32(static_cast<uint32_t>(Cs.size()));
          for (FuncId Callee : Cs) {
            const FunctionInfo &FI = Prog.function(Callee);
            F.u32(static_cast<uint32_t>(FI.Params.size()));
            for (LocId L : FI.Params)
              F.u32(L.value());
            F.u32(FI.RetSlot.value());
          }
        }
      }
      hashLocList(F, Prog, Graph.defs(Node));
      hashLocList(F, Prog, Graph.uses(Node));
      F.u8(Sched.WidenNode[Node] ? 1 : 0);
      F.u32(RankOf(Prio[Node]));

      // Dependency edges, destination remapped (components are closed,
      // so every destination is a member).  Collected and sorted to be
      // independent of the storage backend's enumeration order.
      // An edge that may widen (the engine's test in core/Fixpoint.h)
      // meets the widened size with Bound's at its location: a
      // flow-insensitive join over every write in the program, which an
      // edit outside the component can move, so it is hashed too.
      std::vector<std::pair<uint32_t, uint32_t>> Edges;
      std::vector<LocId> Bounded;
      Graph.Edges->forEachOut(Node, [&](LocId L, uint32_t Dst) {
        Edges.emplace_back(L.value(), IdxOf[Dst]);
        if (Bound && (Sched.WidenNode[Dst] || Prio[Node] >= Prio[Dst]))
          Bounded.push_back(L);
      });
      std::sort(Edges.begin(), Edges.end());
      F.u32(static_cast<uint32_t>(Edges.size()));
      for (const auto &[L, Dst] : Edges) {
        F.u32(L);
        F.u32(Dst);
      }
      std::sort(Bounded.begin(), Bounded.end());
      Bounded.erase(std::unique(Bounded.begin(), Bounded.end()),
                    Bounded.end());
      F.u32(static_cast<uint32_t>(Bounded.size()));
      for (LocId L : Bounded)
        hashItv(F, Bound->get(L).Size);
    }
    P.Sigs[C] = F.H;

    for (uint32_t Node : M)
      IdxOf[Node] = UINT32_MAX;
  }
  return P;
}

void hashValue(Fnv &F, const Value &V) {
  hashItv(F, V.Itv);
  hashItv(F, V.Offset);
  hashItv(F, V.Size);
  F.u32(static_cast<uint32_t>(V.Pts.size()));
  for (LocId L : V.Pts)
    F.u32(L.value());
  F.u32(static_cast<uint32_t>(V.Funcs.size()));
  for (FuncId G : V.Funcs)
    F.u32(G.value());
}

void hashState(Fnv &F, const AbsState &S) {
  F.u32(static_cast<uint32_t>(S.size()));
  for (const auto &[L, V] : S) { // FlatMap iterates sorted by LocId.
    F.u32(L.value());
    hashValue(F, V);
  }
}

/// Rough resident-size estimate of a cache entry (LRU accounting only;
/// no correctness rides on it).
uint64_t estimateEntryBytes(const CacheEntry &E) {
  uint64_t B = sizeof(CacheEntry);
  for (const AbsState &S : E.In)
    B += sizeof(AbsState) + S.size() * (sizeof(LocId) + sizeof(Value));
  for (const AbsState &S : E.Out)
    B += sizeof(AbsState) + S.size() * (sizeof(LocId) + sizeof(Value));
  for (const auto &M : E.Members)
    B += M.size() * sizeof(uint32_t);
  B += E.Sigs.size() * sizeof(uint64_t);
  B += E.Resp.AlarmsText.size() + E.Resp.InvariantsText.size();
  return B;
}

/// One line per non-safe check, indented exactly like the cold
/// `spa-analyze --check` listing so clients can print it verbatim.
std::string renderAlarms(const Program &Prog, const CheckerSummary &Sum) {
  std::string Out;
  for (const AccessCheck &C : Sum.Checks)
    if (C.Result != AccessCheck::Verdict::Safe) {
      Out += "  ";
      Out += C.str(Prog);
      Out += '\n';
    }
  return Out;
}

/// main's exit invariants, byte-identical to cold `spa-analyze` output
/// so the client can print the response verbatim.
std::string renderInvariants(const Program &Prog, const SparseResult &R) {
  std::string Out = "invariants at main's exit:\n";
  FuncId Main = Prog.mainFunc();
  if (!Main.isValid())
    return Out;
  PointId Exit = Prog.function(Main).Exit;
  char Line[512];
  for (const auto &[L, V] : R.In[Exit.value()]) {
    std::snprintf(Line, sizeof(Line), "  %-16s = %s\n",
                  Prog.loc(L).Name.c_str(), V.str().c_str());
    Out += Line;
  }
  return Out;
}

} // namespace

uint64_t spa::serve::hashSparseStates(const SparseResult &R) {
  Fnv F;
  F.u32(static_cast<uint32_t>(R.In.size()));
  for (const AbsState &S : R.In)
    hashState(F, S);
  for (const AbsState &S : R.Out)
    hashState(F, S);
  F.u8(R.Degraded ? 1 : 0);
  F.u32(static_cast<uint32_t>(R.DegradedNodeIds.size()));
  for (uint32_t Node : R.DegradedNodeIds)
    F.u32(Node);
  return F.H;
}

Service::Service(ServiceOptions O) : Opts(std::move(O)) {
  // Partition reuse is a property of the sparse engine's dependency
  // components, and those only separate under the bypass contraction:
  // without it every local threads through _start's entry node and the
  // whole program is one component.  So the server analyzes exactly the
  // way a default `spa-analyze` run does (bypass on, widening bounded by
  // T̂pre), and checks on that run, as `spa-analyze --check` does, so
  // served verdicts equal cold ones (docs/SERVER.md; tests/server_test.cpp
  // pins it).  The checker reads pointer operands only at points that use
  // them, which the contraction keeps.  Keeping the options fixed also
  // makes cache entries independent of the per-request check flag.
  Opts.Analyzer.Engine = EngineKind::Sparse;
  StartMicros = obs::obsNowMicros();
  LastTelemetryMicros = StartMicros;
}

Service::~Service() = default;

void Service::touch(CacheEntry &E) { E.LastUse = ++Tick; }

void Service::exportCacheGauges() {
  SPA_OBS_GAUGE_SET("serve.cache.entries", Entries.size());
  SPA_OBS_GAUGE_SET("serve.cache.bytes", TotalBytes);
}

void Service::evictToBudget() {
  while (!Entries.empty() && (TotalBytes > Opts.MaxCacheBytes ||
                              Entries.size() > Opts.MaxCacheEntries)) {
    auto Victim = Entries.begin();
    for (auto It = Entries.begin(); It != Entries.end(); ++It)
      if (It->second->LastUse < Victim->second->LastUse)
        Victim = It;
    uint64_t Digest = Victim->first;
    uint64_t Bytes = Victim->second->Bytes;
    for (auto It = SigIndex.begin(); It != SigIndex.end();)
      It = It->second.first == Digest ? SigIndex.erase(It) : std::next(It);
    for (auto It = SrcMemo.begin(); It != SrcMemo.end();)
      It = It->second == Digest ? SrcMemo.erase(It) : std::next(It);
    TotalBytes -= Bytes;
    Entries.erase(Victim);
    SPA_OBS_COUNT("serve.cache.evictions", 1);
    SPA_OBS_JOURNAL(ServeEvict, Digest, Bytes);
  }
}

void Service::insertEntry(std::unique_ptr<CacheEntry> E, uint64_t SrcDigest) {
  uint64_t Digest = E->ProgDigest;
  E->Bytes = estimateEntryBytes(*E);
  TotalBytes += E->Bytes;
  touch(*E);
  for (uint32_t C = 0; C < E->Sigs.size(); ++C)
    SigIndex.emplace(E->Sigs[C], std::make_pair(Digest, C));
  SrcMemo[SrcDigest] = Digest;
  Entries[Digest] = std::move(E);
  evictToBudget();
  exportCacheGauges();
}

double Service::uptimeSeconds() const {
  return (obs::obsNowMicros() - StartMicros) / 1e6;
}

std::string Service::statsJson() const {
  std::string Out = "{\n  \"schema\": \"spa-serve-stats-v1\",\n";
  Out += "  \"uptime_seconds\": " +
         obs::MetricsSink::formatValue(uptimeSeconds()) + ",\n";
  Out += "  \"epoch_ns\": " + std::to_string(obs::obsEpochNanos()) + ",\n";
  Out += "  \"cache\": {\"entries\": " + std::to_string(Entries.size()) +
         ", \"bytes\": " + std::to_string(TotalBytes) + "},\n";
  Out += "  \"metrics\": " +
         obs::MetricsSink::toJson(obs::Registry::global()) + "\n}\n";
  return Out;
}

std::string Service::statsProm() const {
  return obs::Registry::global().renderProm();
}

std::string Service::telemetryJson() {
  SPA_OBS_COUNT("telemetry.frames", 1);
  double Now = obs::obsNowMicros();
  double IntervalSec = (Now - LastTelemetryMicros) / 1e6;
  LastTelemetryMicros = Now;

  // serve.* counter deltas against the previous frame's baseline.
  std::vector<std::pair<std::string, double>> Deltas;
  obs::Registry::global().forEachInstrument(
      [&](const std::string &Name, const obs::Counter &C) {
        if (Name.rfind("serve.", 0) != 0)
          return;
        double V = static_cast<double>(C.value());
        double D = V - LastCounters[Name];
        LastCounters[Name] = V;
        Deltas.emplace_back(Name, D);
      },
      [](const std::string &, const obs::Gauge &) {});

  double Requests = obs::Registry::global().value("serve.requests");
  double Hits = obs::Registry::global().value("serve.cache.hits");
  double ReqDelta = 0;
  for (const auto &[Name, D] : Deltas)
    if (Name == "serve.requests")
      ReqDelta = D;

  auto Num = [](double V) { return obs::MetricsSink::formatValue(V); };
  std::string Out = "{\n  \"schema\": \"spa-serve-telemetry-v1\",\n";
  Out += "  \"seq\": " + std::to_string(++TelemetrySeq) + ",\n";
  Out += "  \"uptime_seconds\": " + Num(uptimeSeconds()) + ",\n";
  Out += "  \"interval_seconds\": " + Num(IntervalSec) + ",\n";
  Out += "  \"requests_total\": " + Num(Requests) + ",\n";
  Out += "  \"requests_delta\": " + Num(ReqDelta) + ",\n";
  Out += "  \"request_rate\": " +
         Num(IntervalSec > 0 ? ReqDelta / IntervalSec : 0) + ",\n";
  Out += "  \"hit_ratio\": " + Num(Requests > 0 ? Hits / Requests : 0) + ",\n";
  Out += "  \"cache_entries\": " + std::to_string(Entries.size()) + ",\n";
  Out += "  \"cache_bytes\": " + std::to_string(TotalBytes) + ",\n";
  Out += "  \"partitions_resolved\": " +
         Num(obs::Registry::global().value("serve.partitions.resolved")) +
         ",\n";
  Out += "  \"counters\": {";
  bool First = true;
  for (const auto &[Name, D] : Deltas) {
    Out += First ? "" : ", ";
    First = false;
    Out += "\"" + Name + "\": " + Num(D);
  }
  Out += "}\n}\n";
  return Out;
}

ServeErrc Service::analyze(const AnalyzeRequest &Req, AnalyzeResponse &Resp,
                           std::string &Error) {
  Timer Wall;
  // Per-request observability scoping: last-value gauges restart, while
  // monotone serve.* counters keep accumulating for --serve-stats.
  obs::Registry::global().resetGauges();
  SPA_OBS_COUNT("serve.requests", 1);
  uint64_t ReqId = ++RequestSeq;
  // Request-scoped span tree: everything the pipeline records below
  // (build, fixpoint, checker spans) nests under this root; the daemon
  // retains the tree in the tracer's bounded ring (tools/spa-serve.cpp
  // sets the capacity).
  SPA_OBS_TRACE("serve.request");

  if (Opts.FaultArmed) {
    // One-shot injected fault (SPA_FAULT): fail THIS request with a
    // typed error, then disarm — the lifecycle test asserts the daemon
    // survives and the next request succeeds.  The abort event keeps the
    // journal honest about the per-request gauges the recovery dropped:
    // resetGauges() above started the request's gauge scope, but no
    // ServeRequest record will ever follow for this id.
    Opts.FaultArmed = false;
    SPA_OBS_COUNT("serve.faults.injected", 1);
    SPA_OBS_JOURNAL(ServeAbort, ReqId, 0);
    Error = "injected fault (SPA_FAULT armed at daemon start)";
    return ServeErrc::Injected;
  }

  const bool Incremental =
      Opts.Incremental && !(Req.Flags & ReqFlagNoIncremental);

  auto FinishHit = [&](CacheEntry &E) {
    touch(E);
    Resp = E.Resp;
    Resp.CacheHit = 1;
    Resp.PartitionsReused = Resp.PartitionsTotal;
    Resp.PartitionsSolved = 0;
    SPA_OBS_COUNT("serve.cache.hits", 1);
    SPA_OBS_GAUGE_SET("serve.partitions.total", Resp.PartitionsTotal);
    SPA_OBS_GAUGE_SET("serve.partitions.reused", Resp.PartitionsReused);
    SPA_OBS_GAUGE_SET("serve.partitions.resolved", 0);
    SPA_OBS_JOURNAL(ServeCacheHit, E.ProgDigest, Resp.PartitionsTotal);
    exportCacheGauges();
    Resp.WallSeconds = Wall.seconds();
    SPA_OBS_GAUGE_SET("serve.request.seconds", Resp.WallSeconds);
    Resp.MetricsJson = obs::MetricsSink::toJson(obs::Registry::global());
    return ServeErrc::None;
  };

  // Fast path: byte-identical request (the repeated-CI-request case) —
  // skip even the parse.  Keyed on the raw bytes plus the snapshot flag,
  // which changes how they are interpreted.
  uint64_t SrcDigest =
      fnv1a64(Req.Program.data(), Req.Program.size(),
              (Req.Flags & ReqFlagSnapshot) ? 0x9e3779b9ull : FnvOffsetBasis);
  if (Incremental) {
    auto MIt = SrcMemo.find(SrcDigest);
    if (MIt != SrcMemo.end()) {
      auto EIt = Entries.find(MIt->second);
      if (EIt != Entries.end())
        return FinishHit(*EIt->second);
    }
  }

  // Materialize the program.
  std::unique_ptr<Program> Prog;
  SparseGraph DecodedGraph;
  bool HaveDecodedGraph = false;
  if (Req.Flags & ReqFlagSnapshot) {
    SnapshotLoadResult L = loadSnapshot(
        reinterpret_cast<const uint8_t *>(Req.Program.data()),
        Req.Program.size());
    if (!L.ok()) {
      Error = L.Error.str();
      return ServeErrc::SnapshotError;
    }
    Prog = std::move(L.Prog);
    if (L.HasDepGraph) {
      DepSnapshotResult Dec = decodeDepGraph(*Prog, L.DepGraph);
      if (depSnapshotUsable(Dec, Opts.Analyzer.Dep)) {
        DecodedGraph = std::move(Dec.Graph);
        HaveDecodedGraph = true;
        SPA_OBS_COUNT("serve.depgraph.warm_starts", 1);
      }
    }
  } else {
    BuildResult BR = buildProgramFromSource(Req.Program);
    if (!BR.ok()) {
      Error = BR.Error;
      return ServeErrc::BuildError;
    }
    Prog = std::move(BR.Prog);
  }

  // Canonical content digest: the deterministic snapshot encoding, so
  // source text and snapshot requests for the same program share one
  // cache entry.
  std::vector<uint8_t> Canon = saveSnapshot(*Prog);
  uint64_t ProgDigest = fnv1a64(Canon.data(), Canon.size());
  Canon.clear();
  Canon.shrink_to_fit();
  Resp = AnalyzeResponse{};
  Resp.ProgramDigest = ProgDigest;

  if (Incremental) {
    auto EIt = Entries.find(ProgDigest);
    if (EIt != Entries.end()) {
      SrcMemo[SrcDigest] = ProgDigest;
      return FinishHit(*EIt->second);
    }
  }
  SPA_OBS_COUNT("serve.cache.misses", 1);

  AnalyzerOptions AOpts = Opts.Analyzer;
  if (Req.Jobs)
    AOpts.Jobs = Req.Jobs;
  if (HaveDecodedGraph)
    AOpts.PrebuiltGraph = &DecodedGraph;

  // Incremental hook state: partitions of the new program, the restrict
  // list handed to the engine (must outlive analyzeProgram), and the
  // (new comp -> cached comp) adoption plan.
  PartitionInfo Parts;
  std::vector<uint32_t> Restrict;
  struct Adoption {
    uint32_t Comp;              ///< Component index in the new program.
    const CacheEntry *From;
    uint32_t FromComp;
  };
  std::vector<Adoption> Adoptions;
  uint64_t Salt = optionsSalt(Opts.Analyzer);

  if (Incremental) {
    AOpts.BeforeSparseFix = [&](const AnalysisRun &Run,
                                SparseOptions &SOpts) {
      Parts = computePartitions(*Prog, Run.Pre.CG, *Run.Graph,
                                SOpts.DegradeTo, Salt);
      bool AnyReuse = false;
      for (uint32_t C = 0; C < Parts.Sigs.size(); ++C) {
        const CacheEntry *Found = nullptr;
        uint32_t FoundComp = 0;
        auto Range = SigIndex.equal_range(Parts.Sigs[C]);
        for (auto It = Range.first; It != Range.second; ++It) {
          auto EIt = Entries.find(It->second.first);
          if (EIt == Entries.end())
            continue;
          const CacheEntry &Cand = *EIt->second;
          uint32_t CC = It->second.second;
          // Validate before committing: a hash collision with a
          // different-sized partition must fall through to a re-solve.
          if (CC < Cand.Members.size() &&
              Cand.Members[CC].size() == Parts.Members[C].size()) {
            Found = &Cand;
            FoundComp = CC;
            break;
          }
        }
        if (Found) {
          Adoptions.push_back({C, Found, FoundComp});
          AnyReuse = true;
        } else {
          Restrict.insert(Restrict.end(), Parts.Members[C].begin(),
                          Parts.Members[C].end());
        }
      }
      if (AnyReuse) {
        std::sort(Restrict.begin(), Restrict.end());
        SOpts.RestrictNodes = &Restrict;
      } else {
        Restrict.clear();
      }
    };
  }

  AnalysisRun Run = analyzeProgram(*Prog, AOpts);
  if (!Run.Sparse) {
    Error = "analysis produced no sparse result";
    return ServeErrc::ServerError;
  }
  SparseResult &R = *Run.Sparse;

  // Adopt the untouched partitions' buffers from cache: the i-th member
  // of the new component corresponds to the i-th member of the cached
  // one (both ascending, equal count checked above).  COW states make
  // each copy O(1).
  for (const Adoption &A : Adoptions) {
    const std::vector<uint32_t> &NewM = Parts.Members[A.Comp];
    const std::vector<uint32_t> &OldM = A.From->Members[A.FromComp];
    for (size_t K = 0; K < NewM.size(); ++K) {
      R.In[NewM[K]] = A.From->In[OldM[K]];
      R.Out[NewM[K]] = A.From->Out[OldM[K]];
    }
    SPA_OBS_JOURNAL(ServeCacheHit, A.From->ProgDigest, 1);
  }

  uint32_t Total = Incremental ? static_cast<uint32_t>(Parts.Sigs.size()) : 0;
  uint32_t Reused = static_cast<uint32_t>(Adoptions.size());
  if (!Incremental) {
    // The ablation run never computes partitions; report the whole
    // program as one solved unit so the fields stay meaningful.
    Total = 1;
  }
  Resp.PartitionsTotal = Total;
  Resp.PartitionsReused = Reused;
  Resp.PartitionsSolved = Total - Reused;
  Resp.Degraded = Run.degraded() ? 1 : 0;
  Resp.TimedOut = Run.timedOut() ? 1 : 0;
  Resp.ResultDigest = hashSparseStates(R);

  CheckerSummary Sum = checkBufferOverruns(*Prog, Run);
  Resp.Checks = static_cast<uint32_t>(Sum.Checks.size());
  Resp.Alarms = Sum.numAlarms();
  Resp.AlarmsText = renderAlarms(*Prog, Sum);
  Resp.InvariantsText = renderInvariants(*Prog, R);

  if (Run.Ledger) {
    obs::PointCost Totals = Run.Ledger->totals();
    Resp.LedgerVisits = Totals.Visits;
    Resp.LedgerGrowth = Totals.Growth;
  }

  SPA_OBS_GAUGE_SET("serve.partitions.total", Resp.PartitionsTotal);
  SPA_OBS_GAUGE_SET("serve.partitions.reused", Resp.PartitionsReused);
  SPA_OBS_GAUGE_SET("serve.partitions.resolved", Resp.PartitionsSolved);
  SPA_OBS_JOURNAL(ServeRequest, ProgDigest, Resp.PartitionsSolved);

  // Cache the solution.  Degraded runs are NOT cached: their states
  // depend on where the budget tripped, which is not a function of the
  // program content the signature covers.
  if (Incremental && !Resp.Degraded) {
    auto E = std::make_unique<CacheEntry>();
    E->ProgDigest = ProgDigest;
    E->In = std::move(R.In);
    E->Out = std::move(R.Out);
    E->Members = std::move(Parts.Members);
    E->Sigs = std::move(Parts.Sigs);
    E->Resp = Resp; // Template; per-request fields fixed up on hit.
    E->Resp.WallSeconds = 0;
    E->Resp.MetricsJson.clear();
    insertEntry(std::move(E), SrcDigest);
  } else {
    exportCacheGauges();
  }

  Resp.WallSeconds = Wall.seconds();
  SPA_OBS_GAUGE_SET("serve.request.seconds", Resp.WallSeconds);
  Resp.MetricsJson = obs::MetricsSink::toJson(obs::Registry::global());
  return ServeErrc::None;
}
