//===- Checker.cpp - Buffer-overrun checker ---------------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"

#include "obs/Metrics.h"
#include "obs/MetricsSink.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

using namespace spa;

std::string AccessCheck::str(const Program &Prog) const {
  std::ostringstream OS;
  switch (Result) {
  case Verdict::Safe:
    OS << "safe   ";
    break;
  case Verdict::Alarm:
    OS << "ALARM  ";
    break;
  case Verdict::DefiniteOverrun:
    OS << "OVERRUN";
    break;
  }
  OS << " " << (IsStore ? "store" : "load") << " through "
     << Prog.loc(Ptr).Name << " at {" << Prog.pointToString(P)
     << "}: offset " << Offset.str() << ", size " << Size.str();
  if (Degraded)
    OS << " [degraded]";
  return OS.str();
}

unsigned CheckerSummary::numSafe() const {
  unsigned N = 0;
  for (const AccessCheck &C : Checks)
    N += C.Result == AccessCheck::Verdict::Safe;
  return N;
}

unsigned CheckerSummary::numAlarms() const {
  return static_cast<unsigned>(Checks.size()) - numSafe();
}

namespace {

AccessCheck::Verdict classify(const Value &Ptr) {
  const Interval &Off = Ptr.Offset, &Size = Ptr.Size;
  if (Off.isBot() || Size.isBot() || Ptr.Pts.empty())
    return AccessCheck::Verdict::Safe; // Dead access: nothing to overrun.
  // Proved in bounds: every offset is within every possible size.
  if (Off.lo() >= 0 && Size.lo() != bound::NegInf && Off.hi() < Size.lo())
    return AccessCheck::Verdict::Safe;
  // Definitely out of bounds: no offset can be valid.
  if (Off.hi() < 0 || Off.lo() >= Size.hi())
    return AccessCheck::Verdict::DefiniteOverrun;
  return AccessCheck::Verdict::Alarm;
}

/// Collects dereferenced pointer variables of \p E.
void collectDerefs(const IExpr &E, std::vector<LocId> &Out) {
  if (E.Kind == IExprKind::Deref) {
    Out.push_back(E.Loc);
    return;
  }
  if (E.Kind == IExprKind::Binary) {
    collectDerefs(*E.Lhs, Out);
    collectDerefs(*E.Rhs, Out);
  }
}

} // namespace

CheckerSummary spa::checkBufferOverruns(const Program &Prog,
                                        const AnalysisRun &Run) {
  // A dense run has no input buffers to read.  Callers reject such runs
  // up front (spa-analyze: --check needs --engine=sparse); this check
  // stays in every build type so a missed one stops instead of reading
  // nothing.
  if (!Run.Sparse) {
    std::fprintf(stderr,
                 "checkBufferOverruns: the checker needs a sparse run\n");
    std::abort();
  }
  CheckerSummary Summary;
  Summary.Degraded = Run.degraded();

  for (uint32_t P = 0; P < Prog.numPoints(); ++P) {
    const Command &Cmd = Prog.point(PointId(P)).Cmd;
    std::vector<LocId> Loads;
    bool Store = false;
    LocId StorePtr;
    switch (Cmd.Kind) {
    case CmdKind::Assign:
    case CmdKind::RetStmt:
    case CmdKind::Alloc:
      collectDerefs(*Cmd.E, Loads);
      break;
    case CmdKind::Store:
      Store = true;
      StorePtr = Cmd.Target;
      collectDerefs(*Cmd.E, Loads);
      break;
    case CmdKind::Assume:
      collectDerefs(*Cmd.Cnd->Lhs, Loads);
      collectDerefs(*Cmd.Cnd->Rhs, Loads);
      break;
    case CmdKind::Call:
      for (const auto &A : Cmd.Args)
        collectDerefs(*A, Loads);
      break;
    default:
      break;
    }
    if (Loads.empty() && !Store)
      continue;

    const AbsState &In = Run.Sparse->In[P];
    auto Record = [&](LocId Ptr, bool IsStore) {
      const Value &V = In.get(Ptr);
      AccessCheck C;
      C.P = PointId(P);
      C.Ptr = Ptr;
      C.Offset = V.Offset;
      C.Size = V.Size;
      C.IsStore = IsStore;
      C.Result = classify(V);
      C.Degraded = Summary.Degraded;
      Summary.Checks.push_back(std::move(C));
    };
    for (LocId L : Loads)
      Record(L, false);
    if (Store)
      Record(StorePtr, true);
  }
  return Summary;
}

CheckerSummary spa::analyzeAndCheck(const Program &Prog) {
  AnalyzerOptions Opts;
  Opts.Engine = EngineKind::Sparse;
  AnalysisRun Run = analyzeProgram(Prog, Opts);
  return checkBufferOverruns(Prog, Run);
}

//===----------------------------------------------------------------------===//
// Alarm provenance
//===----------------------------------------------------------------------===//

std::optional<AlarmProvenance>
spa::explainAlarm(const Program &Prog, const AnalysisRun &Run,
                  const CheckerSummary &Summary, unsigned AlarmId,
                  const ProvenanceQuery &Q) {
  if (!Run.Sparse || !Run.Graph)
    return std::nullopt;

  // Alarm ids number the non-Safe checks in report order.
  const AccessCheck *Check = nullptr;
  unsigned Seen = 0;
  for (const AccessCheck &C : Summary.Checks) {
    if (C.Result == AccessCheck::Verdict::Safe)
      continue;
    if (Seen++ == AlarmId) {
      Check = &C;
      break;
    }
  }
  if (!Check)
    return std::nullopt;

  AlarmProvenance AP;
  AP.AlarmId = AlarmId;
  AP.Check = *Check;

  // Walk the dependency relation backward from the alarming point.
  // Program points are graph nodes [0, NumPoints); the first backward
  // step is restricted to edges labeled with the alarming pointer (only
  // its definitions fed the dereference); deeper steps take every label,
  // because any location feeding a definition on the slice contributed.
  ReverseDepIndex Rev(*Run.Graph);
  uint32_t Seed = Check->P.value();
  obs::PredFn Preds = [&](uint32_t Node,
                          const std::function<void(uint32_t, uint32_t)> &Each) {
    Rev.forEachIn(Node, [&](LocId L, uint32_t Src) {
      if (Node == Seed && L != Check->Ptr)
        return;
      Each(Src, L.value());
    });
  };
  obs::ChargeFn Charge;
  if (Q.Bud)
    Charge = [Bud = Q.Bud] { return Bud->charge(); };
  obs::ProvenanceSlice Slice = obs::backwardSlice(Seed, Preds, Q.Bounds,
                                                  Charge);
  AP.Truncated = Slice.Truncated;
  AP.EdgesWalked = Slice.EdgesWalked;

  std::vector<bool> WidenPoint = computeWideningPoints(Prog, Run.Pre.CG);
  const std::vector<uint32_t> &Deg = Run.Sparse->DegradedNodeIds;
  for (const obs::SliceNode &S : Slice.Nodes) {
    ProvenanceEntry E;
    E.Node = S.Node;
    E.P = Run.Graph->anchor(S.Node);
    E.Depth = S.Depth;
    E.Via = S.Depth == 0 ? Check->Ptr : LocId(S.ViaLabel);
    E.IsPhi = Run.Graph->isPhi(S.Node);
    E.IsWidenPoint = WidenPoint[E.P.value()];
    E.Degraded = std::binary_search(Deg.begin(), Deg.end(), S.Node);
    AP.TouchesDegraded |= E.Degraded;
    AP.Slice.push_back(std::move(E));
  }

  SPA_OBS_COUNT("provenance.slices", 1);
  SPA_OBS_COUNT("provenance.nodes", AP.Slice.size());
  SPA_OBS_COUNT("provenance.edges_walked", AP.EdgesWalked);
  if (AP.Truncated)
    SPA_OBS_COUNT("provenance.truncated", 1);
  return AP;
}

std::vector<AlarmProvenance>
spa::collectAlarmProvenance(const Program &Prog, const AnalysisRun &Run,
                            const CheckerSummary &Summary,
                            const ProvenanceQuery &Q) {
  std::vector<AlarmProvenance> Out;
  for (unsigned Id = 0;; ++Id) {
    std::optional<AlarmProvenance> AP = explainAlarm(Prog, Run, Summary, Id, Q);
    if (!AP)
      break;
    Out.push_back(std::move(*AP));
  }
  return Out;
}

std::string AlarmProvenance::str(const Program &Prog,
                                 const AnalysisRun &Run) const {
  std::ostringstream OS;
  OS << "alarm #" << AlarmId << ": " << Check.str(Prog) << "\n";
  OS << "dependency slice (" << Slice.size() << " nodes, " << EdgesWalked
     << " edges walked";
  if (Truncated)
    OS << ", truncated";
  OS << "):\n";
  const SparseGraph *Graph = Run.Graph ? &*Run.Graph : nullptr;
  for (const ProvenanceEntry &E : Slice) {
    OS << "  [d" << E.Depth << "] ";
    if (E.Depth > 0)
      OS << Prog.loc(E.Via).Name << " <- ";
    OS << ledgerNodeLabel(Prog, Graph, E.Node);
    if (E.IsWidenPoint)
      OS << " [widen]";
    if (E.Degraded)
      OS << " [degraded]";
    OS << "\n";
  }
  OS << "degraded-tier value on slice: " << (TouchesDegraded ? "yes" : "no")
     << "\n";
  return OS.str();
}

std::string
spa::provenanceJsonArray(const Program &Prog, const AnalysisRun &Run,
                         const std::vector<AlarmProvenance> &Slices) {
  auto Quote = [](const std::string &S) {
    std::string R = "\"";
    for (char C : S) {
      if (C == '"' || C == '\\')
        R += '\\';
      R += C;
    }
    return R += '"';
  };
  const SparseGraph *Graph = Run.Graph ? &*Run.Graph : nullptr;
  std::string Out = "[";
  for (size_t I = 0; I < Slices.size(); ++I) {
    const AlarmProvenance &AP = Slices[I];
    Out += I ? ",\n    {\n" : "\n    {\n";
    Out += "      \"alarm\": " + std::to_string(AP.AlarmId) + ",\n";
    Out += "      \"point\": " + std::to_string(AP.Check.P.value()) + ",\n";
    Out += "      \"ptr\": " + Quote(Prog.loc(AP.Check.Ptr).Name) + ",\n";
    Out += std::string("      \"verdict\": ") +
           (AP.Check.Result == AccessCheck::Verdict::DefiniteOverrun
                ? "\"overrun\""
                : "\"alarm\"") +
           ",\n";
    Out += std::string("      \"truncated\": ") +
           (AP.Truncated ? "true" : "false") + ",\n";
    Out += "      \"edges_walked\": " + std::to_string(AP.EdgesWalked) + ",\n";
    Out += std::string("      \"touches_degraded\": ") +
           (AP.TouchesDegraded ? "true" : "false") + ",\n";
    // A constant since slices come from interval runs only; kept so the
    // ledger's keys stay those of spa-ledger-v1.
    Out += "      \"interval_fallback\": false,\n";
    Out += "      \"slice\": [";
    for (size_t J = 0; J < AP.Slice.size(); ++J) {
      const ProvenanceEntry &E = AP.Slice[J];
      Out += J ? ",\n        {" : "\n        {";
      Out += "\"node\": " + std::to_string(E.Node);
      Out += ", \"depth\": " + std::to_string(E.Depth);
      Out += ", \"via\": " + Quote(Prog.loc(E.Via).Name);
      Out += std::string(", \"phi\": ") + (E.IsPhi ? "true" : "false");
      Out += std::string(", \"widening\": ") +
             (E.IsWidenPoint ? "true" : "false");
      Out += std::string(", \"degraded\": ") + (E.Degraded ? "true" : "false");
      Out += ", \"label\": " + Quote(ledgerNodeLabel(Prog, Graph, E.Node));
      Out += "}";
    }
    Out += AP.Slice.empty() ? "]" : "\n      ]";
    Out += "\n    }";
  }
  Out += Slices.empty() ? "]" : "\n  ]";
  return Out;
}
