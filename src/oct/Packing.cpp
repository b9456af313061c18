//===- Packing.cpp - Variable packs for the relational analysis -------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "oct/Packing.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <numeric>

using namespace spa;

int Packing::indexIn(PackId P, LocId L) const {
  const auto &V = Packs[P.value()];
  auto It = std::lower_bound(V.begin(), V.end(), L);
  if (It != V.end() && *It == L)
    return static_cast<int>(It - V.begin());
  return -1;
}

double Packing::avgGroupSize() const {
  uint64_t Total = 0;
  uint32_t Count = 0;
  for (const auto &P : Packs) {
    if (P.size() < 2)
      continue;
    Total += P.size();
    ++Count;
  }
  return Count ? static_cast<double>(Total) / Count : 0;
}

namespace {

/// Size-capped union-find over locations.
class Grouper {
public:
  Grouper(size_t N, unsigned MaxSize) : Parent(N), Size(N, 1),
                                        MaxSize(MaxSize) {
    std::iota(Parent.begin(), Parent.end(), 0);
  }

  uint32_t find(uint32_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }

  /// Unions the groups of \p A and \p B unless the result would exceed
  /// the cap (the paper's pack splitting).
  void unite(uint32_t A, uint32_t B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return;
    if (Size[A] + Size[B] > MaxSize)
      return;
    if (Size[A] < Size[B])
      std::swap(A, B);
    Parent[B] = A;
    Size[A] += Size[B];
  }

private:
  std::vector<uint32_t> Parent;
  std::vector<uint32_t> Size;
  unsigned MaxSize;
};

/// Scalar variables appearing in \p E (Var nodes only: deref and
/// address-of operands relate through the pointer abstraction, not the
/// relational domain).
void collectScalarVars(const IExpr &E, std::vector<LocId> &Out) {
  switch (E.Kind) {
  case IExprKind::Var:
    Out.push_back(E.Loc);
    return;
  case IExprKind::Binary:
    collectScalarVars(*E.Lhs, Out);
    collectScalarVars(*E.Rhs, Out);
    return;
  default:
    return;
  }
}

} // namespace

Packing spa::computePacking(const Program &Prog,
                            const PreAnalysisResult &Pre,
                            unsigned MaxPackSize) {
  size_t NL = Prog.numLocs();
  Grouper G(NL, MaxPackSize);

  auto Relatable = [&](LocId L) { return !Prog.loc(L).isSummary(); };
  auto UniteAll = [&](const std::vector<LocId> &Vars) {
    for (size_t I = 1; I < Vars.size(); ++I)
      if (Relatable(Vars[0]) && Relatable(Vars[I]))
        G.unite(Vars[0].value(), Vars[I].value());
  };

  for (uint32_t P = 0; P < Prog.numPoints(); ++P) {
    const Command &Cmd = Prog.point(PointId(P)).Cmd;
    std::vector<LocId> Vars;
    switch (Cmd.Kind) {
    case CmdKind::Assign:
    case CmdKind::RetStmt:
      Vars.push_back(Cmd.Target);
      collectScalarVars(*Cmd.E, Vars);
      UniteAll(Vars);
      break;
    case CmdKind::Assume:
      collectScalarVars(*Cmd.Cnd->Lhs, Vars);
      collectScalarVars(*Cmd.Cnd->Rhs, Vars);
      UniteAll(Vars);
      break;
    case CmdKind::Call:
      // Group actuals with formals, per callee and per position.
      for (FuncId Callee : Pre.CG.callees(PointId(P))) {
        const FunctionInfo &F = Prog.function(Callee);
        size_t NArgs = std::min(F.Params.size(), Cmd.Args.size());
        for (size_t I = 0; I < NArgs; ++I) {
          std::vector<LocId> ArgVars{F.Params[I]};
          collectScalarVars(*Cmd.Args[I], ArgVars);
          UniteAll(ArgVars);
        }
      }
      break;
    case CmdKind::Return:
      // Group the call target with the callee return slots.
      if (Cmd.Target.isValid()) {
        Vars.push_back(Cmd.Target);
        for (FuncId Callee : Pre.CG.callees(Cmd.Pair))
          Vars.push_back(Prog.function(Callee).RetSlot);
        UniteAll(Vars);
      }
      break;
    default:
      break;
    }
  }

  Packing Result;
  Result.Singleton.resize(NL);
  Result.Of.resize(NL);

  // Multi-member groups first.
  std::vector<std::vector<LocId>> Groups(NL);
  for (uint32_t L = 0; L < NL; ++L)
    Groups[G.find(L)].push_back(LocId(L));
  for (auto &Members : Groups) {
    if (Members.size() < 2)
      continue;
    PackId Id(static_cast<uint32_t>(Result.Packs.size()));
    std::sort(Members.begin(), Members.end());
    for (LocId L : Members)
      Result.Of[L.value()].push_back(Id);
    Result.Packs.push_back(std::move(Members));
    ++Result.NumGroups;
  }
  // Singleton packs for every location (Section 4.2's assumption).
  for (uint32_t L = 0; L < NL; ++L) {
    PackId Id(static_cast<uint32_t>(Result.Packs.size()));
    Result.Packs.push_back({LocId(L)});
    Result.Singleton[L] = Id;
    Result.Of[L].push_back(Id);
  }
  // Pack-size distribution (docs/OBSERVABILITY.md): closure cost is cubic
  // in pack arity, so the histogram is the first thing to read when
  // oct.closures looks off.
  for (const auto &Members : Result.Packs)
    SPA_OBS_HIST("oct.pack.size", static_cast<double>(Members.size()));
  return Result;
}
