//===- oracle.cpp - Output checks independent of the analyzer -------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "oracle.h"

#include "interp/Interp.h"

using namespace spa;

namespace {

/// gamma-membership: is the concrete value \p CV covered by \p AV?
bool contained(const Interp &I, const CValue &CV, const Value &AV) {
  switch (CV.K) {
  case CValue::Kind::Uninit:
    return true; // Reads of uninitialized cells trap; no constraint.
  case CValue::Kind::Int:
    return AV.Itv.contains(CV.I);
  case CValue::Kind::Fun:
    return AV.Funcs.contains(CV.F);
  case CValue::Kind::Ptr: {
    LocId Base = CV.Heap ? I.heapBlocks()[CV.Block].Site : CV.VarBase;
    return AV.Pts.contains(Base) && AV.Offset.contains(CV.Off) &&
           AV.Size.contains(I.blockSize(CV));
  }
  }
  return false;
}

InterpOptions interpOptions(uint64_t InputSeed) {
  InterpOptions Opts;
  Opts.InputSeed = InputSeed;
  Opts.MaxSteps = perfbench::OracleSteps;
  return Opts;
}

} // namespace

std::string perfbench::checkSparseRun(const Program &Prog,
                                      const AnalysisRun &Run,
                                      const CheckerSummary *Summary,
                                      uint64_t InputSeed) {
  if (!Run.Sparse)
    return "no sparse result";
  std::string Violation;
  Interp I(Prog, Run.Pre.CG, interpOptions(InputSeed));
  InterpResult R = I.run([&](PointId P, const Interp &It) {
    if (!Violation.empty())
      return;
    for (LocId L : Run.DU.Defs[P.value()]) {
      if (Prog.loc(L).isSummary())
        continue;
      if (!contained(It, It.varValue(L), Run.Sparse->Out[P.value()].get(L))) {
        Violation = "sparse result misses " + Prog.loc(L).Name + " at " +
                    Prog.pointToString(P);
        return;
      }
    }
  });
  if (!Violation.empty() || !Summary || R.Reason != StopReason::Overrun)
    return Violation;
  for (PointId P : R.OverrunPoints) {
    bool Flagged = false;
    for (const AccessCheck &C : Summary->Checks)
      if (C.P == P && C.Result != AccessCheck::Verdict::Safe)
        Flagged = true;
    if (!Flagged)
      return "checker missed the overrun at " + Prog.pointToString(P);
  }
  return "";
}

std::string perfbench::checkOctRun(const Program &Prog, const OctRun &Run,
                                   uint64_t InputSeed) {
  if (!Run.Sparse)
    return "no sparse octagon result";
  std::string Violation;
  Interp I(Prog, Run.Pre.CG, interpOptions(InputSeed));
  I.run([&](PointId P, const Interp &It) {
    if (!Violation.empty())
      return;
    for (LocId PL : Run.DU.Defs[P.value()]) {
      PackId Pack(PL.value());
      const OctVal *O = Run.Sparse->Out[P.value()].lookup(Pack);
      for (LocId Member : Run.Packs.vars(Pack)) {
        const CValue &CV = It.varValue(Member);
        if (Prog.loc(Member).isSummary() || CV.K != CValue::Kind::Int)
          continue;
        Interval Itv =
            O ? O->project(static_cast<uint32_t>(Run.Packs.indexIn(Pack, Member)))
              : Interval::bot();
        if (!Itv.contains(CV.I)) {
          Violation = "octagon result misses " + Prog.loc(Member).Name +
                      " = " + std::to_string(CV.I) + " at " +
                      Prog.pointToString(P);
          return;
        }
      }
    }
  });
  return Violation;
}
