//===- overrun_checker.cpp - Static buffer-overrun detection ----------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client application the SPARROW analyzer exists for: static buffer-
/// overrun detection.  The interval analysis tracks, for every pointer,
/// the (offset, size) tuple of the pointed-to block; the checker then
/// proves each dereference in bounds or raises an alarm.  The program
/// below mixes provably-safe loops, an off-by-one bug, and a definite
/// overrun; the example also runs the concrete interpreter to show the
/// off-by-one actually fires.
///
//===----------------------------------------------------------------------===//

#include "core/Checker.h"
#include "interp/Interp.h"
#include "ir/Builder.h"

#include <cstdio>

using namespace spa;

static const char *Source = R"(
  fun zero(buf, n) {
    i = 0;
    while (i < n) {          // safe: i in [0, n-1], buf has n cells
      q = buf + i;
      *q = 0;
      i = i + 1;
    }
    return 0;
  }

  fun sum_off_by_one(buf, n) {
    s = 0;
    i = 0;
    while (i <= n) {         // BUG: reads buf[n]
      q = buf + i;
      s = s + *q;
      i = i + 1;
    }
    return s;
  }

  fun main() {
    a = alloc(16);
    zero(a, 16);
    t = sum_off_by_one(a, 16);

    b = alloc(4);
    p = b + 9;               // BUG: definitely out of bounds
    v = *p;

    return t + v;
  }
)";

int main() {
  BuildResult Built = buildProgramFromSource(Source);
  if (!Built.ok()) {
    std::fprintf(stderr, "build error: %s\n", Built.Error.c_str());
    return 1;
  }
  const Program &Prog = *Built.Prog;

  // Static analysis + checking.
  AnalyzerOptions Opts;
  Opts.Engine = EngineKind::Sparse;
  AnalysisRun Run = analyzeProgram(Prog, Opts);
  CheckerSummary Summary = checkBufferOverruns(Prog, Run);

  std::printf("checked %zu dereferences: %u proved safe, %u alarms\n\n",
              Summary.Checks.size(), Summary.numSafe(),
              Summary.numAlarms());
  for (const AccessCheck &C : Summary.Checks)
    std::printf("  %s\n", C.str(Prog).c_str());

  // Dynamic confirmation: the off-by-one read really overruns.
  std::printf("\nconcrete execution: ");
  Interp I(Prog, Run.Pre.CG, InterpOptions());
  InterpResult R = I.run(nullptr);
  if (R.Reason == StopReason::Overrun)
    std::printf("out-of-bounds access at {%s}\n",
                Prog.pointToString(R.OverrunPoints[0]).c_str());
  else
    std::printf("finished without overrun (reason %d)\n",
                static_cast<int>(R.Reason));

  // The dynamic overrun must be one of the static alarms (no false
  // negatives).
  if (R.Reason == StopReason::Overrun) {
    for (const AccessCheck &C : Summary.Checks)
      if (C.P == R.OverrunPoints[0] &&
          C.Result != AccessCheck::Verdict::Safe)
        std::printf("  -> covered by a static alarm, as guaranteed\n");
  }
  return 0;
}
