//===- oracle.h - Output checks independent of the analyzer ---------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's correctness checks.  Each samples the concrete
/// semantics with the interpreter (src/interp), which shares no code with
/// the abstract engines, and checks the analyzer's answer against what the
/// execution observed.  Every function returns "" when the result passes,
/// or a one-line description of the first violation.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_PERFBENCH_ORACLE_H
#define SPA_PERFBENCH_ORACLE_H

#include "core/Analyzer.h"
#include "core/Checker.h"
#include "oct/OctAnalysis.h"

#include <cstdint>
#include <string>

namespace perfbench {

/// Interpreter steps per execution (the bound tests/random_test.cpp uses).
constexpr uint64_t OracleSteps = 20000;

/// Every value the interpreter observes for a location a point defines
/// lies inside the sparse result at that point (tests/random_test.cpp).
/// With \p Summary, an execution that stops on an out-of-bounds access
/// must also find a non-Safe verdict at that point
/// (tests/checker_test.cpp).
std::string checkSparseRun(const spa::Program &Prog,
                           const spa::AnalysisRun &Run,
                           const spa::CheckerSummary *Summary,
                           uint64_t InputSeed);

/// Interpreter containment for the sparse octagon analysis: every integer
/// member of a pack a point defines lies inside the pack's projection
/// (tests/split_oct_test.cpp).
std::string checkOctRun(const spa::Program &Prog, const spa::OctRun &Run,
                        uint64_t InputSeed);

} // namespace perfbench

#endif // SPA_PERFBENCH_ORACLE_H
