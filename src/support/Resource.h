//===- Resource.h - Wall-clock timing and memory measurement ---------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Timing and peak-memory helpers used by the benchmark harnesses.  Peak
/// memory of an analyzer configuration is measured by running it in a forked
/// child and reading the child's ru_maxrss, mirroring the per-process peak
/// memory the paper reports.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_SUPPORT_RESOURCE_H
#define SPA_SUPPORT_RESOURCE_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace spa {

/// Monotonic wall-clock stopwatch.
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

  void reset() { Start = Clock::now(); }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

/// Process CPU-time stopwatch (user + system across all threads, from
/// getrusage).  Paired with Timer around a parallel phase it yields the
/// wall vs. cpu split the par.* gauges report: cpu/wall ≈ effective
/// parallelism, cpu >> wall flags contention or oversubscription.
class CpuTimer {
public:
  CpuTimer() : Start(now()) {}

  /// CPU seconds consumed by the process since construction/reset().
  double seconds() const { return now() - Start; }

  void reset() { Start = now(); }

private:
  static double now();
  double Start;
};

/// Result of running a job in a forked child process.
struct ChildRunResult {
  bool Ok = false;         ///< Child exited 0 within the time limit.
  bool TimedOut = false;   ///< Child was killed at the limit.
  double Seconds = 0.0;    ///< Wall-clock time of the child.
  uint64_t PeakRssKiB = 0; ///< Child's ru_maxrss (KiB on Linux).
  /// Doubles reported back by the child, length-prefixed over the pipe.
  std::vector<double> Payload;
};

/// Runs \p Job in a forked child with a wall-clock limit of
/// \p TimeLimitSec seconds (0 = unlimited).  The child's return values
/// (vector of doubles written to a pipe the parent drains after the
/// child exits, so at most 8000 of them) and ru_maxrss are reported
/// back.  Used by the table benchmarks so each analyzer run gets an
/// isolated peak-RSS measurement, like the per-process numbers in the
/// paper.
ChildRunResult runInChild(const std::function<std::vector<double>()> &Job,
                          double TimeLimitSec);

/// Peak RSS of the current process in KiB (VmHWM from /proc/self/status).
uint64_t currentPeakRssKiB();

/// Byte-accurate heap accounting from the counting-allocator hook
/// (support/MemHook.cpp): global operator new/delete are replaced with
/// counting wrappers, so the memory budget can trip on an allocation
/// spike instead of waiting for the next amortized /proc poll.  Inactive
/// (always 0 / false) in sanitizer builds, where replacing the global
/// allocator would fight the sanitizer's own interposer — Budget falls
/// back to the VmHWM poll there.
uint64_t currentTrackedHeapBytes();
uint64_t peakTrackedHeapBytes();
bool heapTrackingActive();

} // namespace spa

#endif // SPA_SUPPORT_RESOURCE_H
