//===- Budget.h - Cooperative resource budget / cancellation token ---------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resource-governance token (docs/ROBUSTNESS.md): a wall-clock
/// deadline, a step budget, and an RSS ceiling carried by one shared
/// Budget object that every fixpoint loop charges cooperatively.  When
/// any limit trips, the token goes *sticky-exhausted*: every later
/// charge() fails immediately, so all lanes of a parallel phase observe
/// the stop within a bounded number of steps.  Engines react by sound
/// degradation (falling back to the flow-insensitive pre-analysis
/// invariant), never by returning a partial unsound result.
///
/// Cost model: charge() is one relaxed fetch_add plus a relaxed load on
/// the hot path; the clock is read only when the step count crosses a
/// 1024-step boundary.  Memory is checked on the same boundary through
/// the counting-allocator hook (support/MemHook.cpp) — two relaxed
/// loads, no syscall — so an RSS trip fires on the allocation spike
/// itself; builds without the hook (sanitizers) fall back to polling
/// VmHWM on 8192-step boundaries.  A null Budget pointer in the engine
/// options removes even that (the guard-overhead acceptance bar of
/// BENCH_pipeline.json).
///
/// Every 1024-step boundary also drops a budget.charge milestone into
/// the flight recorder, and a trip records budget.trip — the journal
/// tail of a dying run shows how far the budget got (obs/Journal.h).
///
//===----------------------------------------------------------------------===//

#ifndef SPA_SUPPORT_BUDGET_H
#define SPA_SUPPORT_BUDGET_H

#include "obs/Journal.h"
#include "support/Resource.h"

#include <atomic>
#include <cstdint>

namespace spa {

/// Why a budget stopped the analysis (None = it never tripped).
enum class BudgetReason : uint8_t {
  None = 0,
  Deadline,  ///< Wall-clock deadline passed.
  Steps,     ///< Step budget consumed.
  Memory,    ///< Peak RSS crossed the ceiling.
  Cancelled, ///< cancel() was called (external abort).
};

const char *budgetReasonName(BudgetReason R);

/// Declarative limits; 0 disables the corresponding check.  DeadlineSec
/// is the only wall-clock limit of an analysis run.  A *negative*
/// DeadlineSec means "already expired": the budget trips on the very
/// first charge, which is how tests pin deterministic full degradation.
struct BudgetLimits {
  double DeadlineSec = 0;
  uint64_t StepLimit = 0;
  uint64_t MemLimitKiB = 0;

  bool enabled() const {
    return DeadlineSec != 0 || StepLimit != 0 || MemLimitKiB != 0;
  }
};

/// The shared cooperative token.  Thread-safe: parallel lanes charge the
/// same Budget; exhaustion is sticky and the first tripping reason wins.
class Budget {
public:
  explicit Budget(const BudgetLimits &L) : Limits(L) {
    if (Limits.MemLimitKiB && heapTrackingActive()) {
      // Byte-accurate mode: estimate the process peak as the RSS at
      // budget creation plus tracked heap growth since.  Both reads are
      // then syscall-free on the charge path.
      BaseRssKiB = currentPeakRssKiB();
      BaseHeapBytes = peakTrackedHeapBytes();
    }
    if (Limits.DeadlineSec < 0)
      trip(BudgetReason::Deadline);
  }

  /// Consumes \p N steps and re-evaluates the limits at amortized
  /// intervals.  Returns false when the budget is (now) exhausted; the
  /// caller must stop and degrade.
  bool charge(uint64_t N = 1) {
    uint64_t Now = StepsUsed.fetch_add(N, std::memory_order_relaxed) + N;
    if (exhausted())
      return false;
    if (Limits.StepLimit && Now >= Limits.StepLimit) {
      trip(BudgetReason::Steps);
      return false;
    }
    // Amortized limit checks: only when this charge crossed a 1024-step
    // boundary (or is the first).  With the allocator hook the memory
    // estimate is two relaxed loads, so it runs on every boundary; the
    // VmHWM fallback reads /proc and runs 8x less often.
    if ((Now >> 10) != ((Now - N) >> 10) || Now == N) {
      SPA_OBS_JOURNAL(BudgetCharge, Now, 0);
      if (Limits.DeadlineSec > 0 && Clock.seconds() >= Limits.DeadlineSec) {
        trip(BudgetReason::Deadline);
        return false;
      }
      if (Limits.MemLimitKiB && estimatedPeakRssKiB(Now, N) >
                                    Limits.MemLimitKiB) {
        trip(BudgetReason::Memory);
        return false;
      }
    }
    return true;
  }

  bool exhausted() const {
    return R.load(std::memory_order_relaxed) !=
           static_cast<uint8_t>(BudgetReason::None);
  }

  BudgetReason reason() const {
    return static_cast<BudgetReason>(R.load(std::memory_order_relaxed));
  }

  /// External abort: later charges fail with Cancelled.
  void cancel() { trip(BudgetReason::Cancelled); }

  uint64_t steps() const {
    return StepsUsed.load(std::memory_order_relaxed);
  }

  double elapsedSeconds() const { return Clock.seconds(); }

  const BudgetLimits &limits() const { return Limits; }

private:
  void trip(BudgetReason Why) {
    uint8_t Expected = static_cast<uint8_t>(BudgetReason::None);
    if (R.compare_exchange_strong(Expected, static_cast<uint8_t>(Why),
                                  std::memory_order_relaxed))
      SPA_OBS_JOURNAL(BudgetTrip, static_cast<uint8_t>(Why),
                      StepsUsed.load(std::memory_order_relaxed));
  }

  /// Peak RSS estimate for the memory check.  Hook mode: creation-time
  /// RSS plus tracked heap growth, no syscall.  Fallback: the VmHWM
  /// poll, further amortized to 8192-step boundaries.
  uint64_t estimatedPeakRssKiB(uint64_t Now, uint64_t N) const {
    if (heapTrackingActive()) {
      uint64_t Peak = peakTrackedHeapBytes();
      uint64_t Delta = Peak > BaseHeapBytes ? Peak - BaseHeapBytes : 0;
      return BaseRssKiB + (Delta >> 10);
    }
    if ((Now >> 13) != ((Now - N) >> 13) || Now == N)
      return currentPeakRssKiB();
    return 0; // Off-boundary: skip the poll (0 never exceeds a limit).
  }

  BudgetLimits Limits;
  Timer Clock;
  uint64_t BaseRssKiB = 0;
  uint64_t BaseHeapBytes = 0;
  std::atomic<uint64_t> StepsUsed{0};
  std::atomic<uint8_t> R{static_cast<uint8_t>(BudgetReason::None)};
};

} // namespace spa

#endif // SPA_SUPPORT_BUDGET_H
