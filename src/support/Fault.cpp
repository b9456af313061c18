//===- Fault.cpp - Deterministic fault-injection hook ----------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Fault.h"

#include "obs/Journal.h"
#include "obs/Postmortem.h"

#include <cstdlib>

#include <unistd.h>

using namespace spa;

namespace {

struct ArmedFault {
  FaultPlan Plan;
  std::string Name;
  ArmedFault *Prev = nullptr;
};

thread_local ArmedFault *Armed = nullptr;

} // namespace

FaultPlan FaultPlan::parse(const char *Spec) {
  FaultPlan P;
  if (!Spec || !*Spec)
    return P;
  std::string S(Spec);
  size_t At = S.find('@');
  if (At == std::string::npos)
    return P;
  std::string KindStr = S.substr(0, At);
  std::string Rest = S.substr(At + 1);
  size_t Colon = Rest.find(':');
  if (Colon != std::string::npos) {
    P.NameSub = Rest.substr(Colon + 1);
    Rest = Rest.substr(0, Colon);
  }
  P.Phase = Rest;
  if (KindStr == "crash")
    P.K = Kind::Crash;
  else if (KindStr == "oom")
    P.K = Kind::Oom;
  else if (KindStr == "timeout")
    P.K = Kind::Timeout;
  else if (KindStr == "stall")
    P.K = Kind::Stall;
  else if (KindStr == "truncate")
    P.K = Kind::Truncate;
  else if (KindStr == "partial")
    P.K = Kind::Partial;
  else
    P.Phase.clear(); // Unknown kind: inactive plan.
  return P;
}

FaultPlan FaultPlan::fromEnv() { return parse(std::getenv("SPA_FAULT")); }

FaultScope::FaultScope(const FaultPlan &Plan, std::string ProgramName) {
  ArmedFault *A = new ArmedFault{Plan, std::move(ProgramName), Armed};
  Armed = A;
  if (Plan.active())
    SPA_OBS_JOURNAL(FaultArm, static_cast<uint64_t>(Plan.K), 0);
}

FaultScope::~FaultScope() {
  ArmedFault *A = Armed;
  Armed = A->Prev;
  delete A;
}

namespace {

/// Shared phase/name filter of maybeInjectFault and faultMatches.
bool armedPlanMatches(const ArmedFault *A, const char *Phase) {
  if (!A || !A->Plan.active())
    return false;
  if (A->Plan.Phase != "*" && A->Plan.Phase != Phase)
    return false;
  if (!A->Plan.NameSub.empty() &&
      A->Name.find(A->Plan.NameSub) == std::string::npos)
    return false;
  return true;
}

} // namespace

void spa::maybeInjectFault(const char *Phase) {
  ArmedFault *A = Armed;
  if (!armedPlanMatches(A, Phase))
    return;
  switch (A->Plan.K) {
  case FaultPlan::Kind::None:
  case FaultPlan::Kind::Truncate: // Parent-side: simulated by the reader,
  case FaultPlan::Kind::Partial:  // never injected here.
    return;
  case FaultPlan::Kind::Crash:
    std::abort();
  case FaultPlan::Kind::Oom:
    obs::journalRecord(obs::JournalEventKind::OomTrip, 0, 0);
    obs::postmortemWriteNow(obs::PostmortemReason::Oom, 0);
    _exit(OomExitCode);
  case FaultPlan::Kind::Timeout:
  case FaultPlan::Kind::Stall:
    // Hang until something external reaps this process: the shard
    // coordinator's hard kill limit, or — when armed at the in-fixpoint
    // "fixloop" checkpoint with the watchdog running — the heartbeat
    // monitor, which writes a stall postmortem and exits StallExitCode.
    for (;;)
      usleep(100000);
  }
}

bool spa::faultMatches(const char *Phase, FaultPlan::Kind K) {
  ArmedFault *A = Armed;
  return armedPlanMatches(A, Phase) && A->Plan.K == K;
}
