//===- fork_safety_test.cpp - Observability locks across fork() -----------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shard coordinator forks workers from a process whose pool threads
/// may be registering metrics at that very moment.  fork() copies only
/// the calling thread, so a registry or tracer mutex held by another
/// thread would stay locked in the child forever, and the child's first
/// registration would hang.  Both mutexes are held across fork() by
/// pthread_atfork handlers; these tests fork repeatedly while a second
/// thread hammers the lock, and fail on any child still alive after 2 s.
///
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Resource.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace spa;
using namespace spa::obs;

namespace {

/// Forks \p Forks children while \p Spin runs in a loop on a second
/// thread; each child runs \p Child and exits.  Returns the number of
/// children still alive 2 s after the last fork (each is then killed).
unsigned hungChildren(unsigned Forks, const std::function<void(uint64_t)> &Spin,
                      const std::function<void()> &Child) {
  // One warm-up round first: function-local statics (the registry, the
  // SPA_OBS_* call-site caches) initialized by the spinner while a fork
  // lands would hang the child on their init guard, which no atfork
  // handler covers.
  Spin(0);
  std::atomic<bool> Stop{false};
  std::thread Spinner([&] {
    for (uint64_t I = 0; !Stop.load(std::memory_order_relaxed); ++I)
      Spin(I);
  });
  std::vector<pid_t> Kids;
  for (unsigned I = 0; I < Forks; ++I) {
    pid_t Pid = fork();
    if (Pid == 0) {
      Child();
      _exit(0);
    }
    if (Pid > 0)
      Kids.push_back(Pid);
  }
  Stop.store(true);
  Spinner.join();

  Timer Clock;
  auto Reaped = [](pid_t Pid) { return waitpid(Pid, nullptr, WNOHANG) != 0; };
  while (!Kids.empty() && Clock.seconds() < 2) {
    Kids.erase(std::remove_if(Kids.begin(), Kids.end(), Reaped), Kids.end());
    usleep(5000);
  }
  for (pid_t Pid : Kids) {
    kill(Pid, SIGKILL);
    waitpid(Pid, nullptr, 0);
  }
  return static_cast<unsigned>(Kids.size());
}

} // namespace

TEST(ForkSafety, ChildNeverInheritsAHeldRegistryLock) {
  unsigned Hung = hungChildren(
      200,
      [](uint64_t I) {
        // Fresh names keep the spinner inside the registry's critical
        // section (map insertion) as much as possible.
        Registry::global().gauge("fork_safety.parent." +
                                 std::to_string(I % 4096));
      },
      [] { Registry::global().gauge("fork_safety.child").set(1); });
  EXPECT_EQ(Hung, 0u);
}

TEST(ForkSafety, ChildNeverInheritsAHeldTracerLock) {
  Tracer &T = Tracer::global();
  T.enable();
  T.setRingCapacity(64);
  unsigned Hung = hungChildren(
      200,
      [&T](uint64_t I) {
        T.addSpan("fork_safety.parent", static_cast<double>(I), 1,
                  T.allocSpanId(), 0);
      },
      [&T] {
        T.resetForChild(0);
        T.addSpan("fork_safety.child", 0, 1, T.allocSpanId(), 0);
      });
  T.setRingCapacity(0);
  T.clear();
  T.disable();
  EXPECT_EQ(Hung, 0u);
}
