//===- Resource.cpp - Wall-clock timing and memory measurement -------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Resource.h"

#include "support/ByteIO.h"

#include <cstdio>
#include <cstring>
#include <string>

#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace spa;

namespace {

/// Payload ceiling in doubles.  The parent drains the pipe only after
/// the child exits, so the whole payload must fit in the kernel pipe
/// buffer (64 KiB by default on Linux); 8000 doubles plus the length
/// prefix stays under it.  Bulk data (e.g. bench JSON records) goes
/// through files, not the pipe.
constexpr size_t MaxPayloadDoubles = 8000;

} // namespace

double CpuTimer::now() {
  struct rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) != 0)
    return 0;
  auto ToSec = [](const timeval &TV) {
    return static_cast<double>(TV.tv_sec) +
           static_cast<double>(TV.tv_usec) / 1e6;
  };
  return ToSec(RU.ru_utime) + ToSec(RU.ru_stime);
}

uint64_t spa::currentPeakRssKiB() {
  FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  uint64_t KiB = 0;
  while (std::fgets(Line, sizeof(Line), F)) {
    if (std::strncmp(Line, "VmHWM:", 6) == 0) {
      KiB = std::strtoull(Line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(F);
  return KiB;
}

ChildRunResult
spa::runInChild(const std::function<std::vector<double>()> &Job,
                double TimeLimitSec) {
  ChildRunResult Result;

  int Pipe[2];
  if (pipe(Pipe) != 0)
    return Result;

  Timer Clock;
  pid_t Child = fork();
  if (Child < 0) {
    close(Pipe[0]);
    close(Pipe[1]);
    return Result;
  }

  if (Child == 0) {
    // Child: run the job, ship the length-prefixed payload through the
    // pipe.
    close(Pipe[0]);
    std::vector<double> Payload = Job();
    uint32_t Count = static_cast<uint32_t>(
        Payload.size() < MaxPayloadDoubles ? Payload.size()
                                           : MaxPayloadDoubles);
    if (!writeFull(Pipe[1], &Count, sizeof(Count)) ||
        !writeFull(Pipe[1], Payload.data(), Count * sizeof(double)))
      _exit(1);
    close(Pipe[1]);
    _exit(0);
  }

  // Parent: poll for exit up to the limit, then kill.
  close(Pipe[1]);
  bool Exited = false;
  int Status = 0;
  struct rusage Usage;
  std::memset(&Usage, 0, sizeof(Usage));
  for (;;) {
    pid_t W = wait4(Child, &Status, WNOHANG, &Usage);
    if (W == Child) {
      Exited = true;
      break;
    }
    if (W < 0)
      break;
    if (TimeLimitSec > 0 && Clock.seconds() > TimeLimitSec) {
      kill(Child, SIGKILL);
      wait4(Child, &Status, 0, &Usage);
      Result.TimedOut = true;
      break;
    }
    usleep(2000);
  }

  Result.Seconds = Clock.seconds();
  Result.PeakRssKiB = static_cast<uint64_t>(Usage.ru_maxrss);
  uint32_t Count = 0;
  if (Exited && WIFEXITED(Status) && WEXITSTATUS(Status) == 0 &&
      readFull(Pipe[0], &Count, sizeof(Count)) &&
      Count <= MaxPayloadDoubles) {
    Result.Payload.resize(Count);
    Result.Ok = readFull(Pipe[0], Result.Payload.data(),
                         Count * sizeof(double));
    if (!Result.Ok)
      Result.Payload.clear();
  }
  close(Pipe[0]);
  return Result;
}
