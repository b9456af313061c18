//===- ShardCoordinator.cpp - Work-stealing multi-process shard driver ---------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "workload/ShardCoordinator.h"

#include "ir/Builder.h"
#include "ir/Snapshot.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "obs/MetricsSink.h"
#include "obs/Postmortem.h"
#include "obs/Trace.h"
#include "support/ByteIO.h"
#include "support/Fault.h"
#include "support/Resource.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <optional>

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace spa;

namespace {

constexpr uint32_t ShutdownIndex = 0xFFFFFFFFu;
/// A result frame bigger than this is a protocol violation, not a result.
constexpr uint32_t MaxFrameBytes = 1u << 24;
/// Dispatch frame: u32 index, u32 tier, u64 parent span id (the
/// coordinator's dispatch span, under which the worker roots its spans).
constexpr size_t DispatchFrameBytes = 16;
/// Per-item ceiling on the serialized span section a worker ships in its
/// result frame (newest spans win past it).
constexpr size_t MaxResultSpanBytes = 256 * 1024;

//===----------------------------------------------------------------------===//
// Result frame encoding (worker -> parent)
//===----------------------------------------------------------------------===//

std::vector<uint8_t> encodeResult(uint32_t Index, const BatchItemResult &R,
                                  const std::vector<uint8_t> &SpanBuf) {
  ByteWriter W;
  W.u32(Index);
  W.u8(R.Ok);
  W.u8(static_cast<uint8_t>(R.Outcome));
  W.u8(R.TimedOut);
  W.u8(R.Degraded);
  W.u32(R.Checks);
  W.u32(R.Alarms);
  W.f64(R.Seconds);
  W.u64(R.PeakRssKiB);
  W.u64(R.BudgetSteps);
  W.u64(R.LedgerVisits);
  W.u64(R.LedgerWidenings);
  W.u64(R.LedgerGrowth);
  W.u64(R.LedgerTimeMicros);
  W.str(R.Error);
  // Trailing span section: the worker's locally recorded trace spans
  // (obs/Trace.h drainSerialized format; zero length = not tracing).
  W.u32(static_cast<uint32_t>(SpanBuf.size()));
  W.bytes(SpanBuf.data(), SpanBuf.size());
  return std::move(W.Buf);
}

bool decodeResult(const uint8_t *Data, size_t Size, uint32_t &Index,
                  BatchItemResult &R, std::vector<uint8_t> &SpanBuf) {
  ByteReader C(Data, Size);
  Index = C.u32();
  R.Ok = C.u8();
  uint8_t Outcome = C.u8();
  if (Outcome > static_cast<uint8_t>(BatchOutcome::Stalled))
    return false;
  R.Outcome = static_cast<BatchOutcome>(Outcome);
  R.TimedOut = C.u8();
  R.Degraded = C.u8();
  R.Checks = C.u32();
  R.Alarms = C.u32();
  R.Seconds = C.f64();
  R.PeakRssKiB = C.u64();
  R.BudgetSteps = C.u64();
  R.LedgerVisits = C.u64();
  R.LedgerWidenings = C.u64();
  R.LedgerGrowth = C.u64();
  R.LedgerTimeMicros = C.u64();
  R.Error = C.str();
  uint32_t SpanLen = C.u32();
  if (const uint8_t *Spans = C.take(SpanLen))
    SpanBuf.assign(Spans, Spans + SpanLen);
  return C.done();
}

/// Hard wall-clock limit of one attempt run with \p A (0 = none): the
/// explicit KillLimitSec, else four times the cooperative deadline or
/// time limit plus a second — a run that far overdue is stuck.
double killLimitSec(const BatchOptions &Opts, const AnalyzerOptions &A) {
  if (Opts.KillLimitSec > 0)
    return Opts.KillLimitSec;
  double D = std::max({A.Budget.DeadlineSec, A.TimeLimitSec, 0.0});
  return D > 0 ? 4 * D + 1 : 0;
}

//===----------------------------------------------------------------------===//
// Worker side
//===----------------------------------------------------------------------===//

/// What every worker inherits from the parent when it is forked.
struct WorkerContext {
  const std::vector<BatchItem> &Items;
  const std::vector<std::vector<uint8_t>> &Snaps; ///< Built before forking.
  const BatchOptions &Opts;
  AnalyzerOptions Tiers[2]; ///< First attempt, lowerTierOptions retry.
  FaultPlan Plan;
};

/// The worker main loop: pull a dispatch frame, run the item under its
/// own forensics, push the result frame, repeat until shutdown.  Never
/// returns.
[[noreturn]] void workerLoop(int DispatchFd, int ResultFd,
                             const WorkerContext &Ctx) {
  for (;;) {
    uint8_t Buf[DispatchFrameBytes];
    if (!readFull(DispatchFd, Buf, sizeof(Buf)))
      _exit(0); // Parent died or closed the pipe: nothing left to do.
    ByteReader Frame(Buf, sizeof(Buf));
    uint32_t Index = Frame.u32();
    uint32_t Tier = Frame.u32();
    uint64_t ParentSpan = Frame.u64();
    if (Index == ShutdownIndex)
      _exit(0);
    if (Index >= Ctx.Items.size() || Tier > 1)
      _exit(1); // Protocol violation; die loudly.
    const BatchItem &Item = Ctx.Items[Index];
    BatchItemResult R;
    {
      // Per-item forensics: the fault plan arms under the item's name
      // (so SPA_FAULT name filters select items, never workers), and a
      // death from here on ships a postmortem summary over the result
      // pipe ahead of the EOF the parent classifies.
      FaultScope Scope(Ctx.Plan, Item.Name);
      obs::PostmortemOptions PO;
      PO.Dir = Ctx.Opts.PostmortemDir.empty() ? nullptr
                                              : Ctx.Opts.PostmortemDir.c_str();
      PO.RunId = Item.Name.c_str();
      PO.PipeFd = ResultFd;
      obs::postmortemInstall(PO);
      obs::watchdogStart(Ctx.Opts.WatchdogMs);
      maybeInjectFault("shardloop");
      obs::Tracer::global().setProcessParent(ParentSpan);
      {
        // The worker's analysis spans (phases, per-procedure dep builds,
        // fixpoint) nest under this item-root span, which itself parents
        // to the coordinator's dispatch span from the frame.
        SPA_OBS_TRACE("shard.analyze:" + Item.Name);
        R = runBatchItem(Item, &Ctx.Snaps[Index], Ctx.Opts, Ctx.Tiers[Tier]);
      }
      // A clean finish tears the forensics down, so the pre-opened
      // postmortem file is unlinked rather than left as a false positive.
      obs::postmortemUninstall();
    }
    R.PeakRssKiB = currentPeakRssKiB();
    std::vector<uint8_t> SpanBuf;
    if (obs::Tracer::global().enabled())
      SpanBuf = obs::Tracer::global().drainSerialized(MaxResultSpanBytes);
    std::vector<uint8_t> Payload = encodeResult(Index, R, SpanBuf);
    ByteWriter Out;
    Out.u32(static_cast<uint32_t>(Payload.size()));
    Out.bytes(Payload.data(), Payload.size());
    if (!writeFull(ResultFd, Out.Buf.data(), Out.Buf.size()))
      _exit(0);
  }
}

//===----------------------------------------------------------------------===//
// Parent side
//===----------------------------------------------------------------------===//

struct WorkerHandle {
  pid_t Pid = -1;      ///< -1 = no live worker in this lane.
  int DispatchFd = -1; ///< Parent writes dispatch frames here.
  int ResultFd = -1;   ///< Parent reads result frames here.
  int Item = -1;       ///< In-flight item index (-1 = idle).
  uint32_t Tier = 0;
  double DispatchSeconds = 0; ///< Batch clock at dispatch.
  double KillAt = 0;          ///< Batch-clock kill deadline (0 = none).
  uint64_t SpanId = 0;        ///< Dispatch span of the in-flight item.
  double DispatchTs = 0;      ///< obsNowMicros at dispatch (span start).
  std::vector<uint8_t> Buf;   ///< Partial result frame accumulator.
  obs::PostmortemSummary Note; ///< Shipped by a dying worker.
  bool HasNote = false;
};

/// The death rule's taxonomy: classifies the item a worker held from how
/// the worker ended (\p Status from waitpid), folding in the postmortem
/// summary the worker shipped before dying, if any.
void classifyDeath(BatchItemResult &R, int Status, bool KilledAtLimit) {
  if (KilledAtLimit) {
    R.TimedOut = true;
    R.Outcome = BatchOutcome::Timeout;
    R.Error = "killed at the isolation kill limit";
  } else if (WIFEXITED(Status) && WEXITSTATUS(Status) == OomExitCode) {
    R.Outcome = BatchOutcome::Oom;
    R.Error = "out of memory (isolated child)";
  } else if (WIFEXITED(Status) && WEXITSTATUS(Status) == obs::StallExitCode) {
    // The worker's watchdog diagnosed a heartbeat-dead fixpoint and shot
    // the process — a hang with forensics, not a timeout.
    R.Outcome = BatchOutcome::Stalled;
    R.Error = "fixpoint stalled (watchdog)";
  } else if (WIFSIGNALED(Status)) {
    R.Outcome = BatchOutcome::Crash;
    R.Error = "child killed by signal " + std::to_string(WTERMSIG(Status));
  } else {
    R.Outcome = BatchOutcome::Crash;
    R.Error = "child exited with status " +
              std::to_string(WIFEXITED(Status) ? WEXITSTATUS(Status) : -1);
  }
  // Folds the shipped postmortem into the failure text, so `--batch`
  // output answers "why did this run die" without opening the .pm.json.
  if (R.HasPostmortem && !R.CrashNote.empty())
    R.Error += "; postmortem: " + R.CrashNote;
}

} // namespace

ShardRunResult spa::runSharded(const std::vector<BatchItem> &Items,
                               const ShardOptions &Opts) {
  ShardRunResult Result;
  Result.Batch.Items.resize(Items.size());
  Result.Timing.resize(Items.size());
  for (size_t I = 0; I < Items.size(); ++I)
    Result.Batch.Items[I].Name = Items[I].Name;
  if (Items.empty())
    return Result;

  AnalyzerOptions AOpts = Opts.Batch.Analyzer;
  if (Opts.Batch.Check)
    AOpts.Dep.Bypass = false; // The checker reads input buffers.
  unsigned NumWorkers = std::max(1u, Opts.Shards);
  NumWorkers = std::min<unsigned>(NumWorkers, Items.size());
  Timer Clock;

  // Root span of the sharded run: dispatch/steal spans parent here, and
  // worker-side item spans parent to the dispatch spans, so the merged
  // Chrome trace is one tree rooted at the coordinator.
  obs::TraceScope RunSpan(obs::Tracer::global().enabled() ? "shard.run"
                                                          : std::string());
  uint64_t RunSpanId = RunSpan.spanId();

  // Phase 1: serialize every program once, in parallel, before any fork —
  // the workers inherit the bytes copy-on-write, so "shipping" an item is
  // a 16-byte dispatch frame.  Parent-side build failures classify here
  // and never enter the queue.
  std::vector<std::vector<uint8_t>> Snaps(Items.size());
  std::vector<uint8_t> BuildFailed(Items.size(), 0);
  unsigned PoolJobs = AOpts.Jobs ? AOpts.Jobs : ThreadPool::defaultJobs();
  ThreadPool::global().parallelFor(Items.size(), PoolJobs, [&](size_t I) {
    SPA_OBS_TRACE("shard.serialize:" + Items[I].Name);
    const BatchItem &It = Items[I];
    if (!It.SnapshotPath.empty()) {
      // Raw, unvalidated: the worker's strict loader is the boundary and
      // a corrupt file costs one BuildError item, not the run.
      std::ifstream In(It.SnapshotPath, std::ios::binary);
      if (!In) {
        BuildFailed[I] = 1;
        Result.Batch.Items[I].Outcome = BatchOutcome::BuildError;
        Result.Batch.Items[I].Error = "cannot read snapshot " + It.SnapshotPath;
        return;
      }
      Snaps[I].assign(std::istreambuf_iterator<char>(In),
                      std::istreambuf_iterator<char>());
      return;
    }
    BuildResult Built = buildProgramFromSource(It.Source);
    if (!Built.ok()) {
      BuildFailed[I] = 1;
      Result.Batch.Items[I].Outcome = BatchOutcome::BuildError;
      Result.Batch.Items[I].Error = Built.Error;
      return;
    }
    Snaps[I] = saveSnapshot(*Built.Prog);
  });

  WorkerContext Ctx{Items, Snaps, Opts.Batch, {AOpts, AOpts},
                    FaultPlan::fromEnv()};
  Ctx.Tiers[0].Jobs = 1; // One lane per worker; parallelism is the count.
  Ctx.Tiers[1] = lowerTierOptions(Ctx.Tiers[0]);
  const double KillLimit[2] = {killLimitSec(Opts.Batch, Ctx.Tiers[0]),
                               killLimitSec(Opts.Batch, Ctx.Tiers[1])};

  // Phase 2: fork the workers.  Spawn also replaces a dead worker, so it
  // closes every other lane's pipe ends in the child.
  std::vector<WorkerHandle> Workers(NumWorkers);
  auto Spawn = [&](unsigned W) {
    int Dispatch[2], Res[2];
    if (pipe(Dispatch) != 0)
      return;
    if (pipe(Res) != 0) {
      close(Dispatch[0]);
      close(Dispatch[1]);
      return;
    }
    pid_t Pid = fork();
    if (Pid == 0) {
      close(Dispatch[1]);
      close(Res[0]);
      for (const WorkerHandle &Other : Workers)
        if (Other.Pid > 0) {
          close(Other.DispatchFd);
          close(Other.ResultFd);
        }
      obs::journalResetForChild();
      // Span hygiene after fork: drop the parent's buffered spans; the
      // per-item process parent arrives in each dispatch frame.
      obs::Tracer::global().resetForChild(RunSpanId);
      workerLoop(Dispatch[0], Res[1], Ctx);
    }
    close(Dispatch[0]);
    close(Res[1]);
    if (Pid < 0) {
      close(Dispatch[1]);
      close(Res[0]);
      return;
    }
    WorkerHandle &H = Workers[W];
    H = WorkerHandle();
    H.Pid = Pid;
    H.DispatchFd = Dispatch[1];
    H.ResultFd = Res[0];
  };
  for (unsigned W = 0; W < NumWorkers; ++W)
    Spawn(W);

  // A dead worker's dispatch pipe raises SIGPIPE on write; we want the
  // EPIPE errno instead, handled as a death.
  struct sigaction IgnorePipe {}, OldPipe {};
  IgnorePipe.sa_handler = SIG_IGN;
  sigaction(SIGPIPE, &IgnorePipe, &OldPipe);

  // Phase 3: the dealer loop.
  std::deque<std::pair<uint32_t, uint32_t>> Queue; // (index, tier)
  for (uint32_t I = 0; I < Items.size(); ++I)
    if (!BuildFailed[I])
      Queue.emplace_back(I, 0);
  // First attempt of an item whose retry is pending, kept so a failed
  // retry restores the original classification (adoptRetry).
  std::vector<std::optional<BatchItemResult>> FirstTry(Items.size());

  auto HomeShard = [&](uint32_t I) {
    return static_cast<unsigned>(static_cast<uint64_t>(I) * NumWorkers /
                                 Items.size());
  };

  // The one retry rule, for results from frames and deaths alike.
  auto Finish = [&](uint32_t I, uint32_t Tier, BatchItemResult R) {
    if (Tier == 0 && Opts.Batch.RetryAtLowerTier && retryable(R.Outcome)) {
      SPA_OBS_COUNT("batch.retries", 1);
      FirstTry[I] = std::move(R);
      Queue.emplace_back(I, 1); // Back of the queue: the batch drains.
      return;
    }
    if (FirstTry[I]) {
      BatchItemResult First = std::move(*FirstTry[I]);
      FirstTry[I].reset();
      adoptRetry(First, std::move(R));
      R = std::move(First);
    }
    R.Name = Items[I].Name;
    Result.Batch.Items[I] = std::move(R);
  };

  // Ends W's in-flight attempt on the parent clock and closes its
  // dispatch span; returns the item index.
  auto EndAttempt = [&](unsigned WIdx) {
    WorkerHandle &W = Workers[WIdx];
    uint32_t I = static_cast<uint32_t>(W.Item);
    W.Item = -1;
    Result.Timing[I].DoneSeconds = Clock.seconds();
    Result.Timing[I].Shard = WIdx;
    if (W.SpanId != 0) {
      // The worker's shard.analyze span nests under this one.
      obs::Tracer::global().addSpan(
          std::string(HomeShard(I) != WIdx ? "shard.steal:"
                                           : "shard.dispatch:") +
              Items[I].Name,
          W.DispatchTs, obs::obsNowMicros() - W.DispatchTs, W.SpanId,
          RunSpanId);
      W.SpanId = 0;
    }
    return I;
  };

  // The death rule: reap the worker, classify its in-flight item from the
  // exit status, apply the retry rule, and fork a replacement so the
  // lane count holds.
  auto Retire = [&](unsigned WIdx, bool KilledAtLimit) {
    WorkerHandle &W = Workers[WIdx];
    close(W.DispatchFd);
    close(W.ResultFd);
    int Status = 0;
    struct rusage Usage {};
    wait4(W.Pid, &Status, 0, &Usage);
    W.Pid = -1;
    ++Result.WorkerDeaths;
    SPA_OBS_JOURNAL(ShardWorkerExit, WIdx, 1);
    if (W.Item < 0)
      return;
    uint32_t Tier = W.Tier;
    BatchItemResult R;
    R.Seconds = Clock.seconds() - W.DispatchSeconds;
    R.PeakRssKiB = static_cast<uint64_t>(Usage.ru_maxrss);
    if (W.HasNote) {
      R.CrashNote = obs::postmortemSummaryText(W.Note);
      R.HasPostmortem = true;
    }
    classifyDeath(R, Status, KilledAtLimit);
    Finish(EndAttempt(WIdx), Tier, std::move(R));
    Spawn(WIdx);
  };

  // A complete result frame from W: decode it (torn by an injected reader
  // fault, when one matches the item), and fail the item when the frame
  // is malformed — the stream stays in sync, so the worker lives on.
  auto OnFrame = [&](unsigned WIdx, const uint8_t *Data, size_t Len) {
    WorkerHandle &W = Workers[WIdx];
    if (W.Item < 0)
      return; // Nothing in flight: a stray frame carries no result.
    uint32_t I = static_cast<uint32_t>(W.Item), Tier = W.Tier;
    if (Ctx.Plan.parentSide()) {
      FaultScope Reader(Ctx.Plan, Items[I].Name);
      if (faultMatches("reader", FaultPlan::Kind::Truncate))
        Len = 0;
      else if (faultMatches("reader", FaultPlan::Kind::Partial))
        Len /= 2;
    }
    uint32_t Index = 0;
    BatchItemResult R;
    std::vector<uint8_t> SpanBuf;
    if (decodeResult(Data, Len, Index, R, SpanBuf) && Index == I) {
      if (!SpanBuf.empty())
        obs::Tracer::global().ingestSerialized(SpanBuf.data(),
                                               SpanBuf.size());
      if (HomeShard(I) != WIdx)
        ++Result.Steals;
    } else {
      R = BatchItemResult();
      R.Outcome = BatchOutcome::Crash;
      R.Error = "truncated result payload from child";
      R.Seconds = Clock.seconds() - W.DispatchSeconds;
    }
    Finish(EndAttempt(WIdx), Tier, std::move(R));
  };

  auto TryDispatch = [&](unsigned WIdx) {
    WorkerHandle &W = Workers[WIdx];
    if (W.Pid <= 0 || W.Item >= 0 || Queue.empty())
      return;
    auto [I, Tier] = Queue.front();
    Queue.pop_front();
    uint64_t Span = obs::Tracer::global().enabled()
                        ? obs::Tracer::global().allocSpanId()
                        : 0;
    ByteWriter Frame;
    Frame.u32(I);
    Frame.u32(Tier);
    Frame.u64(Span);
    W.Item = static_cast<int>(I);
    W.Tier = Tier;
    W.SpanId = Span;
    W.DispatchTs = obs::obsNowMicros();
    W.DispatchSeconds = Clock.seconds();
    W.KillAt = KillLimit[Tier] > 0 ? W.DispatchSeconds + KillLimit[Tier] : 0;
    W.HasNote = false;
    Result.Timing[I].DispatchSeconds = W.DispatchSeconds;
    Result.Timing[I].Assignments += 1;
    SPA_OBS_JOURNAL(ShardDispatch, I, WIdx);
    if (!writeFull(W.DispatchFd, Frame.Buf.data(), Frame.Buf.size()))
      Retire(WIdx, /*KilledAtLimit=*/false); // Died holding I.
  };

  for (;;) {
    unsigned Alive = 0, Busy = 0;
    for (unsigned W = 0; W < NumWorkers; ++W) {
      TryDispatch(W);
      Alive += Workers[W].Pid > 0;
      Busy += Workers[W].Pid > 0 && Workers[W].Item >= 0;
    }
    if (Busy == 0 && Queue.empty())
      break;
    if (Alive == 0) {
      // Every lane is gone (fork failed) with work still pending:
      // classify the leftovers so the caller sees failures, not silence.
      for (auto &[I, Tier] : Queue) {
        (void)Tier;
        BatchItemResult R;
        R.Outcome = BatchOutcome::Crash;
        R.Error = "no shard workers left";
        if (FirstTry[I]) {
          R = std::move(*FirstTry[I]);
          R.Retried = true;
        }
        R.Name = Items[I].Name;
        Result.Batch.Items[I] = std::move(R);
      }
      Queue.clear();
      break;
    }

    // Sleep until a frame, a death (EOF), or the nearest kill deadline.
    std::vector<pollfd> Fds;
    std::vector<unsigned> FdWorker;
    double Now = Clock.seconds();
    int TimeoutMs = -1;
    for (unsigned W = 0; W < NumWorkers; ++W) {
      const WorkerHandle &H = Workers[W];
      if (H.Pid <= 0)
        continue;
      Fds.push_back({H.ResultFd, POLLIN, 0});
      FdWorker.push_back(W);
      if (H.Item >= 0 && H.KillAt > 0) {
        int Ms = static_cast<int>(std::ceil((H.KillAt - Now) * 1000));
        TimeoutMs = TimeoutMs < 0 ? std::max(Ms, 0)
                                  : std::min(TimeoutMs, std::max(Ms, 0));
      }
    }
    int N = poll(Fds.data(), Fds.size(), TimeoutMs);
    for (size_t F = 0; N > 0 && F < Fds.size(); ++F) {
      if (!(Fds[F].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      unsigned WIdx = FdWorker[F];
      WorkerHandle &W = Workers[WIdx];
      uint8_t Chunk[1 << 16];
      ssize_t Got = read(W.ResultFd, Chunk, sizeof(Chunk));
      if (Got < 0 && errno == EINTR)
        continue;
      if (Got <= 0) {
        Retire(WIdx, /*KilledAtLimit=*/false);
        continue;
      }
      W.Buf.insert(W.Buf.end(), Chunk, Chunk + Got);
      size_t Pos = 0;
      bool Retired = false; // W may now be a fresh replacement.
      while (W.Buf.size() - Pos >= 4) {
        uint32_t Len = ByteReader(W.Buf.data() + Pos, 4).u32();
        if (Len == obs::PostmortemPipeMagic) {
          // A dying worker's postmortem summary; its EOF follows.
          if (W.Buf.size() - Pos < 4 + sizeof(W.Note))
            break;
          std::memcpy(&W.Note, W.Buf.data() + Pos + 4, sizeof(W.Note));
          W.HasNote = true;
          Pos += 4 + sizeof(W.Note);
          continue;
        }
        if (Len > MaxFrameBytes) {
          // The stream cannot be resynced: treat the worker as dead.
          kill(W.Pid, SIGKILL);
          Retire(WIdx, /*KilledAtLimit=*/false);
          Retired = true;
          break;
        }
        if (W.Buf.size() - Pos < 4 + static_cast<size_t>(Len))
          break;
        OnFrame(WIdx, W.Buf.data() + Pos + 4, Len);
        Pos += 4 + Len;
      }
      if (!Retired)
        W.Buf.erase(W.Buf.begin(), W.Buf.begin() + Pos);
    }

    // Kill-limit enforcement: a result that raced the deadline was
    // consumed above, so whatever is still in flight here is overdue.
    Now = Clock.seconds();
    for (unsigned W = 0; W < NumWorkers; ++W) {
      WorkerHandle &H = Workers[W];
      if (H.Pid > 0 && H.Item >= 0 && H.KillAt > 0 && Now >= H.KillAt) {
        kill(H.Pid, SIGKILL);
        Retire(W, /*KilledAtLimit=*/true);
      }
    }
  }

  // Phase 4: shutdown and reap.
  ByteWriter Bye;
  Bye.u32(ShutdownIndex);
  Bye.u32(0);
  Bye.u64(0);
  for (WorkerHandle &W : Workers) {
    if (W.Pid <= 0)
      continue;
    writeFull(W.DispatchFd, Bye.Buf.data(), Bye.Buf.size());
    close(W.DispatchFd);
    close(W.ResultFd);
    waitpid(W.Pid, nullptr, 0);
    W.Pid = -1;
    SPA_OBS_JOURNAL(ShardWorkerExit, static_cast<unsigned>(&W - &Workers[0]),
                    0);
  }
  sigaction(SIGPIPE, &OldPipe, nullptr);
  Result.Batch.Seconds = Clock.seconds();

  publishBatchGauges(Result.Batch, NumWorkers);
  SPA_OBS_GAUGE_SET("shard.workers", NumWorkers);
  SPA_OBS_GAUGE_SET("shard.items", Items.size());
  SPA_OBS_GAUGE_SET("shard.steals", Result.Steals);
  SPA_OBS_GAUGE_SET("shard.deaths", Result.WorkerDeaths);
  obs::MetricsSink::appendBenchRecord("shard", batchEngineName(AOpts.Engine),
                                      Result.Batch.numFailed() == 0);
  return Result;
}
