//===- pipeline_scaling.cpp - Sequential vs parallel pipeline ablation -----------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock per phase for the sequential pipeline (--jobs=1) against
/// the parallel one (SPA_JOBS or all cores): per-procedure def/use
/// collection, dependency construction, and the partitioned sparse
/// fixpoint, plus whole-batch throughput (programs/sec) over the suite.
/// The parallel runs are bit-identical to the sequential ones by
/// construction (docs/PARALLELISM.md; enforced by
/// tests/parallel_determinism_test), so the only question this bench
/// answers is time.  Each program's sequential/parallel pair runs 4
/// times, interleaved, and the table prints the fastest run per lane
/// count.  With SPA_BENCH_JSON set, each run appends one JSONL record
/// whose metrics include the phase.*.seconds / phase.*.cpu_seconds split
/// and the par.* gauges.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "obs/Metrics.h"
#include "serve/Service.h"
#include "support/ThreadPool.h"
#include "workload/Batch.h"
#include "workload/ShardCoordinator.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

using namespace spa;
using namespace spa::bench;

int main() {
  double Scale = suiteScaleFromEnv(0.25);
  // At least 2 lanes so the parallel configuration exercises the
  // partitioned/pooled code paths even on a single-core machine (where
  // defaultJobs() is 1 and no wall-clock win is physically possible).
  unsigned Par = std::max(2u, ThreadPool::defaultJobs());
  std::printf("Pipeline scaling: sequential (--jobs=1) vs parallel "
              "(--jobs=%u), scale=%.2f\n\n",
              Par, Scale);
  std::printf("%-20s | %7s %7s %7s %7s | %7s %7s %7s %7s | %6s\n",
              "Program", "du-1", "dep-1", "fix-1", "tot-1", "du-N",
              "dep-N", "fix-N", "tot-N", "same");

  std::vector<SuiteEntry> Suite = paperSuite(Scale);
  double Tot1 = 0, TotN = 0;
  bool AllSame = true;
  for (const SuiteEntry &E : Suite) {
    std::unique_ptr<Program> Prog = buildEntry(E);

    // One run at Jobs lanes; Best keeps the fastest run so far.
    auto RunWith = [&](unsigned Jobs, std::optional<AnalysisRun> &Best) {
      AnalyzerOptions Opts;
      Opts.Jobs = Jobs;
      AnalysisRun Run = recordRun(
          "pipeline:" + E.Name + ":jobs" + std::to_string(Jobs),
          engineName(Opts.Engine),
          [&] { return analyzeProgram(*Prog, Opts); });
      if (!Best || Run.totalSeconds() < Best->totalSeconds())
        Best = std::move(Run);
    };
    // Interleaved best-of-4, as in the guard ablation below: the order
    // alternates so slow drift cannot bias one lane count.
    std::optional<AnalysisRun> BestSeq, BestPar;
    for (int Rep = 0; Rep < 4; ++Rep) {
      bool ParFirst = Rep % 2;
      RunWith(ParFirst ? Par : 1, ParFirst ? BestPar : BestSeq);
      RunWith(ParFirst ? 1 : Par, ParFirst ? BestSeq : BestPar);
    }
    const AnalysisRun &Seq = *BestSeq, &Parl = *BestPar;
    // Cheap equality proxies; the full R.In/R.Out/alarm comparison lives
    // in tests/parallel_determinism_test.
    bool Same = Seq.Sparse && Parl.Sparse &&
                Seq.Sparse->Visits == Parl.Sparse->Visits &&
                Seq.Sparse->StateEntries == Parl.Sparse->StateEntries &&
                Seq.Graph->EdgesBeforeBypass ==
                    Parl.Graph->EdgesBeforeBypass;
    AllSame = AllSame && Same;
    Tot1 += Seq.totalSeconds();
    TotN += Parl.totalSeconds();
    std::printf("%-20s | %7s %7s %7s %7s | %7s %7s %7s %7s | %6s\n",
                E.Name.c_str(),
                fmtSeconds(Seq.DefUseSeconds, false).c_str(),
                fmtSeconds(Seq.depBuildSeconds(), false).c_str(),
                fmtSeconds(Seq.fixSeconds(), false).c_str(),
                fmtSeconds(Seq.totalSeconds(), false).c_str(),
                fmtSeconds(Parl.DefUseSeconds, false).c_str(),
                fmtSeconds(Parl.depBuildSeconds(), false).c_str(),
                fmtSeconds(Parl.fixSeconds(), false).c_str(),
                fmtSeconds(Parl.totalSeconds(), false).c_str(),
                Same ? "yes" : "NO");
  }
  std::printf("\nsuite totals: sequential %.2fs, parallel %.2fs "
              "(%.2fx)\n",
              Tot1, TotN, TotN > 0 ? Tot1 / TotN : 0);

  // Whole-batch throughput: the outer program-level fan-out, which
  // parallelizes even when each program is one dependency component.
  for (unsigned Jobs : {1u, Par}) {
    BatchOptions BOpts;
    BOpts.Analyzer.Jobs = Jobs;
    BatchResult R = recordRun(
        "pipeline:batch:jobs" + std::to_string(Jobs),
        engineName(BOpts.Analyzer.Engine),
        [&] { return runBatch(suiteBatch(Scale), BOpts); });
    std::printf("batch --jobs=%-2u: %zu programs in %.2fs "
                "(%.2f programs/sec, %zu failed)\n",
                Jobs, R.Items.size(), R.Seconds, R.programsPerSec(),
                R.numFailed());
  }
  // Budget-guard overhead: the cooperative budget checks sit inside
  // every fixpoint loop even when no limits are set (a null token) and
  // when generous limits never trip (the armed token).  Both batch runs
  // must produce identical full-precision results; the wall-clock delta
  // is the guard cost docs/ROBUSTNESS.md bounds at <= 2%.
  double GuardCpu = 0;
  auto GuardRun = [&](const char *Name, const BudgetLimits &Limits) {
    BatchOptions BOpts;
    BOpts.Analyzer.Jobs = Par;
    BOpts.Analyzer.Budget = Limits;
    return recordRun(std::string("guard:") + Name,
                     engineName(BOpts.Analyzer.Engine), [&] {
                       CpuTimer Cpu;
                       BatchResult R = runBatch(suiteBatch(Scale), BOpts);
                       GuardCpu = Cpu.seconds();
                       SPA_OBS_GAUGE_SET("batch.cpu_seconds", GuardCpu);
                       return R;
                     });
  };
  BudgetLimits Generous;
  Generous.DeadlineSec = 86400;
  Generous.StepLimit = UINT64_MAX / 2;
  Generous.MemLimitKiB = UINT64_MAX / 2;
  // Warm-up pass so neither timed configuration pays first-touch costs,
  // then interleaved best-of-3 per configuration: scheduler noise at
  // this scale dwarfs the guard cost, and the minimum is the standard
  // noise-robust wall-clock estimator.
  GuardRun("warmup", BudgetLimits{});
  double OffSec = 0, OnSec = 0, OffCpu = 0, OnCpu = 0;
  size_t OnDegraded = 0, OnFailed = 0;
  for (int Rep = 0; Rep < 4; ++Rep) {
    // Alternate which configuration goes first so slow drift (allocator
    // growth, thermal state) cannot bias one side.
    bool OnFirst = Rep % 2;
    BatchResult A =
        OnFirst ? GuardRun("on", Generous) : GuardRun("off", BudgetLimits{});
    double ACpu = GuardCpu;
    BatchResult B =
        OnFirst ? GuardRun("off", BudgetLimits{}) : GuardRun("on", Generous);
    double BCpu = GuardCpu;
    BatchResult &Off = OnFirst ? B : A;
    BatchResult &On = OnFirst ? A : B;
    OffSec = Rep ? std::min(OffSec, Off.Seconds) : Off.Seconds;
    OnSec = Rep ? std::min(OnSec, On.Seconds) : On.Seconds;
    OffCpu = Rep ? std::min(OffCpu, OnFirst ? BCpu : ACpu)
                 : (OnFirst ? BCpu : ACpu);
    OnCpu = Rep ? std::min(OnCpu, OnFirst ? ACpu : BCpu)
                : (OnFirst ? ACpu : BCpu);
    OnDegraded += On.numDegraded();
    OnFailed += On.numFailed();
  }
  double OverheadPct = OffSec > 0 ? 100.0 * (OnSec - OffSec) / OffSec : 0;
  double CpuOverheadPct =
      OffCpu > 0 ? 100.0 * (OnCpu - OffCpu) / OffCpu : 0;
  std::printf("budget guards: disabled %.3fs (cpu %.3fs), enabled %.3fs "
              "(cpu %.3fs): %+.2f%% wall / %+.2f%% cpu overhead, "
              "%zu degraded\n",
              OffSec, OffCpu, OnSec, OnCpu, OverheadPct, CpuOverheadPct,
              OnDegraded);
  if (OnDegraded > 0 || OnFailed > 0) {
    std::printf("\nerror: generous budget limits degraded the batch\n");
    return 1;
  }

  // Resident-daemon ablation: a warm serve::Service answering repeat
  // requests from its cache (the byte-identity fast path — no parse, no
  // encode, no fixpoint) against a cold service (Incremental off, the
  // --no-incremental ablation) that re-analyzes every request.  Result
  // digests must match exactly; the wall-clock ratio is the
  // serve_memo_speedup BENCH_pipeline.json reports (docs/SERVER.md).
  {
    std::vector<serve::AnalyzeRequest> Requests;
    for (const SuiteEntry &E : Suite) {
      std::string Src = generateSource(E.Config);
      serve::AnalyzeRequest Req;
      Req.Jobs = Par;
      Req.Program.assign(Src.begin(), Src.end());
      Requests.push_back(std::move(Req));
    }
    bool ServeOk = true;
    auto serveSuite = [&](serve::Service &Svc, std::vector<uint64_t> &Digests,
                          bool &AllHits) {
      Digests.clear();
      AllHits = true;
      for (const serve::AnalyzeRequest &Req : Requests) {
        serve::AnalyzeResponse Resp;
        std::string Error;
        if (Svc.analyze(Req, Resp, Error) != serve::ServeErrc::None) {
          std::fprintf(stderr, "error: serve ablation: %s\n", Error.c_str());
          ServeOk = false;
          return;
        }
        Digests.push_back(Resp.ResultDigest);
        AllHits = AllHits && Resp.CacheHit;
      }
    };
    // One resident warm service for the whole ablation, primed untimed;
    // every timed warm pass must then be pure cache hits.
    serve::Service WarmSvc(serve::ServiceOptions{});
    auto ServeRun = [&](const char *Name, bool Warm,
                        std::vector<uint64_t> &Digests, bool &AllHits) {
      serve::ServiceOptions ColdOpts;
      ColdOpts.Incremental = false;
      serve::Service ColdSvc(ColdOpts);
      serve::Service &Svc = Warm ? WarmSvc : ColdSvc;
      double Sec = 0;
      recordRun(std::string("serve:") + Name, "sparse", [&] {
        Timer T;
        serveSuite(Svc, Digests, AllHits);
        Sec = T.seconds();
        SPA_OBS_GAUGE_SET("batch.seconds", Sec);
      });
      return Sec;
    };
    std::vector<uint64_t> ColdD, WarmD, RefD;
    bool ColdHits = false, WarmHits = false;
    ServeRun("warmup", true, RefD, ColdHits); // primes WarmSvc
    RefD.clear();
    double SrvColdSec = 0, SrvWarmSec = 0;
    for (int Rep = 0; ServeOk && Rep < 2; ++Rep) {
      bool WarmFirst = Rep % 2;
      double A = WarmFirst ? ServeRun("warm", true, WarmD, WarmHits)
                           : ServeRun("cold", false, ColdD, ColdHits);
      double B = WarmFirst ? ServeRun("cold", false, ColdD, ColdHits)
                           : ServeRun("warm", true, WarmD, WarmHits);
      double ColdSec = WarmFirst ? B : A;
      double WarmSec = WarmFirst ? A : B;
      SrvColdSec = Rep ? std::min(SrvColdSec, ColdSec) : ColdSec;
      SrvWarmSec = Rep ? std::min(SrvWarmSec, WarmSec) : WarmSec;
      if (RefD.empty())
        RefD = ColdD;
      ServeOk = ServeOk && ColdD == RefD && WarmD == RefD && WarmHits &&
                !ColdHits;
    }
    std::printf("serve cache: cold %.3fs, warm %.4fs (%.0fx speedup, "
                "%zu programs)\n",
                SrvColdSec, SrvWarmSec,
                SrvWarmSec > 0 ? SrvColdSec / SrvWarmSec : 0,
                Requests.size());
    if (!ServeOk) {
      std::printf("\nerror: serve ablation diverged from cold results\n");
      return 1;
    }
  }

  // Work-stealing shard coordinator over the same suite: one record
  // ("shard") with the shard.* gauges for the summary JSON.
  {
    ShardOptions SOpts;
    SOpts.Shards = Par;
    ShardRunResult SR = runSharded(suiteBatch(Scale), SOpts);
    std::printf("shards=%-2u: %zu programs in %.2fs (%llu steals, %u "
                "worker deaths, %zu failed)\n",
                SOpts.Shards, SR.Batch.Items.size(), SR.Batch.Seconds,
                static_cast<unsigned long long>(SR.Steals),
                SR.WorkerDeaths, SR.Batch.numFailed());
    if (SR.Batch.numFailed() > 0) {
      std::printf("\nerror: sharded batch had failures\n");
      return 1;
    }
  }

  if (!AllSame) {
    std::printf("\nerror: parallel results diverged from sequential\n");
    return 1;
  }
  return 0;
}
