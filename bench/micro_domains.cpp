//===- micro_domains.cpp - Domain-operation microbenchmarks -----------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the operations the macro numbers
/// decompose into: interval arithmetic, abstract-state joins (the dense
/// engines' bottleneck), octagon closure (the Table 3 cost driver), and
/// BDD insertion/iteration (the Section 5 storage trade-off).
///
//===----------------------------------------------------------------------===//

#include "core/BddDepStorage.h"
#include "domains/AbsState.h"
#include "domains/IdSet.h"
#include "oct/Octagon.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

using namespace spa;

namespace {

void BM_IntervalJoinWiden(benchmark::State &State) {
  Rng R(42);
  std::vector<Interval> Xs;
  for (int I = 0; I < 1024; ++I)
    Xs.push_back(Interval(R.range(-100, 0), R.range(0, 100)));
  size_t I = 0;
  for (auto _ : State) {
    Interval A = Xs[I % Xs.size()], B = Xs[(I + 7) % Xs.size()];
    benchmark::DoNotOptimize(A.join(B));
    benchmark::DoNotOptimize(A.widen(B));
    benchmark::DoNotOptimize(A.add(B));
    ++I;
  }
}
BENCHMARK(BM_IntervalJoinWiden);

void BM_AbsStateJoin(benchmark::State &State) {
  // Dense-engine shape: joining two states over `Size` locations.
  size_t Size = static_cast<size_t>(State.range(0));
  AbsState A, B;
  Rng R(7);
  for (size_t I = 0; I < Size; ++I) {
    A.set(LocId(static_cast<uint32_t>(2 * I)),
          Value::constant(R.range(-50, 50)));
    B.set(LocId(static_cast<uint32_t>(2 * I + (I % 2))),
          Value::constant(R.range(-50, 50)));
  }
  for (auto _ : State) {
    AbsState C = A;
    benchmark::DoNotOptimize(C.joinWith(B));
  }
  State.SetComplexityN(static_cast<int64_t>(Size));
}
BENCHMARK(BM_AbsStateJoin)->Range(64, 16384)->Complexity();

void BM_PtsSetJoin(benchmark::State &State) {
  // Sparse-edge shape: joining points-to sets of `Size` ids.  Beyond
  // two ids the operands are pooled, so steady-state joins resolve in
  // the interner's memo cache instead of allocating a union.
  size_t Size = static_cast<size_t>(State.range(0));
  std::vector<LocId> A, B;
  for (size_t I = 0; I < Size; ++I) {
    A.push_back(LocId(static_cast<uint32_t>(2 * I)));
    B.push_back(LocId(static_cast<uint32_t>(2 * I + 1)));
  }
  PtsSet SA = PtsSet::fromSorted(std::move(A));
  PtsSet SB = PtsSet::fromSorted(std::move(B));
  for (auto _ : State)
    benchmark::DoNotOptimize(SA.join(SB));
}
BENCHMARK(BM_PtsSetJoin)->Arg(2)->Arg(8)->Arg(64)->Arg(512);

void BM_PtsSetEquality(benchmark::State &State) {
  // Canonical-form payoff: equality of equal `Size`-element sets is a
  // tag/id compare, independent of cardinality.
  size_t Size = static_cast<size_t>(State.range(0));
  std::vector<LocId> A, B;
  for (size_t I = 0; I < Size; ++I) {
    A.push_back(LocId(static_cast<uint32_t>(I)));
    B.push_back(LocId(static_cast<uint32_t>(I)));
  }
  PtsSet SA = PtsSet::fromSorted(std::move(A));
  PtsSet SB = PtsSet::fromSorted(std::move(B));
  for (auto _ : State) {
    benchmark::DoNotOptimize(SA == SB);
    benchmark::DoNotOptimize(SA.leq(SB));
  }
}
BENCHMARK(BM_PtsSetEquality)->Arg(2)->Arg(64)->Arg(4096);

void BM_AbsStateCopy(benchmark::State &State) {
  // In/Out buffer shape: copying a `Size`-entry state.  With the COW
  // buffer the copy itself is O(1); the `/write` variant pays the
  // detach (one clone) on first mutation, bounding the worst case.
  size_t Size = static_cast<size_t>(State.range(0));
  bool Write = State.range(1) != 0;
  AbsState A;
  Rng R(21);
  for (size_t I = 0; I < Size; ++I)
    A.set(LocId(static_cast<uint32_t>(I)), Value::constant(R.range(-50, 50)));
  for (auto _ : State) {
    AbsState C = A;
    if (Write)
      C.set(LocId(0), Value::constant(1));
    benchmark::DoNotOptimize(C.size());
  }
}
BENCHMARK(BM_AbsStateCopy)
    ->ArgsProduct({{64, 1024, 16384}, {0, 1}});

/// Pack-sized octagons built one constraint at a time: each insertion
/// closes the already closed matrix again incrementally, in O(n²).
void BM_OctClose(benchmark::State &State) {
  uint32_t N = static_cast<uint32_t>(State.range(0));
  Rng R(13);
  for (auto _ : State) {
    Oct O = Oct::top(N);
    for (uint32_t I = 0; I + 1 < N; ++I)
      O = O.addDiffConstraint(I, I + 1, R.range(-3, 3));
    benchmark::DoNotOptimize(O.project(0));
  }
}
BENCHMARK(BM_OctClose)->Arg(2)->Arg(5)->Arg(10);

void BM_OctJoin(benchmark::State &State) {
  uint32_t N = 10;
  Oct A = Oct::top(N), B = Oct::top(N);
  for (uint32_t I = 0; I + 1 < N; ++I) {
    A = A.addDiffConstraint(I, I + 1, 1);
    B = B.addDiffConstraint(I + 1, I, 2);
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(A.join(B));
}
BENCHMARK(BM_OctJoin);

void BM_SetDepStorageAdd(benchmark::State &State) {
  Rng R(99);
  for (auto _ : State) {
    SetDepStorage S(1024);
    for (int I = 0; I < 4096; ++I)
      S.add(static_cast<uint32_t>(R.below(1024)),
            LocId(static_cast<uint32_t>(R.below(256))),
            static_cast<uint32_t>(R.below(1024)));
    benchmark::DoNotOptimize(S.edgeCount());
  }
}
BENCHMARK(BM_SetDepStorageAdd);

void BM_BddDepStorageAdd(benchmark::State &State) {
  Rng R(99);
  for (auto _ : State) {
    BddDepStorage S(1024, 256);
    for (int I = 0; I < 4096; ++I)
      S.add(static_cast<uint32_t>(R.below(1024)),
            LocId(static_cast<uint32_t>(R.below(256))),
            static_cast<uint32_t>(R.below(1024)));
    benchmark::DoNotOptimize(S.edgeCount());
  }
}
BENCHMARK(BM_BddDepStorageAdd);

void BM_BddDepStorageIterate(benchmark::State &State) {
  Rng R(99);
  BddDepStorage S(1024, 256);
  for (int I = 0; I < 4096; ++I)
    S.add(static_cast<uint32_t>(R.below(1024)),
          LocId(static_cast<uint32_t>(R.below(256))),
          static_cast<uint32_t>(R.below(1024)));
  for (auto _ : State) {
    uint64_t Count = 0;
    for (uint32_t Src = 0; Src < 1024; ++Src)
      S.forEachOut(Src, [&](LocId, uint32_t) { ++Count; });
    benchmark::DoNotOptimize(Count);
  }
}
BENCHMARK(BM_BddDepStorageIterate);

} // namespace

BENCHMARK_MAIN();
