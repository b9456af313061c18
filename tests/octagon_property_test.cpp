//===- octagon_property_test.cpp - Octagon domain property tests ------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized properties of the octagon domain checked against
/// brute-force enumeration over a bounded integer grid: satisfying
/// points survive every operation that claims soundness, projections are
/// exact on closed octagons, and the lattice laws hold.  An added
/// constraint closes to the same matrix as the full closure (meet), and
/// writes to a copy never reach the octagon it shares a matrix with.
///
//===----------------------------------------------------------------------===//

#include "oct/Octagon.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <vector>

using namespace spa;

namespace {

constexpr int GridLo = -6, GridHi = 6;

/// A random octagon over \p N variables built from a handful of random
/// unary and binary constraints, plus the concrete grid points that
/// satisfy those constraints (computed independently).
struct Sample {
  Oct O;
  std::vector<std::vector<int64_t>> Points; // Satisfying grid points.
};

Sample randomOctagon(Rng &R, uint32_t N) {
  struct Constraint {
    uint32_t V, W;
    bool PosV, PosW;
    int64_t C;
  };
  std::vector<Constraint> Cs;
  unsigned Count = 1 + static_cast<unsigned>(R.below(5));
  for (unsigned I = 0; I < Count; ++I) {
    Constraint C;
    C.V = static_cast<uint32_t>(R.below(N));
    C.W = static_cast<uint32_t>(R.below(N));
    C.PosV = R.chance(50);
    C.PosW = R.chance(50);
    C.C = R.range(-6, 10);
    Cs.push_back(C);
  }

  Sample S{Oct::top(N), {}};
  for (const Constraint &C : Cs)
    S.O = S.O.addSumConstraint(C.V, C.PosV, C.W, C.PosW, C.C);

  // Enumerate the grid.
  std::vector<int64_t> Pt(N, GridLo);
  for (;;) {
    bool Ok = true;
    for (const Constraint &C : Cs) {
      int64_t Lhs = (C.PosV ? Pt[C.V] : -Pt[C.V]) +
                    (C.PosW ? Pt[C.W] : -Pt[C.W]);
      if (Lhs > C.C) {
        Ok = false;
        break;
      }
    }
    if (Ok)
      S.Points.push_back(Pt);
    // Advance odometer.
    uint32_t I = 0;
    while (I < N && ++Pt[I] > GridHi) {
      Pt[I] = GridLo;
      ++I;
    }
    if (I == N)
      break;
  }
  return S;
}

bool contains(const Oct &O, const std::vector<int64_t> &Pt) {
  for (uint32_t V = 0; V < O.numVars(); ++V) {
    if (!O.project(V).contains(Pt[V]))
      return false;
    for (uint32_t W = 0; W < O.numVars(); ++W) {
      if (V == W)
        continue;
      if (!O.projectDiff(V, W).contains(Pt[V] - Pt[W]))
        return false;
      if (!O.projectSum(V, W).contains(Pt[V] + Pt[W]))
        return false;
    }
  }
  return true;
}

} // namespace

class OctagonProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OctagonProperties, ConstraintsAreSound) {
  Rng R(GetParam() * 1234567);
  for (int Iter = 0; Iter < 20; ++Iter) {
    uint32_t N = 2 + static_cast<uint32_t>(R.below(2));
    Sample S = randomOctagon(R, N);
    if (S.Points.empty()) {
      // The grid found no solutions; the octagon may still be satisfiable
      // outside the grid, so nothing to check.
      continue;
    }
    EXPECT_FALSE(S.O.isBottom());
    for (const auto &Pt : S.Points)
      EXPECT_TRUE(contains(S.O, Pt));
  }
}

TEST_P(OctagonProperties, LatticeLaws) {
  Rng R(GetParam() * 777);
  for (int Iter = 0; Iter < 20; ++Iter) {
    uint32_t N = 2 + static_cast<uint32_t>(R.below(2));
    Sample A = randomOctagon(R, N);
    Sample B = randomOctagon(R, N);
    Oct J = A.O.join(B.O);
    EXPECT_TRUE(A.O.leq(J));
    EXPECT_TRUE(B.O.leq(J));
    EXPECT_EQ(J, B.O.join(A.O));
    EXPECT_EQ(A.O.join(A.O), A.O);

    Oct M = A.O.meet(B.O);
    EXPECT_TRUE(M.leq(A.O));
    EXPECT_TRUE(M.leq(B.O));

    // Join soundness: points of either side stay inside.
    for (const auto &Pt : A.Points)
      EXPECT_TRUE(contains(J, Pt));
    for (const auto &Pt : B.Points)
      EXPECT_TRUE(contains(J, Pt));

    // Meet soundness: common points survive.
    for (const auto &Pt : A.Points) {
      bool InB = contains(B.O, Pt);
      if (InB && !M.isBottom()) {
        EXPECT_TRUE(contains(M, Pt));
      }
    }

    // Widening covers the join and is stable once reached.
    Oct W = A.O.widen(J);
    EXPECT_TRUE(J.leq(W));
    EXPECT_EQ(W.widen(W.join(B.O)), W);
  }
}

TEST_P(OctagonProperties, TransferSoundness) {
  Rng R(GetParam() * 31415);
  for (int Iter = 0; Iter < 20; ++Iter) {
    uint32_t N = 3;
    Sample S = randomOctagon(R, N);
    if (S.Points.empty())
      continue;
    uint32_t V = static_cast<uint32_t>(R.below(N));
    uint32_t W = static_cast<uint32_t>(R.below(N));
    int64_t C = R.range(-3, 3);

    // v := w + c over every satisfying point.
    Oct Assigned = S.O.assignVarPlusConst(V, W, C);
    for (auto Pt : S.Points) {
      Pt[V] = Pt[W] + C;
      EXPECT_TRUE(contains(Assigned, Pt));
    }

    // forget(v): any value of v is allowed.
    Oct F = S.O.forget(V);
    for (auto Pt : S.Points) {
      Pt[V] = R.range(GridLo, GridHi);
      EXPECT_TRUE(contains(F, Pt));
    }

    // Interval assignment.
    Interval Itv(R.range(-4, 0), R.range(0, 4));
    Oct IA = S.O.assignInterval(V, Itv);
    for (auto Pt : S.Points) {
      Pt[V] = Itv.lo();
      EXPECT_TRUE(contains(IA, Pt));
      Pt[V] = Itv.hi();
      EXPECT_TRUE(contains(IA, Pt));
    }
  }
}

TEST_P(OctagonProperties, AddedConstraintClosesLikeTheFullClosure) {
  // addSumConstraint closes incrementally; meet runs the full closure.
  // The tight closure is canonical, so both give the same matrix.
  Rng R(GetParam() * 2718281);
  for (int Iter = 0; Iter < 40; ++Iter) {
    uint32_t N = 2 + static_cast<uint32_t>(R.below(3));
    Sample S = randomOctagon(R, N);
    uint32_t V = static_cast<uint32_t>(R.below(N));
    uint32_t W = static_cast<uint32_t>(R.below(N));
    bool PosV = R.chance(50), PosW = R.chance(50);
    int64_t C = R.range(-8, 8);
    auto Full = [&](const Oct &O, bool PV, bool PW, int64_t K) {
      return O.meet(Oct::top(N).addSumConstraint(V, PV, W, PW, K));
    };
    Oct Added = S.O.addSumConstraint(V, PosV, W, PosW, C);
    EXPECT_EQ(Added, Full(S.O, PosV, PosW, C));
    // The opposite bound one past C leaves no point: ⊥ on both sides.
    Oct Infeasible = Added.addSumConstraint(V, !PosV, W, !PosW, -C - 1);
    EXPECT_TRUE(Infeasible.isBottom());
    EXPECT_EQ(Infeasible, Full(Added, !PosV, !PosW, -C - 1));
  }
}

TEST_P(OctagonProperties, WritesToACopyLeaveTheOriginal) {
  // Copies share one matrix; each operation below writes to the copy's
  // result, which must not reach the original.
  Rng R(GetParam() * 1618033);
  for (int Iter = 0; Iter < 20; ++Iter) {
    uint32_t N = 2 + static_cast<uint32_t>(R.below(2));
    Sample S = randomOctagon(R, N);
    const Oct Original = S.O;
    const Oct Deep = Original.meet(Oct::top(N)); // A buffer of its own.
    uint32_t V = static_cast<uint32_t>(R.below(N));
    uint32_t W = static_cast<uint32_t>(R.below(N));
    int64_t C = R.range(-3, 3);
    Oct Copy = Original;
    Copy = Copy.forget(V);
    EXPECT_EQ(Original, Deep);
    Copy = Original;
    Copy = Copy.assignInterval(V, Interval(R.range(-4, 0), R.range(0, 4)));
    EXPECT_EQ(Original, Deep);
    Copy = Original;
    Copy = Copy.assignVarPlusConst(V, W, C);
    EXPECT_EQ(Original, Deep);
    Copy = Original;
    Copy = Copy.assignVarPlusConst(V, V, C);
    EXPECT_EQ(Original, Deep);
    Copy = Original;
    Copy = Copy.addSumConstraint(V, R.chance(50), W, R.chance(50),
                                 R.range(-6, 6));
    EXPECT_EQ(Original, Deep);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OctagonProperties,
                         ::testing::Range<uint64_t>(1, 11));
