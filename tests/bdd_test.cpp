//===- bdd_test.cpp - BDD package and BDD dep-storage tests ---------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"
#include "core/BddDepStorage.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

using namespace spa;

TEST(Bdd, TerminalRules) {
  BddManager M(4);
  BddRef X = M.var(0), Y = M.var(1);
  EXPECT_EQ(M.andOp(X, M.trueBdd()), X);
  EXPECT_EQ(M.andOp(X, M.falseBdd()), M.falseBdd());
  EXPECT_EQ(M.orOp(X, M.falseBdd()), X);
  EXPECT_EQ(M.orOp(X, M.trueBdd()), M.trueBdd());
  EXPECT_EQ(M.notOp(M.notOp(X)), X);
  EXPECT_EQ(M.andOp(X, X), X);
  EXPECT_EQ(M.xorOp(X, X), M.falseBdd());
  EXPECT_NE(M.andOp(X, Y), M.orOp(X, Y));
}

TEST(Bdd, HashConsingSharesStructure) {
  BddManager M(8);
  // Building the same function twice yields the same node.
  BddRef A = M.andOp(M.var(0), M.orOp(M.var(3), M.nvar(5)));
  BddRef B = M.andOp(M.var(0), M.orOp(M.var(3), M.nvar(5)));
  EXPECT_EQ(A, B);
}

TEST(Bdd, RestrictAndExists) {
  BddManager M(3);
  // f = (x0 & x1) | x2
  BddRef F = M.orOp(M.andOp(M.var(0), M.var(1)), M.var(2));
  EXPECT_EQ(M.restrict(F, 0, true), M.orOp(M.var(1), M.var(2)));
  EXPECT_EQ(M.restrict(F, 0, false), M.var(2));
  // Exists x1. f = x0 | x2
  EXPECT_EQ(M.exists(F, 1), M.orOp(M.var(0), M.var(2)));
}

TEST(Bdd, SatCount) {
  BddManager M(4);
  EXPECT_EQ(M.satCount(M.falseBdd()), 0);
  EXPECT_EQ(M.satCount(M.trueBdd()), 16);
  EXPECT_EQ(M.satCount(M.var(0)), 8);
  EXPECT_EQ(M.satCount(M.andOp(M.var(0), M.var(3))), 4);
  EXPECT_EQ(M.satCount(M.xorOp(M.var(1), M.var(2))), 8);
}

/// Random-formula property test: BDD operations agree with brute-force
/// truth-table evaluation.
class BddSemantics : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BddSemantics, MatchesTruthTables) {
  const uint32_t NumVars = 6;
  Rng R(GetParam());
  BddManager M(NumVars);

  // Build a random formula both as a BDD and as an evaluator tree.
  struct Node {
    int Kind; // 0 = literal, 1 = and, 2 = or, 3 = xor, 4 = not.
    uint32_t Var = 0;
    bool Neg = false;
    int L = -1, Rn = -1;
  };
  std::vector<Node> Nodes;
  std::vector<BddRef> Refs;
  for (int I = 0; I < 40; ++I) {
    Node N;
    if (Nodes.empty() || R.chance(35)) {
      N.Kind = 0;
      N.Var = static_cast<uint32_t>(R.below(NumVars));
      N.Neg = R.chance(50);
      Refs.push_back(N.Neg ? M.nvar(N.Var) : M.var(N.Var));
    } else {
      N.Kind = 1 + static_cast<int>(R.below(4));
      N.L = static_cast<int>(R.below(Nodes.size()));
      N.Rn = static_cast<int>(R.below(Nodes.size()));
      switch (N.Kind) {
      case 1:
        Refs.push_back(M.andOp(Refs[N.L], Refs[N.Rn]));
        break;
      case 2:
        Refs.push_back(M.orOp(Refs[N.L], Refs[N.Rn]));
        break;
      case 3:
        Refs.push_back(M.xorOp(Refs[N.L], Refs[N.Rn]));
        break;
      default:
        Refs.push_back(M.notOp(Refs[N.L]));
        break;
      }
    }
    Nodes.push_back(N);
  }

  std::function<bool(int, uint32_t)> Eval = [&](int I, uint32_t Bits) {
    const Node &N = Nodes[I];
    switch (N.Kind) {
    case 0:
      return ((Bits >> N.Var) & 1) != static_cast<uint32_t>(N.Neg);
    case 1:
      return Eval(N.L, Bits) && Eval(N.Rn, Bits);
    case 2:
      return Eval(N.L, Bits) || Eval(N.Rn, Bits);
    case 3:
      return Eval(N.L, Bits) != Eval(N.Rn, Bits);
    default:
      return !Eval(N.L, Bits);
    }
  };

  int Root = static_cast<int>(Nodes.size()) - 1;
  double Count = 0;
  for (uint32_t Bits = 0; Bits < (1u << NumVars); ++Bits) {
    std::vector<bool> Assignment(NumVars);
    for (uint32_t V = 0; V < NumVars; ++V)
      Assignment[V] = (Bits >> V) & 1;
    bool Expected = Eval(Root, Bits);
    EXPECT_EQ(M.eval(Refs[Root], Assignment), Expected)
        << "assignment " << Bits;
    if (Expected)
      Count += 1;
  }
  EXPECT_EQ(M.satCount(Refs[Root]), Count);

  // Model enumeration matches the truth table too.
  std::set<uint64_t> Models;
  M.forEachModel(Refs[Root], 0, NumVars,
                 [&](uint64_t W) { Models.insert(W); });
  EXPECT_EQ(Models.size(), static_cast<size_t>(Count));
  for (uint64_t W : Models)
    EXPECT_TRUE(Eval(Root, static_cast<uint32_t>(W)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddSemantics,
                         ::testing::Range<uint64_t>(1, 16));

/// The BDD dependency storage stores exactly the same relation as the
/// set-based storage, for random edge sets.
class BddStorage : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BddStorage, MatchesSetStorage) {
  Rng R(GetParam() * 101);
  const uint32_t NumNodes = 50, NumLocs = 30;
  SetDepStorage SetS(NumNodes);
  BddDepStorage BddS(NumNodes, NumLocs);

  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> Expected;
  for (int I = 0; I < 400; ++I) {
    uint32_t Src = static_cast<uint32_t>(R.below(NumNodes));
    uint32_t Dst = static_cast<uint32_t>(R.below(NumNodes));
    LocId L(static_cast<uint32_t>(R.below(NumLocs)));
    bool NewInSet = SetS.add(Src, L, Dst);
    bool NewInBdd = BddS.add(Src, L, Dst);
    EXPECT_EQ(NewInSet, NewInBdd);
    Expected.insert({Src, L.value(), Dst});
  }
  EXPECT_EQ(SetS.edgeCount(), Expected.size());
  EXPECT_EQ(BddS.edgeCount(), Expected.size());

  for (uint32_t Src = 0; Src < NumNodes; ++Src) {
    std::set<std::tuple<uint32_t, uint32_t, uint32_t>> FromSet, FromBdd;
    SetS.forEachOut(Src, [&](LocId L, uint32_t Dst) {
      FromSet.insert({Src, L.value(), Dst});
    });
    BddS.forEachOut(Src, [&](LocId L, uint32_t Dst) {
      FromBdd.insert({Src, L.value(), Dst});
    });
    EXPECT_EQ(FromSet, FromBdd) << "source " << Src;
  }
}

/// The labeled walk of the sparse fixpoint's delivery loop yields the same
/// edges on both storages: exactly the out-edges whose label is asked
/// for.  The set storage keeps its forEachOut order, (L, Dst) ascending.
TEST_P(BddStorage, LabeledWalkMatchesSetStorage) {
  Rng R(GetParam() * 211);
  const uint32_t NumNodes = 40, NumLocs = 24;
  SetDepStorage SetS(NumNodes);
  BddDepStorage BddS(NumNodes, NumLocs);
  for (int I = 0; I < 300; ++I) {
    uint32_t Src = static_cast<uint32_t>(R.below(NumNodes));
    uint32_t Dst = static_cast<uint32_t>(R.below(NumNodes));
    LocId L(static_cast<uint32_t>(R.below(NumLocs)));
    SetS.add(Src, L, Dst);
    BddS.add(Src, L, Dst);
  }

  using Edges = std::vector<std::pair<uint32_t, uint32_t>>;
  for (uint32_t Src = 0; Src < NumNodes; ++Src) {
    // Empty, every label, and random ascending subsets (some with labels
    // the source has no edge on).
    std::vector<std::vector<LocId>> LabelSets(2);
    for (uint32_t L = 0; L < NumLocs; ++L)
      LabelSets[1].push_back(LocId(L));
    for (int Draw = 0; Draw < 4; ++Draw) {
      std::vector<LocId> Labels;
      for (uint32_t L = 0; L < NumLocs; ++L)
        if (R.chance(25))
          Labels.push_back(LocId(L));
      LabelSets.push_back(std::move(Labels));
    }
    for (const std::vector<LocId> &Labels : LabelSets) {
      auto Asked = [&](LocId L) {
        return std::binary_search(Labels.begin(), Labels.end(), L);
      };
      Edges Expected, FromSet, FromBdd;
      SetS.forEachOut(Src, [&](LocId L, uint32_t Dst) {
        if (Asked(L))
          Expected.push_back({L.value(), Dst});
      });
      SetS.forEachOutOn(Src, Labels, [&](LocId L, uint32_t Dst) {
        FromSet.push_back({L.value(), Dst});
      });
      BddS.forEachOutOn(Src, Labels, [&](LocId L, uint32_t Dst) {
        EXPECT_TRUE(Asked(L)) << "unasked label " << L.value();
        FromBdd.push_back({L.value(), Dst});
      });
      EXPECT_EQ(FromSet, Expected) << "source " << Src;
      std::sort(FromBdd.begin(), FromBdd.end());
      EXPECT_EQ(FromBdd, Expected) << "source " << Src;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddStorage,
                         ::testing::Range<uint64_t>(1, 11));
