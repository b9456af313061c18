//===- Octagon.cpp - Octagon abstract domain (DBM) -------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "oct/Octagon.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace spa;

namespace {

/// Floor division by 2 that is exact for negative odd bounds.
int64_t halfFloor(int64_t B) {
  if (B == bound::PosInf || B == bound::NegInf)
    return B;
  return B >= 0 ? B / 2 : (B - 1) / 2;
}

} // namespace

namespace {
thread_local uint64_t ClosureTicks = 0;
} // namespace

uint64_t spa::oct_detail::closureTicks() { return ClosureTicks; }

Oct::Oct(uint32_t NumVars) : N(NumVars) {
  M.assign(4ull * N * N, bound::PosInf);
  for (uint32_t I = 0; I < 2 * N; ++I)
    at(I, I) = 0;
}

Oct Oct::bottom(uint32_t NumVars) {
  // Bottom carries no constraints; skip the 4N² allocation (every
  // operation guards on Empty before touching M).
  Oct O(0);
  O.N = NumVars;
  O.Empty = true;
  return O;
}

void Oct::dropMatrix() {
  Empty = true;
  std::vector<int64_t>().swap(M);
}

void Oct::close() {
  if (Empty)
    return;
  uint32_t D = 2 * N;
  if (D == 0)
    return;
  SPA_OBS_COUNT("oct.closures", 1);
  ++ClosureTicks;

  // Iterate (shortest paths; strengthening; integer tightening) to a
  // fixpoint.  Matrices are at most 20x20 (pack size cap), so the extra
  // robustness costs little.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Floyd–Warshall.
    for (uint32_t K = 0; K < D; ++K) {
      for (uint32_t I = 0; I < D; ++I) {
        int64_t MIK = at(I, K);
        if (MIK == bound::PosInf)
          continue;
        for (uint32_t J = 0; J < D; ++J) {
          int64_t MKJ = at(K, J);
          if (MKJ == bound::PosInf)
            continue;
          int64_t Via = bound::add(MIK, MKJ);
          if (Via < at(I, J)) {
            at(I, J) = Via;
            Changed = true;
          }
        }
      }
    }
    // Infeasible systems drive entries unboundedly negative; stop at the
    // first negative diagonal entry.
    for (uint32_t I = 0; I < D; ++I) {
      if (at(I, I) < 0) {
        dropMatrix();
        return;
      }
    }
    // Integer tightening of unary bounds: ±2v ≤ c implies ±2v ≤ 2⌊c/2⌋.
    for (uint32_t I = 0; I < D; ++I) {
      int64_t B = at(I, bar(I));
      if (B != bound::PosInf) {
        int64_t T = 2 * halfFloor(B);
        if (T < B) {
          at(I, bar(I)) = T;
          Changed = true;
        }
      }
    }
    // Strengthening: xj − xi ≤ (ubar(i) + ubar(j)) / 2.
    for (uint32_t I = 0; I < D; ++I) {
      int64_t UI = at(I, bar(I));
      if (UI == bound::PosInf)
        continue;
      for (uint32_t J = 0; J < D; ++J) {
        int64_t UJ = at(bar(J), J);
        if (UJ == bound::PosInf)
          continue;
        int64_t S = bound::add(halfFloor(UI), halfFloor(UJ));
        if (S < at(I, J)) {
          at(I, J) = S;
          Changed = true;
        }
      }
    }
  }

  for (uint32_t I = 0; I < D; ++I) {
    if (at(I, I) < 0) {
      dropMatrix();
      return;
    }
  }
}

bool Oct::operator==(const Oct &O) const {
  assert(N == O.N && "octagon arity mismatch");
  if (Empty || O.Empty)
    return Empty == O.Empty;
  return M == O.M;
}

bool Oct::leq(const Oct &O) const {
  assert(N == O.N && "octagon arity mismatch");
  if (Empty)
    return true;
  if (O.Empty)
    return false;
  for (size_t I = 0; I < M.size(); ++I)
    if (M[I] > O.M[I])
      return false;
  return true;
}

Oct Oct::join(const Oct &O) const {
  assert(N == O.N && "octagon arity mismatch");
  if (Empty)
    return O;
  if (O.Empty)
    return *this;
  Oct R(N);
  // The elementwise max of strongly closed DBMs is strongly closed.
  for (size_t I = 0; I < M.size(); ++I)
    R.M[I] = std::max(M[I], O.M[I]);
  return R;
}

Oct Oct::meet(const Oct &O) const {
  assert(N == O.N && "octagon arity mismatch");
  if (Empty || O.Empty)
    return bottom(N);
  Oct R(N);
  for (size_t I = 0; I < M.size(); ++I)
    R.M[I] = std::min(M[I], O.M[I]);
  R.close();
  return R;
}

Oct Oct::widen(const Oct &O) const {
  assert(N == O.N && "octagon arity mismatch");
  if (Empty)
    return O;
  if (O.Empty)
    return *this;
  Oct R(N);
  for (size_t I = 0; I < M.size(); ++I)
    R.M[I] = O.M[I] <= M[I] ? M[I] : bound::PosInf;
  // Note: re-closing a widened octagon can in principle defeat
  // termination; the analysis engines guard with a hard cut to ⊤ after
  // excessive iterations, so we keep results canonical (closed) here.
  R.close();
  return R;
}

Oct Oct::narrow(const Oct &O) const {
  assert(N == O.N && "octagon arity mismatch");
  if (Empty || O.Empty)
    return O;
  Oct R(N);
  for (size_t I = 0; I < M.size(); ++I)
    R.M[I] = M[I] == bound::PosInf ? O.M[I] : M[I];
  R.close();
  return R;
}

Oct Oct::forget(uint32_t V) const {
  assert(V < N && "variable out of range");
  if (Empty)
    return *this;
  Oct R = *this; // Closed, so dropping rows/columns loses nothing.
  uint32_t P = 2 * V;
  for (uint32_t I = 0; I < 2 * N; ++I) {
    R.at(P, I) = bound::PosInf;
    R.at(P + 1, I) = bound::PosInf;
    R.at(I, P) = bound::PosInf;
    R.at(I, P + 1) = bound::PosInf;
  }
  R.at(P, P) = 0;
  R.at(P + 1, P + 1) = 0;
  return R;
}

Oct Oct::addSumConstraint(uint32_t V, bool PosV, uint32_t W, bool PosW,
                          int64_t C) const {
  assert(V < N && W < N && "variable out of range");
  if (Empty)
    return *this;
  // (sV·v) + (sW·w) ≤ C  with signed indices a, b:  x_a − x_b̄ ≤ C.
  uint32_t A = 2 * V + (PosV ? 0 : 1);
  uint32_t B = 2 * W + (PosW ? 0 : 1);
  Oct R = *this;
  R.at(bar(B), A) = std::min(R.at(bar(B), A), C);
  R.at(bar(A), B) = std::min(R.at(bar(A), B), C); // Coherence mirror.
  R.close();
  return R;
}

Oct Oct::addUpperBound(uint32_t V, int64_t C) const {
  if (C == bound::PosInf)
    return *this;
  int64_t Twice = bound::mul(C, 2);
  return addSumConstraint(V, true, V, true, Twice);
}

Oct Oct::addLowerBound(uint32_t V, int64_t C) const {
  if (C == bound::NegInf)
    return *this;
  int64_t Twice = bound::mul(C, -2);
  return addSumConstraint(V, false, V, false, Twice);
}

Oct Oct::addDiffConstraint(uint32_t V, uint32_t W, int64_t C) const {
  if (C == bound::PosInf)
    return *this;
  return addSumConstraint(V, true, W, false, C);
}

Oct Oct::assignInterval(uint32_t V, const Interval &Itv) const {
  if (Empty)
    return *this;
  if (Itv.isBot()) {
    // Assigning an unreachable value: the whole state is unreachable in
    // the concrete; keep it conservative as ⊤ on v (the non-relational
    // engine handles reachability the same way).
    return forget(V);
  }
  Oct R = forget(V);
  if (Itv.hi() != bound::PosInf)
    R = R.addUpperBound(V, Itv.hi());
  if (Itv.lo() != bound::NegInf)
    R = R.addLowerBound(V, Itv.lo());
  return R;
}

Oct Oct::assignVarPlusConst(uint32_t V, uint32_t W, int64_t C) const {
  if (Empty)
    return *this;
  if (V == W) {
    // v := v + c: shift every bound mentioning v.
    Oct R = *this;
    uint32_t P = 2 * V, Q = 2 * V + 1;
    for (uint32_t I = 0; I < 2 * N; ++I) {
      if (I == P || I == Q)
        continue;
      // x_P − x_I grows by c; x_I − x_P shrinks by c (and dually for Q).
      if (R.at(I, P) != bound::PosInf)
        R.at(I, P) = bound::add(R.at(I, P), C);
      if (R.at(P, I) != bound::PosInf)
        R.at(P, I) = bound::add(R.at(P, I), -C);
      if (R.at(I, Q) != bound::PosInf)
        R.at(I, Q) = bound::add(R.at(I, Q), -C);
      if (R.at(Q, I) != bound::PosInf)
        R.at(Q, I) = bound::add(R.at(Q, I), C);
    }
    if (R.at(Q, P) != bound::PosInf)
      R.at(Q, P) = bound::add(R.at(Q, P), 2 * C);
    if (R.at(P, Q) != bound::PosInf)
      R.at(P, Q) = bound::add(R.at(P, Q), -2 * C);
    return R;
  }
  // v := w + c: forget v, then v − w ≤ c and w − v ≤ −c.
  Oct R = forget(V);
  R = R.addDiffConstraint(V, W, C);
  R = R.addDiffConstraint(W, V, -C);
  return R;
}

Interval Oct::projectDiff(uint32_t V, uint32_t W) const {
  assert(V < N && W < N && "variable out of range");
  if (Empty)
    return Interval::bot();
  if (V == W)
    return Interval::constant(0);
  // v − w ≤ M[2w][2v]; w − v ≤ M[2v][2w].
  int64_t Up = at(2 * W, 2 * V);
  int64_t Down = at(2 * V, 2 * W);
  int64_t Hi = Up == bound::PosInf ? bound::PosInf : Up;
  int64_t Lo = Down == bound::PosInf ? bound::NegInf : -Down;
  return Interval(Lo, Hi);
}

Interval Oct::projectSum(uint32_t V, uint32_t W) const {
  assert(V < N && W < N && "variable out of range");
  if (Empty)
    return Interval::bot();
  if (V == W) {
    Interval P = project(V);
    return P.add(P); // 2v; exact since it is one variable.
  }
  // v + w ≤ M[2w+1][2v]; −v − w ≤ M[2w][2v+1].
  int64_t Up = at(2 * W + 1, 2 * V);
  int64_t Down = at(2 * W, 2 * V + 1);
  int64_t Hi = Up == bound::PosInf ? bound::PosInf : Up;
  int64_t Lo = Down == bound::PosInf ? bound::NegInf : -Down;
  return Interval(Lo, Hi);
}

Interval Oct::project(uint32_t V) const {
  assert(V < N && "variable out of range");
  if (Empty)
    return Interval::bot();
  // 2v ≤ M[2v+1][2v]  and  −2v ≤ M[2v][2v+1].
  int64_t Up = at(2 * V + 1, 2 * V);
  int64_t Down = at(2 * V, 2 * V + 1);
  int64_t Hi = Up == bound::PosInf ? bound::PosInf : halfFloor(Up);
  int64_t Lo = Down == bound::PosInf ? bound::NegInf : -halfFloor(Down);
  return Interval(Lo, Hi);
}

std::string Oct::str() const {
  if (Empty)
    return "_|_";
  std::ostringstream OS;
  OS << "{";
  bool First = true;
  for (uint32_t V = 0; V < N; ++V) {
    Interval I = project(V);
    if (I == Interval::top())
      continue;
    if (!First)
      OS << ", ";
    First = false;
    OS << "v" << V << " in " << I.str();
  }
  for (uint32_t V = 0; V < N; ++V) {
    for (uint32_t W = V + 1; W < N; ++W) {
      int64_t D = at(2 * W, 2 * V); // v − w ≤ D.
      if (D != bound::PosInf) {
        if (!First)
          OS << ", ";
        First = false;
        OS << "v" << V << "-v" << W << "<=" << D;
      }
    }
  }
  OS << "}";
  return OS.str();
}
