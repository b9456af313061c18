//===- Octagon.h - Octagon abstract domain (DBM) --------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The octagon abstract domain of Miné (HOSC 2006), the relational domain
/// of the paper's Section 4 and Table 3.  An octagon over k variables
/// captures conjunctions of constraints (±vi ± vj ≤ c) in a difference
/// bound matrix over 2k "signed" variables: index 2i stands for +vi and
/// 2i+1 for −vi, and M[i][j] bounds xj − xi ≤ M[i][j].
///
/// The implementation keeps matrices tightly closed (shortest paths plus
/// integer tightening of the unary bounds and the strengthening step),
/// which makes inclusion, equality, join, and projection exact.  Adding
/// one constraint to a closed matrix closes it again incrementally in
/// O(n²) (Chawdhary, Robbins & King, FMSD 2019; Bagnara, Hill & Zaffanella
/// for the integer tight closure); meet, widening and narrowing run the
/// full closure.  The tight closure is canonical, so both give the same
/// matrix.
///
/// An octagon is a handle to one reference-counted bounds buffer: a copy
/// shares it, and an operation that writes to a shared buffer first
/// copies it (the copy-on-write rule of AbsState, DESIGN.md "Value
/// sharing").  ⊥ and the zero-variable default hold no buffer.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_OCT_OCTAGON_H
#define SPA_OCT_OCTAGON_H

#include "domains/Interval.h"

#include <cstdint>
#include <memory>
#include <string>

namespace spa {

namespace oct_detail {
/// Thread-local count of closures, full or incremental.  The octagon
/// domain adapter snapshots deltas around each visit to attribute closure
/// cost per control point in the ledger (PointCost::Closures).
uint64_t closureTicks();
} // namespace oct_detail

/// An octagon over a fixed number of variables (the pack's size).
/// Default-constructed octagons are ⊤ over zero variables; use the
/// explicit constructors for real packs.
class Oct {
public:
  /// ⊤ over \p NumVars variables (no constraints).
  explicit Oct(uint32_t NumVars = 0);

  static Oct top(uint32_t NumVars) { return Oct(NumVars); }
  static Oct bottom(uint32_t NumVars);

  uint32_t numVars() const { return N; }
  bool isBottom() const { return Empty; }

  bool operator==(const Oct &O) const;
  bool operator!=(const Oct &O) const { return !(*this == O); }

  /// Lattice order, join, meet, widening, narrowing (all arguments must
  /// have the same variable count).
  bool leq(const Oct &O) const;
  Oct join(const Oct &O) const;
  Oct meet(const Oct &O) const;
  Oct widen(const Oct &O) const;
  Oct narrow(const Oct &O) const;

  /// Removes all constraints involving variable \p V (projection).
  Oct forget(uint32_t V) const;

  /// v := [lo, hi] (forget then bound).
  Oct assignInterval(uint32_t V, const Interval &Itv) const;
  /// v := w + c, exact relational assignment (also handles v := v + c).
  Oct assignVarPlusConst(uint32_t V, uint32_t W, int64_t C) const;

  /// Adds constraint  (PosV ? v : −v) + (PosW ? w : −w) ≤ C  and closes.
  /// Use addUpperBound/addLowerBound for unary constraints.
  Oct addSumConstraint(uint32_t V, bool PosV, uint32_t W, bool PosW,
                       int64_t C) const;
  /// v ≤ C.
  Oct addUpperBound(uint32_t V, int64_t C) const;
  /// v ≥ C.
  Oct addLowerBound(uint32_t V, int64_t C) const;
  /// v − w ≤ C.
  Oct addDiffConstraint(uint32_t V, uint32_t W, int64_t C) const;

  /// The interval of variable \p V implied by the constraints (the
  /// projection π_x of Section 4.1).
  Interval project(uint32_t V) const;

  /// The interval of (v − w) implied by the constraints.
  Interval projectDiff(uint32_t V, uint32_t W) const;
  /// The interval of (v + w) implied by the constraints.
  Interval projectSum(uint32_t V, uint32_t W) const;

  std::string str() const;

private:
  size_t size() const { return 4ull * N * N; }
  /// Writes need a buffer no other octagon shares (mut() first).
  int64_t &at(uint32_t I, uint32_t J) { return M[I * 2 * N + J]; }
  int64_t at(uint32_t I, uint32_t J) const { return M[I * 2 * N + J]; }
  static uint32_t bar(uint32_t I) { return I ^ 1; } // +v <-> −v.

  /// An octagon over \p NumVars variables whose fresh buffer the caller
  /// fills.
  static Oct blank(uint32_t NumVars);
  /// The bounds for writing: copies the buffer first when it is shared
  /// (oct.cow.detaches).
  int64_t *mut();

  /// Full strong closure with integer tightening; sets Empty on
  /// infeasibility.
  void close();
  /// Adds x_A − x_B̄ ≤ C (signed indices) and its coherent twin to this
  /// closed octagon and closes it incrementally.
  void constrain(uint32_t A, uint32_t B, int64_t C);

  /// Integer tightening of the unary bounds; true if a bound moved.
  bool tighten();
  /// The strengthening step; true if a bound moved.
  bool strengthen();
  /// Drops the matrix if a diagonal entry is negative (infeasible).
  bool dropIfInfeasible();

  /// Marks the octagon infeasible and releases the matrix (Empty states
  /// hold no dead storage).
  void dropMatrix();

  uint32_t N = 0;   ///< Variables (matrix is 2N x 2N).
  bool Empty = false;
  /// Row-major bounds, bound::PosInf = absent; shared between copies.
  /// Null for ⊥ and for zero variables.
  std::shared_ptr<int64_t[]> M;
};

} // namespace spa

#endif // SPA_OCT_OCTAGON_H
