//===- AbsState.h - Abstract state: L̂ -> V̂ ----------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract state Ŝ = L̂ → V̂ (Section 2.3).  Missing entries denote
/// bottom values, so the empty state is the bottom state; this is what
/// makes the *sparse* representation possible: a point's state holds only
/// the locations the analysis actually wrote.
///
/// The binding table is a copy-on-write shared buffer: copying a state
/// (the In/Out tables of the fixpoint engines, the pre-analysis snapshot,
/// localization filters) shares one buffer, and mutation detaches a
/// private clone only when the buffer is actually shared.  Joining into
/// an empty state adopts the other side's buffer in O(1).  Read paths
/// never detach; weakSet/joinWith test for no-change on the shared
/// buffer first, so the fixpoint's frequent no-op joins stay
/// allocation-free (state.cow.* metrics in docs/OBSERVABILITY.md).
///
//===----------------------------------------------------------------------===//

#ifndef SPA_DOMAINS_ABSSTATE_H
#define SPA_DOMAINS_ABSSTATE_H

#include "domains/Value.h"
#include "support/FlatMap.h"

#include <atomic>
#include <memory>
#include <string>

namespace spa {

/// Process-wide copy-on-write statistics (exported as state.cow.*).
struct CowStats {
  static std::atomic<uint64_t> Detaches; ///< Shared buffers cloned on write.
  static std::atomic<uint64_t> Adoptions; ///< O(1) buffer adoptions by joins.
};

/// Finite map from abstract locations to abstract values.
class AbsState {
public:
  using Map = FlatMap<LocId, Value>;

  bool empty() const { return !Entries || Entries->empty(); }
  size_t size() const { return Entries ? Entries->size() : 0; }
  void clear() { Entries.reset(); }
  /// Reserves storage for \p N bindings (hot-path builders that know the
  /// output size, e.g. the sparse transfer's def-set extraction).
  void reserve(size_t N) { mut().reserve(N); }

  Map::const_iterator begin() const { return ro().begin(); }
  Map::const_iterator end() const { return ro().end(); }

  /// Value bound to \p L (bottom if unbound).
  const Value &get(LocId L) const {
    const Value *V = Entries ? Entries->lookup(L) : nullptr;
    return V ? *V : Bottom;
  }

  bool contains(LocId L) const { return Entries && Entries->contains(L); }

  /// Strong update: bind \p L to \p V, discarding the old value.  Binding
  /// bottom removes the entry so states stay canonical.
  void set(LocId L, Value V) {
    if (V.isBot()) {
      if (contains(L))
        mut().erase(L);
      return;
    }
    mut().set(L, std::move(V));
  }

  /// Binds \p L, greater than every bound location, to the non-bottom
  /// \p V in O(1): set() for a state built in location order.
  void append(LocId L, Value V) { mut().append(L, std::move(V)); }

  /// Weak update (the paper's ⊔-update): join \p V into \p L's binding.
  /// Returns true if the binding grew.  The no-change test runs on the
  /// shared buffer, so a no-op weak update never detaches.
  bool weakSet(LocId L, const Value &V) {
    if (V.isBot())
      return false;
    const Value *Old = Entries ? Entries->lookup(L) : nullptr;
    if (Old && V.leq(*Old))
      return false;
    Value New = Old ? Old->join(V) : V;
    mut().set(L, std::move(New));
    return true;
  }

  bool operator==(const AbsState &O) const {
    return Entries == O.Entries || ro() == O.ro();
  }
  bool operator!=(const AbsState &O) const { return !(*this == O); }

  bool leq(const AbsState &O) const {
    if (Entries == O.Entries)
      return true;
    for (const auto &[L, V] : ro())
      if (!V.leq(O.get(L)))
        return false;
    return true;
  }

  /// In-place join with \p O; returns true if this state grew.  Joining
  /// into an empty state adopts \p O's buffer without copying; when the
  /// buffer is shared, a no-change join is detected read-only before
  /// paying for the detach.
  bool joinWith(const AbsState &O) {
    if (O.empty())
      return false;
    if (empty()) {
      Entries = O.Entries;
      CowStats::Adoptions.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (Entries == O.Entries)
      return false;
    if (Entries.use_count() > 1 && O.leq(*this))
      return false;
    return mut().mergeWith(
        *O.Entries, [](Value &A, const Value &B) { return A.joinWith(B); });
  }

  /// In-place widening with \p O (this ∇ (this ⊔ O) per entry); returns
  /// true if this state changed.
  bool widenWith(const AbsState &O) {
    if (O.empty())
      return false;
    if (empty()) {
      Entries = O.Entries;
      CowStats::Adoptions.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return mut().mergeWith(*O.Entries, [](Value &A, const Value &B) {
      Value W = A.widen(A.join(B));
      if (W == A)
        return false;
      A = std::move(W);
      return true;
    });
  }

  /// In-place narrowing with \p O (pointwise Value::narrow; entries whose
  /// refined value is bottom are dropped).  Returns true if changed.
  bool narrowWith(const AbsState &O) {
    bool Changed = false;
    Map New;
    for (const auto &[L, V] : ro()) {
      Value N = V.narrow(O.get(L));
      if (N != V)
        Changed = true;
      if (!N.isBot())
        New.set(L, std::move(N));
    }
    if (Changed)
      Entries = std::make_shared<Map>(std::move(New));
    return Changed;
  }

  /// Keeps only the entries whose location satisfies \p Keep.  Shares
  /// this state's buffer when the filter keeps everything.
  template <typename Pred> AbsState filtered(Pred Keep) const {
    AbsState R;
    if (!Entries)
      return R;
    Map New = Entries->filtered(Keep);
    if (New.size() == Entries->size()) {
      R.Entries = Entries;
      return R;
    }
    if (!New.empty())
      R.Entries = std::make_shared<Map>(std::move(New));
    return R;
  }

  std::string str() const;

  /// The value of every unbound location.
  static const Value Bottom;

private:
  /// Read-only view (the shared empty map when unallocated).
  const Map &ro() const { return Entries ? *Entries : EmptyMap; }

  /// Mutable view: allocates a private buffer, cloning the shared one
  /// when other states still reference it.
  Map &mut() {
    if (!Entries) {
      Entries = std::make_shared<Map>();
    } else if (Entries.use_count() > 1) {
      CowStats::Detaches.fetch_add(1, std::memory_order_relaxed);
      Entries = std::make_shared<Map>(*Entries);
    }
    return *Entries;
  }

  std::shared_ptr<Map> Entries;
  static const Map EmptyMap;
};

} // namespace spa

#endif // SPA_DOMAINS_ABSSTATE_H
