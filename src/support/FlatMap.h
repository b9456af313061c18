//===- FlatMap.h - Sorted-vector map --------------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A map backed by a sorted vector of (key, value) pairs.  Abstract states
/// (finite maps from abstract locations to abstract values) are FlatMaps:
/// joins and inclusion tests are linear merges, and iteration order is
/// deterministic, which the fixpoint engines rely on.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_SUPPORT_FLATMAP_H
#define SPA_SUPPORT_FLATMAP_H

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace spa {

/// Sorted-vector map with deterministic iteration.  Keys must be totally
/// ordered.  Lookup is O(log n); insertion of a fresh key is O(n).
template <typename K, typename V> class FlatMap {
public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;

  iterator begin() { return Entries.begin(); }
  iterator end() { return Entries.end(); }
  const_iterator begin() const { return Entries.begin(); }
  const_iterator end() const { return Entries.end(); }

  bool empty() const { return Entries.empty(); }
  size_t size() const { return Entries.size(); }
  void clear() { Entries.clear(); }

  /// Returns the value for \p Key, or null if absent.
  const V *lookup(const K &Key) const {
    auto It = lowerBound(Key);
    if (It != Entries.end() && It->first == Key)
      return &It->second;
    return nullptr;
  }

  V *lookup(const K &Key) {
    auto It = lowerBound(Key);
    if (It != Entries.end() && It->first == Key)
      return &It->second;
    return nullptr;
  }

  bool contains(const K &Key) const { return lookup(Key) != nullptr; }

  /// Returns the value slot for \p Key, default-constructing it if absent.
  V &getOrCreate(const K &Key) {
    auto It = lowerBound(Key);
    if (It != Entries.end() && It->first == Key)
      return It->second;
    It = Entries.insert(It, value_type(Key, V()));
    return It->second;
  }

  /// Sets \p Key to \p Val, overwriting any previous binding.
  void set(const K &Key, V Val) { getOrCreate(Key) = std::move(Val); }

  /// Binds \p Key, greater than every key present, to \p Val in O(1):
  /// set() for a map built in key order.
  void append(const K &Key, V Val) {
    assert(Entries.empty() || Entries.back().first < Key);
    Entries.emplace_back(Key, std::move(Val));
  }

  /// Removes \p Key if present; returns true if it was present.
  bool erase(const K &Key) {
    auto It = lowerBound(Key);
    if (It == Entries.end() || It->first != Key)
      return false;
    Entries.erase(It);
    return true;
  }

  /// Reserves storage for \p N entries.
  void reserve(size_t N) { Entries.reserve(N); }

  /// Returns the sub-map of entries whose key satisfies \p Keep.
  template <typename Pred> FlatMap filtered(Pred Keep) const {
    FlatMap R;
    for (const auto &[K2, V2] : Entries)
      if (Keep(K2))
        R.Entries.push_back({K2, V2});
    return R;
  }

  friend bool operator==(const FlatMap &A, const FlatMap &B) {
    return A.Entries == B.Entries;
  }

  /// Merges \p Other into this map: for keys present in both, applies
  /// \p Combine(ours, theirs) in place and keeps the result; keys only in
  /// \p Other are copied.  Returns true if this map changed.  \p Combine
  /// must return true iff it changed its first argument.
  template <typename Fn> bool mergeWith(const FlatMap &Other, Fn Combine) {
    bool Changed = false;
    std::vector<value_type> Out;
    Out.reserve(std::max(Entries.size(), Other.Entries.size()));
    auto A = Entries.begin(), AE = Entries.end();
    auto B = Other.Entries.begin(), BE = Other.Entries.end();
    while (A != AE && B != BE) {
      if (A->first < B->first) {
        Out.push_back(std::move(*A));
        ++A;
      } else if (B->first < A->first) {
        Out.push_back(*B);
        Changed = true;
        ++B;
      } else {
        Changed |= Combine(A->second, B->second);
        Out.push_back(std::move(*A));
        ++A;
        ++B;
      }
    }
    for (; A != AE; ++A)
      Out.push_back(std::move(*A));
    for (; B != BE; ++B) {
      Out.push_back(*B);
      Changed = true;
    }
    Entries = std::move(Out);
    return Changed;
  }

private:
  const_iterator lowerBound(const K &Key) const {
    return std::lower_bound(
        Entries.begin(), Entries.end(), Key,
        [](const value_type &E, const K &Key2) { return E.first < Key2; });
  }
  iterator lowerBound(const K &Key) {
    return std::lower_bound(
        Entries.begin(), Entries.end(), Key,
        [](const value_type &E, const K &Key2) { return E.first < Key2; });
  }

  std::vector<value_type> Entries;
};

} // namespace spa

#endif // SPA_SUPPORT_FLATMAP_H
