// lfbst: sentinel-extended keys for the EFRB baseline.
//
// The EFRB tree (baselines/efrb_tree.hpp) keeps two sentinel keys
// ∞₁ < ∞₂ that are greater than every client key and never removed.
// Reserving special values of the client key type would constrain Key to
// integers with spare range, so instead every EFRB node stores a
// `sentinel_key<Key>`: the client key plus a rank byte. Rank 0 is a
// client key; ranks 1–2 are ∞₁, ∞₂. The comparator orders by rank first
// (both sentinels above all client keys, ordered among themselves by
// rank) and falls back to the client comparator inside rank 0 — one
// predictable branch on the hot path.
//
// The NM-BST does not use this type: its sentinel nodes are known by
// position (core/natarajan_tree.hpp), so its nodes store bare keys.
#pragma once

#include <cstdint>
#include <utility>

namespace lfbst {

template <typename Key>
struct sentinel_key {
  Key key{};          // meaningful only when rank == 0
  std::int8_t rank = 0;

  sentinel_key() = default;
  explicit sentinel_key(Key k) : key(std::move(k)), rank(0) {}

  static sentinel_key inf1() { return make_sentinel(1); }
  static sentinel_key inf2() { return make_sentinel(2); }

  [[nodiscard]] bool is_sentinel() const noexcept { return rank != 0; }

 private:
  static sentinel_key make_sentinel(std::int8_t r) {
    sentinel_key s;
    s.rank = r;
    return s;
  }
};

/// Strict weak order over sentinel-extended keys, parameterized by the
/// client comparator. Stateless when Compare is stateless.
template <typename Key, typename Compare>
struct sentinel_less {
  [[no_unique_address]] Compare cmp{};

  bool operator()(const sentinel_key<Key>& a,
                  const sentinel_key<Key>& b) const {
    if (a.rank != b.rank) return a.rank < b.rank;
    if (a.rank != 0) return false;  // equal sentinels
    return cmp(a.key, b.key);
  }

  /// Client key vs stored key — the common traversal comparison; avoids
  /// materializing a sentinel_key per step.
  bool operator()(const Key& a, const sentinel_key<Key>& b) const {
    if (b.rank != 0) return true;  // every client key is below ∞₁, ∞₂
    return cmp(a, b.key);
  }

  /// Equality in terms of the strict order (used for hit tests).
  bool equal(const Key& a, const sentinel_key<Key>& b) const {
    return b.rank == 0 && !cmp(a, b.key) && !cmp(b.key, a);
  }
};

}  // namespace lfbst
