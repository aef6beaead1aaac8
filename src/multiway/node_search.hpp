// lfbst: in-node search kernels for the multiway (k-ary) tree.
//
// A k-ary node keeps its keys in a flat, contiguous, immutable array
// (multiway/kary_tree.hpp), which makes the two per-node questions —
// "which child does `key` route to?" and "does this leaf hold `key`?" —
// pure reductions over at most K-1 lanes:
//
//   route_index  = |{ i : keys[i] <= key }|   (routing keys are sorted)
//   contains_key = ∃ i : keys[i] == key       (order-independent)
//
// Both are computed branch-free: each lane's comparison result is
// accumulated with no data-dependent branch (one setcc+add per lane),
// so the branch predictor never sees the key distribution. One
// portable reduction serves every key type, comparator and target;
// DESIGN.md §8.2 records why no SIMD variant is kept.
//
// Nodes are immutable after publication, so these are plain loads: no
// atomics, no schedule points — correct under dsched's interposed
// atomics policy as well (the policy only needs to see shared-memory
// steps, and immutable key arrays are not shared-memory steps).
#pragma once

namespace lfbst::multiway {

/// Routing slot for `key` over `n` sorted routing keys: the number of
/// routing keys <= key, i.e. the index of the first routing key
/// strictly greater than `key` (n when none is).
template <typename Key, typename Compare>
[[nodiscard]] inline unsigned route_index(const Key* keys, unsigned n,
                                          const Key& key,
                                          const Compare& less) noexcept {
  unsigned idx = 0;
  for (unsigned j = 0; j < n; ++j) {
    idx += static_cast<unsigned>(!less(key, keys[j]));
  }
  return idx;
}

/// Membership over `n` (not necessarily sorted) keys under the
/// comparator's induced equivalence.
template <typename Key, typename Compare>
[[nodiscard]] inline bool contains_key(const Key* keys, unsigned n,
                                       const Key& key,
                                       const Compare& less) noexcept {
  bool found = false;
  for (unsigned j = 0; j < n; ++j) {
    found |= !less(key, keys[j]) && !less(keys[j], key);
  }
  return found;
}

/// Tuned default fanout per key width: size K-1 keys to one cache line
/// so the routing scan of a descent step is a single line, with the
/// child-pointer array on the following line(s). 8-byte keys → K=8
/// (56 B of keys), 4-byte and smaller → K=16 (60 B), fatter keys → K=4.
template <typename Key>
inline constexpr unsigned default_fanout =
    sizeof(Key) <= 4 ? 16u : (sizeof(Key) <= 8 ? 8u : 4u);

}  // namespace lfbst::multiway
