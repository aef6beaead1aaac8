// lfbst: nm_map — the NM-BST as a concurrent ordered map.
//
// Same algorithm, same policies, but leaves carry a mapped value and the
// API gains get(), insert(key, value) and insert_or_assign(). Assignment
// is the paper's §6 "replace" direction realized with the edge-marking
// machinery already in place: one CAS swings the parent's edge from the
// old (key, old value) leaf to a fresh (key, new value) leaf; a delete
// that flagged the edge first simply wins the CAS race and the assign
// retries as an insert.
//
//   lfbst::nm_map<long, std::string,
//                 std::less<long>, lfbst::reclaim::epoch> prices;
//   prices.insert_or_assign(7, "1.99");
//   prices.get(7);     // -> std::optional<std::string>{"1.99"}
//   prices.erase(7);   // -> true
//
// Notes:
//   * Values are immutable per leaf: readers copy them out without any
//     synchronization beyond the seek. Choose cheap-to-copy value types
//     or wrap in std::shared_ptr.
//   * The leaky reclaimer (paper regime) requires trivially destructible
//     values; use reclaim::epoch for owning types (enforced at compile
//     time).
#pragma once

#include <functional>

#include "core/natarajan_tree.hpp"

namespace lfbst {

template <typename Key, typename T, typename Compare = std::less<Key>,
          typename Reclaimer = reclaim::leaky, typename Stats = stats::none>
using nm_map = nm_tree<Key, Compare, Reclaimer, Stats, T>;

}  // namespace lfbst
