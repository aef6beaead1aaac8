// Equivalence tests for the k-ary tree's in-node reductions
// (multiway/node_search.hpp): route_index must agree with
// std::upper_bound and contains_key with std::find, for every node
// size a fanout can produce, at every key and in every gap, including
// the extremes of the key type.
#include "multiway/node_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace lfbst::multiway {
namespace {

// Each key of `keys`, both of its neighbours, and both extremes of the
// key type: together these hit every key and every gap of a sorted node.
template <typename Key>
std::vector<Key> probes_for(const std::vector<Key>& keys) {
  using lim = std::numeric_limits<Key>;
  std::vector<Key> probes{lim::min(), lim::max(), Key{0}};
  for (const Key k : keys) {
    probes.push_back(k);
    if (k != lim::min()) probes.push_back(static_cast<Key>(k - 1));
    if (k != lim::max()) probes.push_back(static_cast<Key>(k + 1));
  }
  return probes;
}

// `pool` is sorted under `cmp`. Every window of n consecutive pool keys,
// for n = 0..max_n, is one node's routing keys; contains_key is also
// checked on the reversed window, since leaf keys carry no order.
template <typename Key, typename Compare>
void check_against_std(const std::vector<Key>& pool, unsigned max_n,
                       const Compare& cmp) {
  ASSERT_TRUE(std::is_sorted(pool.begin(), pool.end(), cmp));
  ASSERT_GE(pool.size(), max_n);
  for (unsigned n = 0; n <= max_n; ++n) {
    for (std::size_t start = 0; start + n <= pool.size(); ++start) {
      const std::vector<Key> keys(pool.begin() + start,
                                  pool.begin() + start + n);
      std::vector<Key> reversed(keys.rbegin(), keys.rend());
      for (const Key probe : probes_for(keys)) {
        const auto want_route = static_cast<unsigned>(
            std::upper_bound(keys.begin(), keys.end(), probe, cmp) -
            keys.begin());
        const bool want_found =
            std::find(keys.begin(), keys.end(), probe) != keys.end();
        EXPECT_EQ(route_index(keys.data(), n, probe, cmp), want_route)
            << "n=" << n << " start=" << start << " probe=" << probe;
        EXPECT_EQ(contains_key(keys.data(), n, probe, cmp), want_found)
            << "n=" << n << " start=" << start << " probe=" << probe;
        EXPECT_EQ(contains_key(reversed.data(), n, probe, cmp), want_found)
            << "reversed n=" << n << " start=" << start << " probe=" << probe;
      }
    }
  }
}

template <typename Key>
std::vector<Key> ascending_pool() {
  using lim = std::numeric_limits<Key>;
  std::vector<Key> pool{lim::min(), static_cast<Key>(lim::min() + 1),
                        static_cast<Key>(lim::min() / 2)};
  for (int k = -9; k <= 9; k += 2) pool.push_back(static_cast<Key>(k));
  pool.push_back(static_cast<Key>(lim::max() / 2));
  pool.push_back(static_cast<Key>(lim::max() - 1));
  pool.push_back(lim::max());
  return pool;
}

TEST(NodeSearch, Int32MatchesUpperBoundAndFind) {
  check_against_std(ascending_pool<std::int32_t>(), 15,
                    std::less<std::int32_t>{});
}

TEST(NodeSearch, Int64MatchesUpperBoundAndFind) {
  check_against_std(ascending_pool<std::int64_t>(), 7,
                    std::less<std::int64_t>{});
}

TEST(NodeSearch, GreaterComparatorMatchesUpperBoundAndFind) {
  std::vector<std::int32_t> pool = ascending_pool<std::int32_t>();
  std::reverse(pool.begin(), pool.end());
  check_against_std(pool, 15, std::greater<std::int32_t>{});
}

}  // namespace
}  // namespace lfbst::multiway
