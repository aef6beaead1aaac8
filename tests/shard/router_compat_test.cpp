// Regression tests for the router/comparator-order agreement check
// (shard/sharded_set.hpp: router_order_compatible). The range router
// partitions and stitches in numeric key order; a per-shard tree
// ordered by any other Compare would accept every routed key while
// quietly mis-sharding. The trait must reject those combinations at
// compile time and keep accepting everything that was legal before.
#include "shard/sharded_set.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "common/rng.hpp"
#include "core/key_scramble.hpp"
#include "core/natarajan_tree.hpp"
#include "multiway/kary_tree.hpp"
#include "shard/router.hpp"

namespace lfbst {
namespace {

// Numeric-ordered trees — every tree of the paper's evaluation — stay
// shardable.
static_assert(shard::router_order_compatible_v<nm_tree<long>>);
static_assert(shard::router_order_compatible_v<nm_tree<int>>);
static_assert(shard::router_order_compatible_v<kary_tree<long, 8>>);

// A type that predates the key_compare export is presumed
// numeric-ordered (permissive default — the check cannot see inside).
struct legacy_set {
  using key_type = long;
};
static_assert(shard::router_order_compatible_v<legacy_set>);

// Any non-default Compare breaks the agreement: a reversed order must
// be rejected so the failure is a compile error naming the fix, not
// silent mis-sharding at runtime.
static_assert(
    !shard::router_order_compatible_v<nm_tree<long, std::greater<long>>>);
static_assert(
    !shard::router_order_compatible_v<kary_tree<long, 8, std::greater<long>>>);

// The sanctioned composition routes in scrambled space *above* the
// router, so the inner tree keeps std::less and the trait is happy.
static_assert(shard::router_order_compatible_v<
              shard::sharded_set<nm_tree<long>>::tree_type>);

TEST(RouterCompat, DefaultOrderShardsStillRouteAndStitchCorrectly) {
  // Runtime smoke guarding the permissive arm: the combination the
  // trait admits really does place every key on the shard the router
  // names and stitch ordered scans across shards.
  shard::sharded_set<nm_tree<long>> s(8, 0, 4096);
  std::set<long> oracle;
  pcg32 rng(99u);
  for (int i = 0; i < 4000; ++i) {
    const long k = static_cast<long>(rng.bounded(4096));
    EXPECT_EQ(s.insert(k), oracle.insert(k).second);
  }
  EXPECT_EQ(s.validate(), "");
  EXPECT_EQ(s.size_slow(), oracle.size());
  const auto scanned = s.range_scan_closed(0, 4095);
  EXPECT_EQ(scanned, std::vector<long>(oracle.begin(), oracle.end()));
  // Spot-check placement agreement between router and shards.
  const auto& router = s.router();
  for (long k = 0; k < 4096; k += 97) {
    if (!oracle.count(k)) continue;
    EXPECT_TRUE(s.shard(router.shard_of(k)).contains(k)) << "key " << k;
  }
}

}  // namespace
}  // namespace lfbst
