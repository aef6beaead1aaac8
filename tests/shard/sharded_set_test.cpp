// Unit tests for the range-partitioned sharded front-end: router
// exactness (splitter boundaries, clamping, quantization), 1-shard
// degeneracy against the plain tree, batch grouping semantics, the
// cross-shard ordered range scan, merged per-instance metrics, and
// composition over every lock-free tree of the paper's evaluation.
#include "shard/sharded_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "lfbst/lfbst.hpp"
#include "shard/router.hpp"

namespace lfbst {
namespace {

using shard::range_router;
using shard::sharded_set;

// --- router -----------------------------------------------------------------

TEST(RangeRouter, UniformSplittersOnPowerOfTwoSpan) {
  range_router<long> r(4, 0, 1024);
  EXPECT_EQ(r.shard_count(), 4u);
  EXPECT_EQ(r.splitter(0), 0);
  EXPECT_EQ(r.splitter(1), 256);
  EXPECT_EQ(r.splitter(2), 512);
  EXPECT_EQ(r.splitter(3), 768);
}

TEST(RangeRouter, KeysOnSplitterBoundariesRouteRight) {
  range_router<long> r(4, 0, 1024);
  for (std::size_t i = 1; i < r.shard_count(); ++i) {
    const long boundary = r.splitter(i);
    EXPECT_EQ(r.shard_of(boundary), i) << "boundary key " << boundary;
    EXPECT_EQ(r.shard_of(boundary - 1), i - 1)
        << "pre-boundary key " << boundary - 1;
  }
}

TEST(RangeRouter, OutOfDomainKeysClampToEdgeShards) {
  range_router<long> r(8, 100, 900);
  EXPECT_EQ(r.shard_of(99), 0u);
  EXPECT_EQ(r.shard_of(-1'000'000), 0u);
  EXPECT_EQ(r.shard_of(900), r.shard_count() - 1);
  EXPECT_EQ(r.shard_of(1'000'000), r.shard_count() - 1);
}

TEST(RangeRouter, NonPowerOfTwoSpanStaysBalanced) {
  // The bucket grid rounds 1000 up to 1024; the splitters must still
  // divide the *domain*, not the grid (a grid split would leave the
  // tail shards empty).
  range_router<long> r(4, 0, 1000);
  EXPECT_EQ(r.splitter(1), 250);
  EXPECT_EQ(r.splitter(2), 500);
  EXPECT_EQ(r.splitter(3), 750);
}

TEST(RangeRouter, RoutingIsMonotoneInTheKey) {
  range_router<long> r(16, 0, 1'000'000);
  std::size_t prev = 0;
  for (long k = 0; k < 1'000'000; k += 997) {
    const std::size_t s = r.shard_of(k);
    EXPECT_GE(s, prev) << "key " << k;
    prev = s;
  }
  EXPECT_EQ(prev, r.shard_count() - 1);  // every shard is reachable
}

TEST(RangeRouter, RoutingAgreesWithInducedSplitters) {
  range_router<long> r(8, 0, 123'457);  // deliberately odd span
  for (long k = 0; k < 123'457; k += 61) {
    const std::size_t s = r.shard_of(k);
    EXPECT_GE(k, r.splitter(s));
    if (s + 1 < r.shard_count()) EXPECT_LT(k, r.splitter(s + 1));
  }
}

TEST(RangeRouter, ExplicitSplitters) {
  range_router<long> r(0, 1000, std::vector<long>{100, 500, 900});
  EXPECT_EQ(r.shard_count(), 4u);
  EXPECT_EQ(r.shard_of(99), 0u);
  EXPECT_EQ(r.shard_of(100), 1u);
  EXPECT_EQ(r.shard_of(499), 1u);
  EXPECT_EQ(r.shard_of(500), 2u);
  EXPECT_EQ(r.shard_of(899), 2u);
  EXPECT_EQ(r.shard_of(900), 3u);
  EXPECT_EQ(r.shard_of(999), 3u);
}

TEST(RangeRouter, FullDomainRouterHandlesNegativeKeys) {
  range_router<int> r(8);
  EXPECT_EQ(r.shard_of(std::numeric_limits<int>::min()), 0u);
  EXPECT_EQ(r.shard_of(std::numeric_limits<int>::max()),
            r.shard_count() - 1);
  // Monotone across the sign boundary.
  EXPECT_LE(r.shard_of(-1), r.shard_of(0));
  EXPECT_LT(r.shard_of(std::numeric_limits<int>::min()), r.shard_of(0));
}

// --- 1-shard degeneracy -----------------------------------------------------

TEST(ShardedSet, OneShardBehavesExactlyLikeThePlainTree) {
  sharded_set<nm_tree<long>> sharded(1, 0, 1024);
  nm_tree<long> plain;
  ASSERT_EQ(sharded.shard_count(), 1u);

  pcg32 rng(7);
  for (int i = 0; i < 20'000; ++i) {
    const long k = static_cast<long>(rng.bounded(1024));
    switch (rng.bounded(3)) {
      case 0: EXPECT_EQ(sharded.insert(k), plain.insert(k)) << k; break;
      case 1: EXPECT_EQ(sharded.erase(k), plain.erase(k)) << k; break;
      default:
        EXPECT_EQ(sharded.contains(k), plain.contains(k)) << k;
    }
  }
  EXPECT_EQ(sharded.size_slow(), plain.size_slow());
  std::vector<long> sharded_keys, plain_keys;
  sharded.for_each_slow([&](const long& k) { sharded_keys.push_back(k); });
  plain.for_each_slow([&](const long& k) { plain_keys.push_back(k); });
  EXPECT_EQ(sharded_keys, plain_keys);
  EXPECT_EQ(sharded.validate(), "");
}

// --- single-key operations across shards ------------------------------------

TEST(ShardedSet, OperationsMatchStdSetOracleAcrossShards) {
  sharded_set<nm_tree<long>> set(8, 0, 4096);
  std::set<long> oracle;
  pcg32 rng(11);
  for (int i = 0; i < 30'000; ++i) {
    const long k = static_cast<long>(rng.bounded(4096));
    switch (rng.bounded(3)) {
      case 0:
        EXPECT_EQ(set.insert(k), oracle.insert(k).second);
        break;
      case 1:
        EXPECT_EQ(set.erase(k), oracle.erase(k) > 0);
        break;
      default:
        EXPECT_EQ(set.contains(k), oracle.count(k) > 0);
    }
  }
  EXPECT_EQ(set.size_slow(), oracle.size());
  EXPECT_EQ(set.validate(), "");
}

TEST(ShardedSet, KeysLandInTheRoutedShard) {
  sharded_set<nm_tree<long>> set(8, 0, 800);
  for (long k = 0; k < 800; k += 7) ASSERT_TRUE(set.insert(k));
  for (std::size_t i = 0; i < set.shard_count(); ++i) {
    set.shard(i).for_each_slow([&](const long& k) {
      EXPECT_EQ(set.router().shard_of(k), i) << "key " << k;
    });
  }
  EXPECT_EQ(set.validate(), "");
}

// --- batched operations -----------------------------------------------------

TEST(ShardedSet, BatchSpanningAllShardsPreservesInputOrder) {
  sharded_set<nm_tree<long>> set(8, 0, 1024);
  // One key per shard, deliberately in reverse shard order, plus a
  // second round that must all fail.
  std::vector<long> keys;
  for (int s = 7; s >= 0; --s) keys.push_back(s * 128 + 3);
  std::vector<bool> first = set.insert_batch(keys);
  EXPECT_EQ(first, std::vector<bool>(8, true));
  std::vector<bool> second = set.insert_batch(keys);
  EXPECT_EQ(second, std::vector<bool>(8, false));
  EXPECT_EQ(set.contains_batch(keys), std::vector<bool>(8, true));
  EXPECT_EQ(set.erase_batch(keys), std::vector<bool>(8, true));
  EXPECT_EQ(set.size_slow(), 0u);
}

TEST(ShardedSet, DuplicateKeysInOneBatchApplyInInputOrder) {
  sharded_set<nm_tree<long>> set(4, 0, 64);
  const std::vector<long> keys{5, 5, 9, 5};
  const std::vector<bool> inserted = set.insert_batch(keys);
  EXPECT_EQ(inserted, (std::vector<bool>{true, false, true, false}));
  const std::vector<bool> erased = set.erase_batch({5, 5});
  EXPECT_EQ(erased, (std::vector<bool>{true, false}));
}

TEST(ShardedSet, AlternatingRepeatsAcrossShardsMatchSequentialApplication) {
  // 5 and 40 live in different shards; each repeat must see the effect
  // of the earlier same-key element, exactly as point calls would.
  sharded_set<nm_tree<long>> set(4, 0, 64);
  sharded_set<nm_tree<long>> sequential(4, 0, 64);
  ASSERT_NE(set.router().shard_of(5), set.router().shard_of(40));
  const std::vector<long> keys{5, 40, 5, 40, 5};
  const auto apply = [&](auto point_op) {
    std::vector<bool> want;
    for (const long k : keys) want.push_back(point_op(k));
    return want;
  };
  const std::vector<bool> inserted = set.insert_batch(keys);
  EXPECT_EQ(inserted, apply([&](long k) { return sequential.insert(k); }));
  EXPECT_EQ(inserted, (std::vector<bool>{true, true, false, false, false}));
  EXPECT_EQ(set.contains_batch(keys), std::vector<bool>(5, true));
  const std::vector<bool> erased = set.erase_batch(keys);
  EXPECT_EQ(erased, apply([&](long k) { return sequential.erase(k); }));
  EXPECT_EQ(erased, (std::vector<bool>{true, true, false, false, false}));
  EXPECT_EQ(set.contains_batch(keys), std::vector<bool>(5, false));
  EXPECT_EQ(set.size_slow(), 0u);
}

TEST(ShardedSet, MixedBatchResultsLandAtOriginalPositions) {
  sharded_set<nm_tree<long>> set(8, 0, 1024);
  std::set<long> oracle;
  pcg32 rng(13);
  for (int round = 0; round < 50; ++round) {
    std::vector<long> keys;
    const unsigned n = 1 + rng.bounded(64);
    for (unsigned i = 0; i < n; ++i) {
      keys.push_back(static_cast<long>(rng.bounded(1024)));
    }
    const auto mode = rng.bounded(3);
    std::vector<bool> got;
    std::vector<bool> want;
    if (mode == 0) {
      got = set.insert_batch(keys);
      for (const long k : keys) want.push_back(oracle.insert(k).second);
    } else if (mode == 1) {
      got = set.erase_batch(keys);
      for (const long k : keys) want.push_back(oracle.erase(k) > 0);
    } else {
      got = set.contains_batch(keys);
      for (const long k : keys) want.push_back(oracle.count(k) > 0);
    }
    ASSERT_EQ(got, want) << "round " << round << " mode " << mode;
  }
  EXPECT_EQ(set.size_slow(), oracle.size());
  EXPECT_EQ(set.validate(), "");
}

TEST(ShardedSet, EmptyBatchIsANoOp) {
  sharded_set<nm_tree<long>> set(4, 0, 64);
  EXPECT_TRUE(set.insert_batch({}).empty());
  EXPECT_TRUE(set.erase_batch({}).empty());
  EXPECT_TRUE(set.contains_batch({}).empty());
}

// --- range scan -------------------------------------------------------------

TEST(ShardedSet, RangeScanStitchesShardsInKeyOrder) {
  sharded_set<nm_tree<long>> set(8, 0, 1024);
  std::vector<long> inserted;
  pcg32 rng(17);
  for (int i = 0; i < 400; ++i) {
    const long k = static_cast<long>(rng.bounded(1024));
    if (set.insert(k)) inserted.push_back(k);
  }
  std::sort(inserted.begin(), inserted.end());
  EXPECT_EQ(set.range_scan(0, 1024), inserted);
}

TEST(ShardedSet, RangeScanHonorsHalfOpenBounds) {
  sharded_set<nm_tree<long>> set(4, 0, 1024);
  for (long k : {10L, 20L, 30L, 40L}) ASSERT_TRUE(set.insert(k));
  EXPECT_EQ(set.range_scan(20, 40), (std::vector<long>{20, 30}));
  EXPECT_EQ(set.range_scan(20, 41), (std::vector<long>{20, 30, 40}));
  EXPECT_EQ(set.range_scan(21, 40), (std::vector<long>{30}));
  EXPECT_TRUE(set.range_scan(20, 20).empty());   // empty interval
  EXPECT_TRUE(set.range_scan(40, 20).empty());   // inverted interval
  EXPECT_TRUE(set.range_scan(50, 1024).empty()); // nothing above 40
}

TEST(ShardedSet, RangeScanAcrossEmptyMiddleShards) {
  sharded_set<nm_tree<long>> set(8, 0, 1024);
  // Keys only in the first and last shard; the six shards in between
  // are empty and must contribute nothing.
  ASSERT_TRUE(set.insert(5));
  ASSERT_TRUE(set.insert(1000));
  EXPECT_EQ(set.range_scan(0, 1024), (std::vector<long>{5, 1000}));
  EXPECT_TRUE(set.range_scan(200, 800).empty());
}

TEST(ShardedSet, RangeScanOnEmptySetIsEmpty) {
  sharded_set<nm_tree<long>> set(8, 0, 1024);
  EXPECT_TRUE(set.range_scan(0, 1024).empty());
}

TEST(ShardedSet, RangeScanAtSplitterBoundary) {
  sharded_set<nm_tree<long>> set(4, 0, 1024);
  const long b1 = set.router().splitter(1);
  const long b2 = set.router().splitter(2);
  for (long k = b1 - 2; k < b2 + 2; ++k) ASSERT_TRUE(set.insert(k));
  // Exactly shard 1's range: starts on its splitter, ends one short of
  // the next.
  std::vector<long> want;
  for (long k = b1; k < b2; ++k) want.push_back(k);
  EXPECT_EQ(set.range_scan(b1, b2), want);
}

TEST(ShardedSet, RangeScanClosedIncludesBothEndpoints) {
  sharded_set<nm_tree<long>> set(4, 0, 1024);
  for (long k : {10L, 20L, 30L, 40L}) ASSERT_TRUE(set.insert(k));
  EXPECT_EQ(set.range_scan_closed(20, 40), (std::vector<long>{20, 30, 40}));
  EXPECT_EQ(set.range_scan_closed(20, 20), (std::vector<long>{20}));
  EXPECT_TRUE(set.range_scan_closed(40, 20).empty());  // inverted interval
  EXPECT_TRUE(set.range_scan_closed(21, 29).empty());
}

// --- bounded scans (the server's paging form) -------------------------------

TEST(ShardedSet, RangeScanLimitPagesStitchIntoTheFullScan) {
  sharded_set<nm_tree<long>> set(8, 0, 1024);
  pcg32 rng(23);
  for (int i = 0; i < 500; ++i) {
    (void)set.insert(static_cast<long>(rng.bounded(1024)));
  }
  const std::vector<long> full = set.range_scan(0, 1024);
  for (const std::size_t page_size : {1u, 3u, 7u, 64u, 4096u}) {
    std::vector<long> paged;
    long cursor = 0;
    for (;;) {
      const auto page = set.range_scan_limit(cursor, 1024, page_size);
      EXPECT_LE(page.keys.size(), page_size);
      paged.insert(paged.end(), page.keys.begin(), page.keys.end());
      if (!page.truncated) break;
      EXPECT_GT(page.resume_key, cursor);  // progress every page
      cursor = page.resume_key;
    }
    EXPECT_EQ(paged, full) << "page size " << page_size;
  }
}

TEST(ShardedSet, RangeScanLimitResumesExactlyAtShardBoundaries) {
  sharded_set<nm_tree<long>> set(4, 0, 1024);
  const long b1 = set.router().splitter(1);
  // Keys straddling the seam: b1-3 .. b1+2 plus distant outliers.
  for (long k = b1 - 3; k <= b1 + 2; ++k) ASSERT_TRUE(set.insert(k));
  ASSERT_TRUE(set.insert(5));
  ASSERT_TRUE(set.insert(1000));
  // A page that fills exactly at the last key below the seam must
  // resume at the seam key itself — nothing skipped, nothing repeated.
  const auto page = set.range_scan_limit(0, 1024, 4);  // 5, b1-3..b1-1
  ASSERT_EQ(page.keys, (std::vector<long>{5, b1 - 3, b1 - 2, b1 - 1}));
  ASSERT_TRUE(page.truncated);
  EXPECT_EQ(page.resume_key, b1);
  const auto rest = set.range_scan_limit(page.resume_key, 1024, 4096);
  EXPECT_EQ(rest.keys, (std::vector<long>{b1, b1 + 1, b1 + 2, 1000}));
  EXPECT_FALSE(rest.truncated);
}

TEST(ShardedSet, RangeScanLimitEdgeCases) {
  sharded_set<nm_tree<long>> set(4, 0, 1024);
  for (long k : {10L, 20L, 30L}) ASSERT_TRUE(set.insert(k));
  // Zero budget: a pure continuation marker, resuming at lo.
  const auto zero = set.range_scan_limit(10, 31, 0);
  EXPECT_TRUE(zero.keys.empty());
  EXPECT_TRUE(zero.truncated);
  EXPECT_EQ(zero.resume_key, 10);
  // Empty and inverted intervals are complete, not truncated.
  EXPECT_FALSE(set.range_scan_limit(10, 10, 8).truncated);
  EXPECT_FALSE(set.range_scan_limit(30, 10, 8).truncated);
  // Budget larger than the population: complete in one page.
  const auto all = set.range_scan_limit(0, 1024, 8);
  EXPECT_EQ(all.keys, (std::vector<long>{10, 20, 30}));
  EXPECT_FALSE(all.truncated);
  // Budget exactly the population: conservatively truncated (the scan
  // cannot know it finished), and the follow-up page is empty.
  const auto exact = set.range_scan_limit(0, 1024, 3);
  EXPECT_EQ(exact.keys, (std::vector<long>{10, 20, 30}));
  EXPECT_TRUE(exact.truncated);
  const auto after = set.range_scan_limit(exact.resume_key, 1024, 3);
  EXPECT_TRUE(after.keys.empty());
  EXPECT_FALSE(after.truncated);
  // A page ending exactly at hi - 1 is complete by construction.
  const auto to_edge = set.range_scan_limit(0, 31, 3);
  EXPECT_EQ(to_edge.keys, (std::vector<long>{10, 20, 30}));
  EXPECT_FALSE(to_edge.truncated);
}

TEST(ShardedSet, RangeScanLimitAtTheKeyDomainMaximum) {
  // The resume arithmetic must not overflow when a full page ends on
  // the largest representable key.
  sharded_set<nm_tree<long>> set;  // whole long domain
  const long max = std::numeric_limits<long>::max();
  ASSERT_TRUE(set.insert(max - 2));
  ASSERT_TRUE(set.insert(max - 1));
  const auto page = set.range_scan_limit(max - 2, max, 2);
  EXPECT_EQ(page.keys, (std::vector<long>{max - 2, max - 1}));
  EXPECT_FALSE(page.truncated);  // last key == hi - 1: complete
}

TEST(ShardedSet, RangeScanLimitFallsBackForTreesWithoutBoundedScan) {
  // EFRB has no bounded concurrent scan: the quiescent fallback must
  // still page correctly (in key order, budget respected).
  sharded_set<efrb_tree<long>> set(4, 0, 1024);
  for (long k : {3L, 300L, 600L, 900L}) ASSERT_TRUE(set.insert(k));
  const auto page = set.range_scan_limit(0, 1024, 3);
  EXPECT_EQ(page.keys, (std::vector<long>{3, 300, 600}));
  ASSERT_TRUE(page.truncated);
  const auto rest = set.range_scan_limit(page.resume_key, 1024, 3);
  EXPECT_EQ(rest.keys, (std::vector<long>{900}));
  EXPECT_FALSE(rest.truncated);
}

TEST(ShardedSet, RangeScanClosedAtSplitterBoundary) {
  sharded_set<nm_tree<long>> set(4, 0, 1024);
  const long b1 = set.router().splitter(1);
  const long b2 = set.router().splitter(2);
  for (long k = b1 - 2; k <= b2 + 2; ++k) ASSERT_TRUE(set.insert(k));
  // Closed interval whose endpoints are exactly the splitters: both
  // boundary keys are included, and the scan crosses the shard seam.
  std::vector<long> want;
  for (long k = b1; k <= b2; ++k) want.push_back(k);
  EXPECT_EQ(set.range_scan_closed(b1, b2), want);
}

// The half-open form cannot name an interval containing the largest
// key of the domain — [lo, max) excludes max and [lo, max+1) overflows.
// The closed form covers that gap, all the way to the router's edge
// shard.
TEST(ShardedSet, RangeScanClosedReachesDomainMax) {
  constexpr long kMax = std::numeric_limits<long>::max();
  sharded_set<nm_tree<long>> set;  // default: whole key domain
  ASSERT_TRUE(set.insert(kMax));
  ASSERT_TRUE(set.insert(kMax - 5));
  ASSERT_TRUE(set.insert(0));
  EXPECT_EQ(set.range_scan_closed(kMax - 5, kMax),
            (std::vector<long>{kMax - 5, kMax}));
  EXPECT_EQ(set.range_scan_closed(0, kMax),
            (std::vector<long>{0, kMax - 5, kMax}));
  // Documented half-open behaviour over the same bounds: max excluded.
  EXPECT_EQ(set.range_scan(0, kMax), (std::vector<long>{0, kMax - 5}));
}

// --- merged metrics ---------------------------------------------------------

using recorded_nm =
    nm_tree<long, std::less<long>, reclaim::leaky, obs::recording>;

TEST(ShardedSet, MergedCountersEqualPerShardSums) {
  sharded_set<recorded_nm> set(4, 0, 256);
  pcg32 rng(23);
  std::uint64_t inserts = 0, searches = 0, erases = 0;
  for (int i = 0; i < 5'000; ++i) {
    const long k = static_cast<long>(rng.bounded(256));
    switch (rng.bounded(3)) {
      case 0: set.insert(k); ++inserts; break;
      case 1: set.erase(k); ++erases; break;
      default: set.contains(k); ++searches;
    }
  }
  const obs::metrics_snapshot merged = set.merged_counters();
  EXPECT_EQ(merged[obs::counter::ops_insert], inserts);
  EXPECT_EQ(merged[obs::counter::ops_search], searches);
  EXPECT_EQ(merged[obs::counter::ops_erase], erases);

  obs::metrics_snapshot manual;
  for (std::size_t i = 0; i < set.shard_count(); ++i) {
    manual.merge(set.shard(i).stats().counters().snapshot());
  }
  EXPECT_EQ(merged.values, manual.values);
}

TEST(ShardedSet, MergedHistogramsCoverEveryOperation) {
  sharded_set<recorded_nm> set(4, 0, 256);
  for (long k = 0; k < 200; ++k) set.insert(k);
  const obs::histogram lat =
      set.merged_latency_histogram(stats::op_kind::insert);
  EXPECT_EQ(lat.count(), 200u);
  const obs::histogram depth = set.merged_seek_depth_histogram();
  EXPECT_GT(depth.count(), 0u);
}

// --- composition over the other lock-free trees -----------------------------

template <typename Tree>
void composition_smoke() {
  sharded_set<Tree> set(4, 0, 512);
  std::set<long> oracle;
  pcg32 rng(29);
  for (int i = 0; i < 5'000; ++i) {
    const long k = static_cast<long>(rng.bounded(512));
    switch (rng.bounded(3)) {
      case 0: ASSERT_EQ(set.insert(k), oracle.insert(k).second); break;
      case 1: ASSERT_EQ(set.erase(k), oracle.erase(k) > 0); break;
      default: ASSERT_EQ(set.contains(k), oracle.count(k) > 0);
    }
  }
  ASSERT_EQ(set.size_slow(), oracle.size());
  ASSERT_EQ(set.validate(), "");
  std::vector<long> want(oracle.begin(), oracle.end());
  ASSERT_EQ(set.range_scan(0, 512), want);
}

TEST(ShardedSet, ComposesOverEfrb) { composition_smoke<efrb_tree<long>>(); }
TEST(ShardedSet, ComposesOverHj) { composition_smoke<hj_tree<long>>(); }
TEST(ShardedSet, ComposesOverNmWithEpochReclamation) {
  composition_smoke<nm_tree<long, std::less<long>, reclaim::epoch>>();
}

TEST(ShardedSet, DefaultConstructionCoversTheWholeKeyDomain) {
  sharded_set<nm_tree<int>> set;
  EXPECT_EQ(set.shard_count(), sharded_set<nm_tree<int>>::default_shard_count);
  EXPECT_TRUE(set.insert(-1'000'000));
  EXPECT_TRUE(set.insert(0));
  EXPECT_TRUE(set.insert(1'000'000));
  EXPECT_EQ(set.range_scan(-2'000'000, 2'000'000),
            (std::vector<int>{-1'000'000, 0, 1'000'000}));
  EXPECT_EQ(set.validate(), "");
}

static_assert(ConcurrentSet<shard::sharded_set<nm_tree<long>>>);
static_assert(ConcurrentSet<shard::sharded_set<efrb_tree<long>>>);
static_assert(ConcurrentSet<shard::sharded_set<hj_tree<long>>>);

}  // namespace
}  // namespace lfbst
