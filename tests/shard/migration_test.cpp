// Sequential semantics of online subrange migration: the router's
// splitter surgery (quantize_down / with_splitter), the full
// migrate_splitter lifecycle on an idle set (keys move, membership is
// unchanged, the swapped router routes every key to the shard that now
// holds it), the new obs counters and the rebalancer's decision loop.
// The concurrent and adversarial versions of the same protocol live in
// rebalance_concurrent_test.cpp / rebalance_stress_test.cpp; suite
// names keep the Migration/Rebalance stems so CI's promoted TSan step
// (-R 'Rebalance|Migration') picks all of them up.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "core/natarajan_tree.hpp"
#include "obs/heatmap.hpp"
#include "shard/rebalancer.hpp"
#include "shard/sharded_set.hpp"

namespace lfbst {
namespace {

using recorded_tree =
    nm_tree<long, std::less<long>, reclaim::epoch, obs::recording>;

// --- router surgery --------------------------------------------------

TEST(MigrationRouter, QuantizeDownIsIdentityOnExactBucketDomain) {
  // A 64-key domain over a 4096-bucket table: every key is its own
  // bucket edge.
  shard::range_router<long> router(4, 0, 64);
  for (long k = 0; k < 64; ++k) EXPECT_EQ(router.quantize_down(k), k);
}

TEST(MigrationRouter, QuantizeDownSnapsToBucketEdges) {
  // 2^16 keys over 2^12 buckets: bucket width 16.
  shard::range_router<long> router(4, 0, 1 << 16);
  EXPECT_EQ(router.quantize_down(0), 0);
  EXPECT_EQ(router.quantize_down(15), 0);
  EXPECT_EQ(router.quantize_down(16), 16);
  EXPECT_EQ(router.quantize_down(17), 16);
  EXPECT_EQ(router.quantize_down((1 << 16) - 1), (1 << 16) - 16);
}

TEST(MigrationRouter, WithSplitterMovesExactlyOneBoundary) {
  shard::range_router<long> router(4, 0, 64);
  ASSERT_EQ(router.splitter(1), 16);
  ASSERT_EQ(router.splitter(2), 32);
  ASSERT_EQ(router.splitter(3), 48);
  const auto moved = router.with_splitter(2, 24);
  EXPECT_EQ(moved.splitter(1), 16);
  EXPECT_EQ(moved.splitter(2), 24);
  EXPECT_EQ(moved.splitter(3), 48);
  // Routing matches the new boundary on both sides of it.
  EXPECT_EQ(moved.shard_of(23), 1u);
  EXPECT_EQ(moved.shard_of(24), 2u);
  // The original router is untouched (it is immutable by design).
  EXPECT_EQ(router.splitter(2), 32);
}

TEST(MigrationRouter, WithSplitterOnFullDomainRouter) {
  // The 1-arg constructor spans the key type's whole domain (2^W keys,
  // which the half-open [lo, hi) form cannot express). with_splitter
  // must preserve that full-domain footing, not shrink it by one key.
  using lim = std::numeric_limits<long>;
  shard::range_router<long> router(2);
  ASSERT_EQ(router.lo(), lim::min());
  ASSERT_EQ(router.hi_inclusive(), lim::max());
  ASSERT_EQ(router.splitter(1), 0);
  const long target = router.quantize_down(lim::max() / 2);
  const auto moved = router.with_splitter(1, target);
  EXPECT_EQ(moved.splitter(1), target);
  EXPECT_EQ(moved.lo(), lim::min());
  EXPECT_EQ(moved.hi_inclusive(), lim::max());
  EXPECT_EQ(moved.shard_of(target - 1), 0u);
  EXPECT_EQ(moved.shard_of(target), 1u);
}

// --- sequential migrate_splitter lifecycle ---------------------------

TEST(MigrationSequential, LoweringASplitterMovesTheSubrange) {
  shard::sharded_set<recorded_tree> set(4, 0, 4096);
  for (long k = 0; k < 4096; k += 3) ASSERT_TRUE(set.insert(k));
  const std::size_t before = set.size_slow();
  ASSERT_EQ(set.router().splitter(1), 1024);

  // Lower splitter 1 to 512: [512, 1024) moves from shard 1 to shard 0.
  const std::size_t moved = set.migrate_splitter(1, 512);
  EXPECT_EQ(moved, 171u);  // ceil((1024-512)/3)
  EXPECT_EQ(set.router().splitter(1), 512);
  EXPECT_EQ(set.size_slow(), before);
  EXPECT_EQ(set.validate(), "");

  // Every key now sits in the shard the new router routes it to.
  for (std::size_t s = 0; s < set.shard_count(); ++s) {
    for (long k : set.shard(s).range_scan_closed(0, 4095)) {
      EXPECT_EQ(set.router().shard_of(k), s) << "stray key " << k;
    }
  }
  for (long k = 0; k < 4096; ++k) EXPECT_EQ(set.contains(k), k % 3 == 0);
}

TEST(MigrationSequential, RaisingASplitterMovesTheSubrangeRight) {
  shard::sharded_set<recorded_tree> set(4, 0, 4096);
  for (long k = 0; k < 4096; k += 2) ASSERT_TRUE(set.insert(k));
  const std::size_t moved = set.migrate_splitter(2, 2560);
  EXPECT_EQ(moved, 256u);  // evens of [2048, 2560)
  EXPECT_EQ(set.router().splitter(2), 2560);
  EXPECT_EQ(set.validate(), "");
  for (long k = 0; k < 4096; ++k) EXPECT_EQ(set.contains(k), k % 2 == 0);
}

TEST(MigrationSequential, NonMonotoneTargetIsRejected) {
  shard::sharded_set<recorded_tree> set(4, 0, 4096);
  for (long k = 0; k < 4096; k += 7) ASSERT_TRUE(set.insert(k));
  // Targets at or beyond a neighboring splitter would make the
  // partition non-monotone; the call must refuse and change nothing.
  EXPECT_EQ(set.migrate_splitter(2, 1024), 0u);  // == splitter(1)
  EXPECT_EQ(set.migrate_splitter(2, 512), 0u);   // < splitter(1)
  EXPECT_EQ(set.migrate_splitter(2, 3072), 0u);  // == splitter(3)
  EXPECT_EQ(set.migrate_splitter(2, 4000), 0u);  // > splitter(3)
  EXPECT_EQ(set.router().splitter(2), 2048);
  EXPECT_EQ(set.validate(), "");
}

TEST(MigrationSequential, ScansSpanTheFlippedSplitter) {
  shard::sharded_set<recorded_tree> set(4, 0, 4096);
  std::vector<long> expect;
  for (long k = 0; k < 4096; k += 5) {
    ASSERT_TRUE(set.insert(k));
    expect.push_back(k);
  }
  ASSERT_GT(set.migrate_splitter(1, 640), 0u);
  EXPECT_EQ(set.range_scan_closed(0, 4095), expect);
  // Paged scans resume correctly across the moved boundary.
  std::vector<long> paged;
  long lo = 0;
  for (;;) {
    const auto page = set.range_scan_limit(lo, 4096, 100);
    paged.insert(paged.end(), page.keys.begin(), page.keys.end());
    if (!page.truncated) break;
    lo = page.resume_key;
  }
  EXPECT_EQ(paged, expect);
}

// --- obs counters ----------------------------------------------------

TEST(MigrationCounters, LayerCountersRecordMigrations) {
  shard::sharded_set<recorded_tree> set(4, 0, 4096);
  for (long k = 0; k < 2048; k += 2) ASSERT_TRUE(set.insert(k));
  EXPECT_EQ(set.migration_count(), 0u);
  EXPECT_EQ(set.keys_migrated(), 0u);
  const std::size_t moved = set.migrate_splitter(1, 512);
  ASSERT_GT(moved, 0u);
  EXPECT_EQ(set.migration_count(), 1u);
  EXPECT_EQ(set.keys_migrated(), moved);
  EXPECT_GT(set.dual_route_window_ns(), 0u);

  // The merged snapshot folds the layer counters in, under the names
  // the telemetry plane exports.
  const obs::metrics_snapshot merged = set.merged_counters();
  EXPECT_EQ(merged.values[static_cast<std::size_t>(
                obs::counter::migrations)],
            1u);
  EXPECT_EQ(merged.values[static_cast<std::size_t>(
                obs::counter::keys_migrated)],
            moved);
  EXPECT_GT(merged.values[static_cast<std::size_t>(
                obs::counter::dual_route_window_ns)],
            0u);
}

TEST(MigrationCounters, CounterNamesAreExported) {
  EXPECT_STREQ(obs::counter_name(obs::counter::migrations), "migrations");
  EXPECT_STREQ(obs::counter_name(obs::counter::keys_migrated),
               "keys_migrated");
  EXPECT_STREQ(obs::counter_name(obs::counter::dual_route_window_ns),
               "dual_route_window_ns");
}

// --- rebalancer decision loop ----------------------------------------

TEST(RebalancerUnit, BalancedTrafficNeverMigrates) {
  shard::sharded_set<recorded_tree> set(4, 0, 4096);
  shard::rebalancer_options opts;
  opts.min_window_ops = 64;
  shard::rebalancer<shard::sharded_set<recorded_tree>> reb(set, opts);
  for (long k = 0; k < 4096; ++k) (void)set.contains(k);
  EXPECT_EQ(reb.rebalance_once(), 0u);
  EXPECT_EQ(reb.migrations(), 0u);
  EXPECT_EQ(set.router().splitter(1), 1024);
}

TEST(RebalancerUnit, QuietWindowBelowMinOpsIsIgnored) {
  shard::sharded_set<recorded_tree> set(4, 0, 4096);
  shard::rebalancer_options opts;
  opts.min_window_ops = 1u << 20;
  shard::rebalancer<shard::sharded_set<recorded_tree>> reb(set, opts);
  for (long k = 0; k < 512; ++k) (void)set.insert(k);  // all shard 0
  EXPECT_EQ(reb.rebalance_once(), 0u);
}

TEST(RebalancerUnit, QuietWindowsAddUpToADecision) {
  shard::sharded_set<recorded_tree> set(4, 0, 4096);
  shard::rebalancer_options opts;
  opts.min_window_ops = 1024;
  shard::rebalancer<shard::sharded_set<recorded_tree>> reb(set, opts);
  for (long k = 0; k < 4096; k += 2) ASSERT_TRUE(set.insert(k));
  reb.prime();
  // Four windows of 300 ops, all in shard 0's range: each is below
  // min_window_ops on its own, the four together are not.
  for (int w = 0; w < 4; ++w) {
    for (long k = 0; k < 300; ++k) (void)set.contains(k);
    const std::size_t moved = reb.rebalance_once();
    if (w < 3) {
      EXPECT_EQ(moved, 0u) << "window " << w;
    } else {
      EXPECT_GT(moved, 0u) << "window " << w;
    }
  }
  EXPECT_EQ(reb.decisions(), 4u);
  EXPECT_EQ(reb.migrations(), 1u);
  EXPECT_LT(set.router().splitter(1), 1024);
  EXPECT_EQ(set.validate(), "");
}

TEST(RebalancerUnit, HotShardDonatesToNeighbor) {
  shard::sharded_set<recorded_tree> set(4, 0, 4096);
  shard::rebalancer_options opts;
  opts.min_window_ops = 64;
  shard::rebalancer<shard::sharded_set<recorded_tree>> reb(set, opts);
  for (long k = 0; k < 4096; k += 2) ASSERT_TRUE(set.insert(k));
  reb.prime();
  // All the traffic lands in shard 0's range [0, 1024).
  for (int round = 0; round < 4; ++round) {
    for (long k = 0; k < 1024; ++k) (void)set.contains(k);
  }
  const std::size_t moved = reb.rebalance_once();
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(reb.migrations(), 1u);
  // Shard 0 donated its tail to shard 1: the boundary moved left.
  EXPECT_LT(set.router().splitter(1), 1024);
  EXPECT_EQ(set.validate(), "");
}

TEST(RebalancerUnit, HeatmapGuidesTheSplitTowardTraffic) {
  shard::sharded_set<recorded_tree> set(2, 0, 4096);
  obs::key_heatmap heatmap(0, 4096);
  set.for_each_shard_stats(
      [&](obs::recording& stats) { stats.attach_heatmap(&heatmap); });
  shard::rebalancer_options opts;
  opts.min_window_ops = 64;
  opts.heatmap = &heatmap;
  shard::rebalancer<shard::sharded_set<recorded_tree>> reb(set, opts);
  for (long k = 0; k < 4096; k += 4) ASSERT_TRUE(set.insert(k));
  reb.prime();
  heatmap.reset();
  // Traffic concentrated in [0, 256): the traffic-half split point is
  // far left of the range midpoint 1024 the fallback would pick.
  for (int round = 0; round < 64; ++round) {
    for (long k = 0; k < 256; ++k) (void)set.contains(k);
  }
  ASSERT_GT(reb.rebalance_once(), 0u);
  EXPECT_LT(set.router().splitter(1), 512);
  EXPECT_EQ(set.validate(), "");
}

}  // namespace
}  // namespace lfbst
