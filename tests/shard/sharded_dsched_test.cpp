// Deterministic schedule exploration through the sharded front-end:
// the inner NM trees run under dsched::sched_atomics, so every
// flag/tag/CAS step of every shard is a schedule point and the
// exploration drives batched operations through genuinely interleaved
// cross-shard and same-shard executions. Every terminal state is
// checked for per-element linearizability (batches are not atomic;
// each element must linearize somewhere inside the batch call) and
// structural validity of every shard.
//
// Budgets scale with LFBST_DSCHED_BUDGET_SCALE (the nightly workflow
// raises it; PR CI runs at 1).
#include <gtest/gtest.h>

#include <vector>

#include "core/natarajan_tree.hpp"
#include "dsched/atomics.hpp"
#include "dsched/harness.hpp"
#include "shard/sharded_set.hpp"

namespace lfbst {
namespace {

using sched_nm = nm_tree<int, std::less<int>, reclaim::leaky, stats::none,
                         void, dsched::sched_atomics>;

// The harness default-constructs the tree under test; pin the shard
// geometry to 4 shards over the dsched key universe [0, 64), i.e.
// shards of 16 keys with splitters at 16/32/48.
struct sched_sharded : shard::sharded_set<sched_nm> {
  sched_sharded() : sharded_set(4, 0, 64) {}
};

using scenario = dsched::scenario<sched_sharded>;

// --------------------------------------------------------------------
// Cross-shard batches: two threads' batches each span two shards, so
// the four element operations interleave across independent trees. The
// per-element results must still linearize (and they exercise the
// batch grouping path, not just the router).
// --------------------------------------------------------------------

TEST(ShardedDsched, CrossShardBatchInsertVsBatchEraseExhaustive) {
  scenario sc;
  sc.setup = [](sched_sharded& t) {
    ASSERT_TRUE(t.insert(1));   // shard 0
    ASSERT_TRUE(t.insert(33));  // shard 2
  };
  sc.threads.push_back([](dsched::recorder<sched_sharded>& r) {
    r.insert_batch({2, 34});  // shards 0 and 2
  });
  sc.threads.push_back([](dsched::recorder<sched_sharded>& r) {
    r.erase_batch({1, 33});  // the same two shards
  });
  sc.universe = {1, 2, 33, 34};
  const auto sum =
      dsched::explore_dfs(sc, dsched::scaled_budget(4096));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_GE(sum.executions, 100u);
}

// --------------------------------------------------------------------
// Same-shard contention through the batch path: a batch's two elements
// and two racing single-key deletes all target shard 0, so the NM
// protocol's flag/tag/cleanup windows open between batch elements.
// --------------------------------------------------------------------

TEST(ShardedDsched, SameShardBatchVsRacingDeletesExhaustive) {
  scenario sc;
  sc.setup = [](sched_sharded& t) {
    ASSERT_TRUE(t.insert(1));
    ASSERT_TRUE(t.insert(2));
  };
  sc.threads.push_back([](dsched::recorder<sched_sharded>& r) {
    r.insert_batch({3, 1});  // second element collides with the erase
  });
  sc.threads.push_back([](dsched::recorder<sched_sharded>& r) {
    r.erase(1);
    r.erase(2);
  });
  sc.universe = {1, 2, 3};
  const auto sum =
      dsched::explore_dfs(sc, dsched::scaled_budget(4096));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_GE(sum.executions, 100u);
}

// --------------------------------------------------------------------
// Splitter-boundary race: key 16 is the first key of shard 1 and key
// 15 the last of shard 0. A batch covering both races a batch erasing
// both — exercising routing exactness under interleaving.
// --------------------------------------------------------------------

TEST(ShardedDsched, SplitterBoundaryBatchesExhaustive) {
  scenario sc;
  sc.setup = [](sched_sharded& t) {
    ASSERT_EQ(t.router().splitter(1), 16);
    ASSERT_TRUE(t.insert(15));
    ASSERT_TRUE(t.insert(16));
  };
  sc.threads.push_back([](dsched::recorder<sched_sharded>& r) {
    r.contains_batch({15, 16});
    r.insert_batch({15, 16});
  });
  sc.threads.push_back([](dsched::recorder<sched_sharded>& r) {
    r.erase_batch({16, 15});
  });
  sc.universe = {15, 16};
  const auto sum =
      dsched::explore_dfs(sc, dsched::scaled_budget(4096));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_GE(sum.executions, 100u);
}

// --------------------------------------------------------------------
// Three-thread PCT + random-walk sweeps over a denser mix of batches
// and singles across all four shards.
// --------------------------------------------------------------------

TEST(ShardedDsched, ThreeThreadBatchSoupPctSweep) {
  scenario sc;
  sc.setup = [](sched_sharded& t) {
    for (int k : {1, 17, 33, 49}) ASSERT_TRUE(t.insert(k));
  };
  sc.threads.push_back([](dsched::recorder<sched_sharded>& r) {
    r.insert_batch({2, 18, 34});
  });
  sc.threads.push_back([](dsched::recorder<sched_sharded>& r) {
    r.erase_batch({1, 17});
    r.insert(50);
  });
  sc.threads.push_back([](dsched::recorder<sched_sharded>& r) {
    r.contains_batch({1, 33});
    r.erase(49);
  });
  sc.universe = {1, 2, 17, 18, 33, 34, 49, 50};
  const auto pct = dsched::explore_pct(sc, /*base_seed=*/7000,
                                       dsched::scaled_budget(500),
                                       /*depth=*/3);
  EXPECT_TRUE(pct.all_ok()) << pct.first_failure;
  const auto walk = dsched::explore_random(sc, /*base_seed=*/9000,
                                           dsched::scaled_budget(500));
  EXPECT_TRUE(walk.all_ok()) << walk.first_failure;
}

}  // namespace
}  // namespace lfbst
