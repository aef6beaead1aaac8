// BCCO-specific tests: relaxed-AVL balance under adversarial insertion
// orders, partially-external deletion (routing-node demotion and
// revival), version-word behaviour, and oracle churn.
#include "baselines/bcco_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "reclaim/epoch.hpp"

namespace lfbst {
namespace {

TEST(BccoTree, EmptyTree) {
  bcco_tree<long> t;
  EXPECT_FALSE(t.contains(1));
  EXPECT_FALSE(t.erase(1));
  EXPECT_EQ(t.size_slow(), 0u);
  EXPECT_EQ(t.validate(), "");
}

TEST(BccoTree, BasicSemantics) {
  bcco_tree<long> t;
  EXPECT_TRUE(t.insert(10));
  EXPECT_FALSE(t.insert(10));
  EXPECT_TRUE(t.insert(5));
  EXPECT_TRUE(t.insert(15));
  EXPECT_TRUE(t.erase(10));
  EXPECT_FALSE(t.erase(10));
  EXPECT_TRUE(t.contains(5));
  EXPECT_TRUE(t.contains(15));
  EXPECT_EQ(t.size_slow(), 2u);
  EXPECT_EQ(t.validate(), "");
}

TEST(BccoTree, SequentialInsertStaysBalanced) {
  // The raison d'être of the AVL machinery: ascending insertions, which
  // degenerate the other trees to depth n, must stay at ~1.44·log2 n.
  bcco_tree<long> t;
  constexpr long n = 1 << 16;
  for (long k = 0; k < n; ++k) ASSERT_TRUE(t.insert(k));
  EXPECT_EQ(t.size_slow(), static_cast<std::size_t>(n));
  EXPECT_LE(t.height_slow(), static_cast<std::size_t>(1.45 * 16) + 3);
  EXPECT_EQ(t.validate(), "");
}

TEST(BccoTree, DescendingInsertStaysBalanced) {
  bcco_tree<long> t;
  constexpr long n = 1 << 15;
  for (long k = n; k > 0; --k) ASSERT_TRUE(t.insert(k));
  EXPECT_LE(t.height_slow(), static_cast<std::size_t>(1.45 * 15) + 3);
  EXPECT_EQ(t.validate(), "");
}

TEST(BccoTree, ZigZagInsertTriggersDoubleRotations) {
  bcco_tree<long> t;
  // Alternating far-apart/middle keys forces LR/RL rotations.
  for (long k = 0; k < 4096; ++k) {
    const long key = (k % 2 == 0) ? k : 100000 - k;
    ASSERT_TRUE(t.insert(key));
  }
  EXPECT_LE(t.height_slow(), 24u);
  EXPECT_EQ(t.validate(), "");
}

TEST(BccoTree, TwoChildDeleteLeavesRoutingNode) {
  // Partially-external removal: the key disappears logically but the
  // node may stay as a routing node; a re-insert revives it in place.
  bcco_tree<long> t;
  for (long k : {50L, 25L, 75L}) t.insert(k);
  EXPECT_TRUE(t.erase(50));  // two children: demoted, not unlinked
  EXPECT_FALSE(t.contains(50));
  EXPECT_EQ(t.size_slow(), 2u);
  EXPECT_TRUE(t.insert(50));  // revival path (attemptNodeAdd)
  EXPECT_TRUE(t.contains(50));
  EXPECT_EQ(t.size_slow(), 3u);
  EXPECT_EQ(t.validate(), "");
}

TEST(BccoTree, RoutingNodesAreEventuallyUnlinked) {
  // Demote a routing node, then delete its children: rebalancing must
  // clean the childless routing node (validate flags any leftover).
  bcco_tree<long> t;
  for (long k : {50L, 25L, 75L}) t.insert(k);
  EXPECT_TRUE(t.erase(50));
  EXPECT_TRUE(t.erase(25));
  EXPECT_TRUE(t.erase(75));
  EXPECT_EQ(t.size_slow(), 0u);
  EXPECT_EQ(t.validate(), "");
}

TEST(BccoTree, RandomSoupMatchesStdSet) {
  bcco_tree<long> t;
  std::set<long> oracle;
  pcg32 rng(123);
  for (int i = 0; i < 150'000; ++i) {
    const long k = rng.bounded(1024);
    switch (rng.bounded(3)) {
      case 0:
        ASSERT_EQ(t.insert(k), oracle.insert(k).second) << "i=" << i;
        break;
      case 1:
        ASSERT_EQ(t.erase(k), oracle.erase(k) > 0) << "i=" << i;
        break;
      default:
        ASSERT_EQ(t.contains(k), oracle.count(k) > 0) << "i=" << i;
    }
  }
  EXPECT_EQ(t.size_slow(), oracle.size());
  EXPECT_EQ(t.validate(), "");
  std::vector<long> seen;
  t.for_each_slow([&seen](long k) { seen.push_back(k); });
  EXPECT_TRUE(
      std::equal(seen.begin(), seen.end(), oracle.begin(), oracle.end()));
}

TEST(BccoTree, ChurnKeepsHeightBounded) {
  // Long insert/delete churn over a sliding window: relaxed balancing
  // must keep the height logarithmic in the live set, not in the total
  // insertion count.
  bcco_tree<long> t;
  pcg32 rng(55);
  for (long w = 0; w < 50; ++w) {
    for (long k = w * 1000; k < (w + 1) * 1000; ++k) ASSERT_TRUE(t.insert(k));
    if (w >= 2) {
      for (long k = (w - 2) * 1000; k < (w - 1) * 1000; ++k) {
        ASSERT_TRUE(t.erase(k));
      }
    }
  }
  EXPECT_LE(t.size_slow(), 3000u);
  EXPECT_LE(t.height_slow(), 32u);
  EXPECT_EQ(t.validate(), "");
}

TEST(BccoTree, EpochReclaimerChurn) {
  bcco_tree<long, std::less<long>, reclaim::epoch> t;
  for (int round = 0; round < 30; ++round) {
    for (long k = 0; k < 300; ++k) ASSERT_TRUE(t.insert(k));
    for (long k = 0; k < 300; ++k) ASSERT_TRUE(t.erase(k));
  }
  EXPECT_EQ(t.size_slow(), 0u);
  EXPECT_EQ(t.validate(), "");
}

TEST(BccoTree, DuelingInsertsAfterChurnAddEachKeyOnce) {
  // Two threads insert ascending and two descending, so every key is
  // contested and the spines rotate constantly. A descent that recursed
  // into a child without re-checking the parent's version after reading
  // the child's could land an insert in a subtree that no longer covered
  // its key, giving a duplicate. The preceding churn on a throwaway tree
  // warms the slabs, which made the race show in about one round in ten.
  constexpr unsigned kThreads = 4;
  constexpr long kKeys = 4096;
  for (int round = 0; round < 20; ++round) {
    {
      bcco_tree<long> warm;
      std::vector<std::thread> churners;
      for (unsigned tid = 0; tid < kThreads; ++tid) {
        churners.emplace_back([&warm, tid, round] {
          pcg32 rng = pcg32::for_thread(round, tid);
          for (int i = 0; i < 40'000; ++i) {
            const long k = rng.bounded(256);
            if (rng.bounded(2) == 0) {
              warm.insert(k);
            } else {
              warm.erase(k);
            }
          }
        });
      }
      for (auto& th : churners) th.join();
    }
    bcco_tree<long> t;
    std::atomic<long> victories{0};
    spin_barrier barrier(kThreads);
    std::vector<std::thread> threads;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      threads.emplace_back([&, tid] {
        long wins = 0;
        barrier.arrive_and_wait();
        for (long i = 0; i < kKeys; ++i) {
          const long k = (tid % 2 == 0) ? i : kKeys - 1 - i;
          wins += t.insert(k) ? 1 : 0;
        }
        victories.fetch_add(wins);
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(victories.load(), kKeys) << "round " << round;
    ASSERT_EQ(t.size_slow(), static_cast<std::size_t>(kKeys));
    ASSERT_EQ(t.validate(), "") << "round " << round;
  }
}

}  // namespace
}  // namespace lfbst
