// Concurrent stress tests, typed over every tree on the shared roster
// (contract/tree_roster.hpp). On this class of machine threads are
// heavily preempted mid-operation, which is exactly the regime where
// helping paths and marked-edge invariants earn their keep (a preempted
// delete is indistinguishable from a stalled one).
//
// Three independent oracles:
//   * conservation — final size must equal successful inserts minus
//     successful erases, summed over all threads;
//   * stripe ownership — threads operate on disjoint key stripes, so
//     each stripe's final membership is exactly predictable despite
//     structural interference between stripes;
//   * anchors — keys inserted before the churn and never deleted must be
//     visible in every read; keys never inserted must never appear.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "contract/tree_roster.hpp"
#include "lfbst/lfbst.hpp"

namespace lfbst {
namespace {

constexpr unsigned kThreads = 4;

template <typename Tree>
class ConcurrentStress : public ::testing::Test {
 public:
  Tree tree;
};

TYPED_TEST_SUITE(ConcurrentStress, tree_roster::types, tree_roster::names);

TYPED_TEST(ConcurrentStress, MixedSoupConservation) {
  auto& set = this->tree;
  constexpr int kOpsPerThread = 40'000;
  constexpr long kRange = 256;  // high contention
  std::atomic<long> net{0};  // successful inserts - successful erases
  spin_barrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(2014, tid);
      long local_net = 0;
      barrier.arrive_and_wait();
      for (int i = 0; i < kOpsPerThread; ++i) {
        const long k = rng.bounded(kRange);
        switch (rng.bounded(3)) {
          case 0:
            if (set.insert(k)) ++local_net;
            break;
          case 1:
            if (set.erase(k)) --local_net;
            break;
          default:
            (void)set.contains(k);
        }
      }
      net.fetch_add(local_net);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(set.size_slow(), static_cast<std::size_t>(net.load()));
  EXPECT_EQ(set.validate(), "");
}

TYPED_TEST(ConcurrentStress, StripeOwnershipExactMembership) {
  auto& set = this->tree;
  constexpr long kStripe = 512;
  spin_barrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      const long base = static_cast<long>(tid) * kStripe;
      pcg32 rng = pcg32::for_thread(7, tid);
      barrier.arrive_and_wait();
      // Deterministic end state per stripe: every key inserted; odd keys
      // erased; every third key erased-then-reinserted. Random shuffle
      // of operation interleaving within the stripe via random walk.
      for (long k = 0; k < kStripe; ++k) ASSERT_TRUE(set.insert(base + k));
      for (long k = 1; k < kStripe; k += 2) {
        ASSERT_TRUE(set.erase(base + k));
      }
      for (long k = 0; k < kStripe; k += 3) {
        if (k % 2 == 1) {
          ASSERT_TRUE(set.insert(base + k));  // erased above, put back
        } else {
          ASSERT_TRUE(set.erase(base + k));  // still present, remove
          ASSERT_TRUE(set.insert(base + k));
        }
      }
      // Extra churn at random stripe keys (net zero).
      for (int i = 0; i < 3000; ++i) {
        const long k = base + rng.bounded(kStripe);
        if (set.insert(k)) {
          ASSERT_TRUE(set.erase(k));
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  for (unsigned tid = 0; tid < kThreads; ++tid) {
    const long base = static_cast<long>(tid) * kStripe;
    for (long k = 0; k < kStripe; ++k) {
      const bool expected = (k % 2 == 0) || (k % 3 == 0);
      ASSERT_EQ(set.contains(base + k), expected)
          << "tid=" << tid << " k=" << k;
    }
  }
  EXPECT_EQ(set.validate(), "");
}

TYPED_TEST(ConcurrentStress, AnchorsStayVisibleUnderChurn) {
  auto& set = this->tree;
  // Anchors: negative keys, inserted up front, never touched again.
  constexpr long kAnchors = 128;
  for (long a = 1; a <= kAnchors; ++a) ASSERT_TRUE(set.insert(-a));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::vector<std::thread> threads;
  // Two churners on positive keys.
  for (unsigned tid = 0; tid < 2; ++tid) {
    threads.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(99, tid);
      for (int i = 0; i < 60'000; ++i) {
        const long k = rng.bounded(128);
        if (rng.bounded(2) == 0) {
          set.insert(k);
        } else {
          set.erase(k);
        }
      }
      stop.store(true);
    });
  }
  // Two readers validating anchors and phantoms.
  for (unsigned tid = 0; tid < 2; ++tid) {
    threads.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(7000 + tid, tid);
      while (!stop.load(std::memory_order_acquire)) {
        const long a = 1 + rng.bounded(kAnchors);
        if (!set.contains(-a)) violations.fetch_add(1);
        // Phantom: key far outside any inserted range.
        if (set.contains(1'000'000 + static_cast<long>(a))) {
          violations.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(set.validate(), "");
}

TYPED_TEST(ConcurrentStress, DuelingDeletesEachKeyRemovedOnce) {
  auto& set = this->tree;
  constexpr long kKeys = 4096;
  for (long k = 0; k < kKeys; ++k) ASSERT_TRUE(set.insert(k));

  // All threads race to delete the same keys; each key must be won by
  // exactly one thread.
  std::atomic<long> victories{0};
  spin_barrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      long wins = 0;
      barrier.arrive_and_wait();
      // Sweep in different directions per thread for maximum overlap.
      if (tid % 2 == 0) {
        for (long k = 0; k < kKeys; ++k) wins += set.erase(k) ? 1 : 0;
      } else {
        for (long k = kKeys - 1; k >= 0; --k) wins += set.erase(k) ? 1 : 0;
      }
      victories.fetch_add(wins);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(victories.load(), kKeys);
  EXPECT_EQ(set.size_slow(), 0u);
  EXPECT_EQ(set.validate(), "");
}

TYPED_TEST(ConcurrentStress, DuelingInsertsEachKeyAddedOnce) {
  auto& set = this->tree;
  constexpr long kKeys = 4096;
  std::atomic<long> victories{0};
  spin_barrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      long wins = 0;
      barrier.arrive_and_wait();
      if (tid % 2 == 0) {
        for (long k = 0; k < kKeys; ++k) wins += set.insert(k) ? 1 : 0;
      } else {
        for (long k = kKeys - 1; k >= 0; --k) wins += set.insert(k) ? 1 : 0;
      }
      victories.fetch_add(wins);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(victories.load(), kKeys);
  EXPECT_EQ(set.size_slow(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(set.validate(), "");
}

TYPED_TEST(ConcurrentStress, InsertEraseDuelOnSingleKey) {
  // The tightest possible conflict: every thread flips the same key.
  // Conservation still must hold exactly.
  auto& set = this->tree;
  std::atomic<long> net{0};
  spin_barrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      long local = 0;
      barrier.arrive_and_wait();
      for (int i = 0; i < 30'000; ++i) {
        if ((i + tid) % 2 == 0) {
          if (set.insert(42)) ++local;
        } else {
          if (set.erase(42)) --local;
        }
      }
      net.fetch_add(local);
    });
  }
  for (auto& t : threads) t.join();
  const long n = net.load();
  EXPECT_TRUE(n == 0 || n == 1) << n;
  EXPECT_EQ(set.size_slow(), static_cast<std::size_t>(n));
  EXPECT_EQ(set.validate(), "");
}

}  // namespace
}  // namespace lfbst
