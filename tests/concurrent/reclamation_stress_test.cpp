// Reclamation-focused stress: under the epoch policy, readers must never
// observe freed memory, retired counts must drain at quiescence, and the
// leaky policy must keep the paper's address-uniqueness guarantee (no
// node reuse while the tree lives).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "lfbst/lfbst.hpp"

namespace lfbst {
namespace {

TEST(ReclamationStress, NmEpochReadersDuringHeavyDeletion) {
  // Churners delete and reinsert aggressively (every delete retires an
  // excised chain); readers traverse concurrently. Under a broken grace
  // period the readers would dereference freed pool memory — ASAN-or-
  // crash territory — and the conservation check would diverge.
  nm_tree<long, std::less<long>, reclaim::epoch> t;
  constexpr long kRange = 512;
  for (long k = 0; k < kRange; k += 2) ASSERT_TRUE(t.insert(k));

  std::atomic<bool> stop{false};
  std::atomic<long> net{0};
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < 2; ++tid) {
    threads.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(2020, tid);
      long local = 0;
      for (int i = 0; i < 60'000; ++i) {
        const long k = rng.bounded(kRange);
        if (rng.bounded(2) == 0) {
          if (t.insert(k)) ++local;
        } else {
          if (t.erase(k)) --local;
        }
      }
      net.fetch_add(local);
      stop.store(true);
    });
  }
  for (unsigned tid = 0; tid < 2; ++tid) {
    threads.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(3030, tid);
      std::uint64_t hits = 0;
      while (!stop.load(std::memory_order_acquire)) {
        hits += t.contains(rng.bounded(kRange)) ? 1 : 0;
      }
      EXPECT_GT(hits, 0u);  // readers actually ran against live data
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.size_slow(),
            static_cast<std::size_t>(net.load()) + kRange / 2);
  EXPECT_EQ(t.validate(), "");
}

TEST(ReclamationStress, EpochPendingStaysBounded) {
  // With regular advances, the limbo backlog must stay O(scan interval ×
  // threads), not grow linearly with the delete count.
  nm_tree<long, std::less<long>, reclaim::epoch> t;
  for (int round = 0; round < 200; ++round) {
    for (long k = 0; k < 128; ++k) ASSERT_TRUE(t.insert(k));
    for (long k = 0; k < 128; ++k) ASSERT_TRUE(t.erase(k));
  }
  // 200 rounds retire ~200*256 nodes; pending must be a small fraction.
  EXPECT_LT(t.reclaimer_pending(), 5'000u);
}

TEST(ReclamationStress, PendingPollsRaceDeleteHeavyChurn) {
  // Regression test for the epoch pending counters: pending() is a
  // monitoring read that races the retire path by design. The per-slot
  // counters are relaxed atomics precisely so this poll is TSan-clean;
  // this test exists to keep it that way — a revert to plain size_t
  // fields fails the ThreadSanitizer build here.
  nm_tree<long, std::less<long>, reclaim::epoch> t;
  constexpr long kRange = 256;
  for (long k = 0; k < kRange; ++k) ASSERT_TRUE(t.insert(k));

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < 3; ++tid) {
    threads.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(4040, tid);
      for (int i = 0; i < 40'000; ++i) {
        const long k = rng.bounded(kRange);
        // Delete-heavy: two erase attempts per insert keeps the limbo
        // buckets churning so the poll overlaps live retire() calls.
        if (rng.bounded(3) == 0) {
          t.insert(k);
        } else {
          t.erase(k);
        }
      }
      stop.store(true, std::memory_order_release);
    });
  }
  // Keep polling until the churn ends, with a floor so the poll count
  // does not depend on thread-start timing.
  std::uint64_t polls = 0;
  while (!stop.load(std::memory_order_acquire) || polls < 1'000) {
    const std::size_t pending = t.reclaimer_pending();
    EXPECT_LE(pending, 1'000'000u);  // sanity: no torn/garbage read
    ++polls;
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.validate(), "");
}

TEST(ReclamationStress, LeakyFootprintGrowsEpochFootprintPlateaus) {
  // The observable difference between the two policies: the leaky tree's
  // pool keeps growing under churn (no reuse of removed nodes), while
  // the epoch tree recycles and plateaus.
  constexpr int kRounds = 100;
  constexpr long kKeys = 256;

  nm_tree<long> leaky_tree;
  for (int r = 0; r < kRounds; ++r) {
    for (long k = 0; k < kKeys; ++k) ASSERT_TRUE(leaky_tree.insert(k));
    for (long k = 0; k < kKeys; ++k) ASSERT_TRUE(leaky_tree.erase(k));
  }

  nm_tree<long, std::less<long>, reclaim::epoch> epoch_tree;
  for (int r = 0; r < kRounds; ++r) {
    for (long k = 0; k < kKeys; ++k) ASSERT_TRUE(epoch_tree.insert(k));
    for (long k = 0; k < kKeys; ++k) ASSERT_TRUE(epoch_tree.erase(k));
  }

  EXPECT_GT(leaky_tree.footprint_bytes(), 4 * epoch_tree.footprint_bytes())
      << "leaky=" << leaky_tree.footprint_bytes()
      << " epoch=" << epoch_tree.footprint_bytes();
}

/// Four threads of insert/erase churn over 128 keys, then conservation
/// and shape checks. Every erase retires nodes and every update retires
/// a coordination record, so freed addresses come back fast.
template <typename Tree>
void hammer(Tree& tree) {
  std::atomic<long> net{0};
  spin_barrier barrier(4);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < 4; ++tid) {
    threads.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(606, tid);
      long local = 0;
      barrier.arrive_and_wait();
      for (int i = 0; i < 25'000; ++i) {
        const long k = rng.bounded(128);
        if (rng.bounded(2) == 0) {
          if (tree.insert(k)) ++local;
        } else {
          if (tree.erase(k)) --local;
        }
      }
      net.fetch_add(local);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tree.size_slow(), static_cast<std::size_t>(net.load()));
  EXPECT_EQ(tree.validate(), "");
}

TEST(ReclamationStress, EfrbAndHjAndBccoEpochChurnConcurrent) {
  // The baselines' retire points are different (owner-retires vs
  // splicer-retires); hammer each under the epoch policy.
  {
    efrb_tree<long, std::less<long>, reclaim::epoch> t;
    hammer(t);
  }
  {
    hj_tree<long, std::less<long>, reclaim::epoch> t;
    hammer(t);
  }
  {
    bcco_tree<long, std::less<long>, reclaim::epoch> t;
    hammer(t);
  }
}

// One tree per test, several rounds each. Update words keep the address
// of the record that last flagged them, and searches CAS against those
// words. A record freed while a word still named it came back at the
// same address and let a stale CAS through, losing an update or
// retiring a node twice. These trees failed in roughly one round in
// five that way under load.
template <typename Tree>
void hammer_rounds() {
  for (int round = 0; round < 10 && !::testing::Test::HasFailure(); ++round) {
    Tree t;
    hammer(t);
  }
}

TEST(ReclamationStress, EfrbEpochChurnRoundsConserve) {
  hammer_rounds<efrb_tree<long, std::less<long>, reclaim::epoch>>();
}

TEST(ReclamationStress, HjEpochChurnRoundsConserve) {
  hammer_rounds<hj_tree<long, std::less<long>, reclaim::epoch>>();
}

TEST(ReclamationStress, KaryEpochChurnRoundsConserve) {
  hammer_rounds<kary_tree<long, 4, std::less<long>, reclaim::epoch>>();
}

TEST(ReclamationStress, DestructionAfterChurnIsClean) {
  // Destroying trees with pending retirements and live marked regions
  // planted by incomplete (helped) operations must not double-free —
  // this test's value is mostly under ASAN, but a crash fails it anywhere.
  for (int round = 0; round < 10; ++round) {
    nm_tree<long, std::less<long>, reclaim::epoch> t;
    std::vector<std::thread> threads;
    for (unsigned tid = 0; tid < 4; ++tid) {
      threads.emplace_back([&, tid] {
        pcg32 rng = pcg32::for_thread(round * 10 + tid, tid);
        for (int i = 0; i < 5'000; ++i) {
          const long k = rng.bounded(64);
          if (rng.bounded(2) == 0) {
            t.insert(k);
          } else {
            t.erase(k);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    // t destroyed here with whatever pending state remains.
  }
  SUCCEED();
}

}  // namespace
}  // namespace lfbst
