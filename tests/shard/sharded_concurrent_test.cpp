// Concurrency tests for the sharded front-end under wall-clock
// scheduling: conservation under a mixed soup of single-key and batched
// operations, cross-shard batch linearizability checked per element
// with the Wing–Gong checker, and stripe-ownership exactness (each
// thread owns keys scattered over every shard).
//
// The deterministic counterpart lives in
// tests/shard/sharded_dsched_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "lfbst/lfbst.hpp"
#include "lincheck/recorder.hpp"

namespace lfbst {
namespace {

constexpr unsigned kThreads = 4;

using sharded_nm = shard::sharded_set<nm_tree<long>>;

// Successful inserts minus successful erases must equal the final size,
// with batches contributing every element individually.
TEST(ShardedConcurrent, MixedSinglesAndBatchesConserveSize) {
  sharded_nm set(8, 0, 512);
  constexpr int kRoundsPerThread = 4'000;
  std::atomic<long> net{0};
  spin_barrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(2026, tid);
      long local_net = 0;
      barrier.arrive_and_wait();
      for (int i = 0; i < kRoundsPerThread; ++i) {
        const auto roll = rng.bounded(6);
        if (roll < 3) {  // single-key ops
          const long k = rng.bounded(512);
          if (roll == 0) {
            if (set.insert(k)) ++local_net;
          } else if (roll == 1) {
            if (set.erase(k)) --local_net;
          } else {
            (void)set.contains(k);
          }
        } else {  // batched ops spanning shards
          std::vector<long> keys;
          const unsigned n = 1 + rng.bounded(16);
          for (unsigned j = 0; j < n; ++j) {
            keys.push_back(rng.bounded(512));
          }
          if (roll == 3) {
            for (const bool ok : set.insert_batch(keys)) {
              if (ok) ++local_net;
            }
          } else if (roll == 4) {
            for (const bool ok : set.erase_batch(keys)) {
              if (ok) --local_net;
            }
          } else {
            (void)set.contains_batch(keys);
          }
        }
      }
      net.fetch_add(local_net, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(static_cast<long>(set.size_slow()), net.load());
  EXPECT_EQ(set.validate(), "");
}

// Threads own disjoint key stripes scattered across every shard
// (stripe = key mod kThreads), so each stripe's final membership is
// exactly predictable even though batches interleave freely.
TEST(ShardedConcurrent, StripedBatchOwnershipIsExact) {
  sharded_nm set(8, 0, 1024);
  spin_barrier barrier(kThreads);
  std::vector<std::set<long>> finals(kThreads);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(31, tid);
      std::set<long> mine;
      barrier.arrive_and_wait();
      for (int round = 0; round < 2'000; ++round) {
        std::vector<long> keys;
        const unsigned n = 1 + rng.bounded(8);
        for (unsigned j = 0; j < n; ++j) {
          // This thread's stripe only, spread over all shards.
          keys.push_back((rng.bounded(256)) * kThreads + tid);
        }
        if (rng.bounded(2) == 0) {
          const auto ok = set.insert_batch(keys);
          for (std::size_t j = 0; j < keys.size(); ++j) {
            const bool expected = mine.insert(keys[j]).second;
            ASSERT_EQ(ok[j], expected) << "key " << keys[j];
          }
        } else {
          const auto ok = set.erase_batch(keys);
          for (std::size_t j = 0; j < keys.size(); ++j) {
            const bool expected = mine.erase(keys[j]) > 0;
            ASSERT_EQ(ok[j], expected) << "key " << keys[j];
          }
        }
      }
      finals[tid] = std::move(mine);
    });
  }
  for (auto& t : threads) t.join();

  std::set<long> expected;
  for (const auto& f : finals) expected.insert(f.begin(), f.end());
  std::set<long> actual;
  set.for_each_slow([&](const long& k) { actual.insert(k); });
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(set.validate(), "");
}

// Small concurrent histories of batches + singles, each element one
// history entry, decided by the Wing–Gong checker. Terminal membership
// is folded in as late contains ops so the final state must be
// explained by the same linearization.
TEST(ShardedConcurrent, BatchElementsAreLinearizable) {
  constexpr int kHistories = 150;
  constexpr unsigned kWorkers = 3;
  for (int h = 0; h < kHistories; ++h) {
    shard::sharded_set<nm_tree<int>> set(4, 0, 16);
    lincheck::recorder rec(set);
    spin_barrier barrier(kWorkers);
    std::vector<std::thread> workers;
    for (unsigned tid = 0; tid < kWorkers; ++tid) {
      workers.emplace_back([&, tid] {
        pcg32 rng = pcg32::for_thread(
            static_cast<std::uint64_t>(h) * 7919 + 1, tid);
        barrier.arrive_and_wait();
        for (int op = 0; op < 3; ++op) {
          std::vector<int> keys;
          const unsigned n = 1 + rng.bounded(3);
          for (unsigned j = 0; j < n; ++j) {
            keys.push_back(static_cast<int>(rng.bounded(16)));
          }
          switch (rng.bounded(3)) {
            case 0: rec.insert_batch(keys); break;
            case 1: rec.erase_batch(keys); break;
            default: rec.contains_batch(keys);
          }
        }
      });
    }
    for (auto& t : workers) t.join();

    // Terminal observations, strictly after everything else.
    for (int k = 0; k < 16; ++k) rec.contains(k);
    const lincheck::history hist = rec.take();
    ASSERT_LE(hist.size(), lincheck::checker::max_ops);
    EXPECT_TRUE(lincheck::checker::is_linearizable(hist))
        << "history " << h << " not linearizable";
    ASSERT_EQ(set.validate(), "");
  }
}

// Scans racing writers, checked with the Wing–Gong checker: the
// recorder turns each scan into one contains(k, k ∈ result) entry per
// interval key over the scan's conservative window, so a key the scan
// wrongly misses (present for the whole window) or wrongly reports
// (absent throughout) makes the history non-linearizable.
TEST(ShardedConcurrent, ScanResultsAreLinearizable) {
  constexpr int kHistories = 120;
  for (int h = 0; h < kHistories; ++h) {
    shard::sharded_set<nm_tree<int>> set(4, 0, 16);
    std::uint64_t initial_state = 0;
    for (int k = 0; k < 16; k += 4) {
      ASSERT_TRUE(set.insert(k));  // pre-population, outside the history
      initial_state |= std::uint64_t{1} << k;
    }
    lincheck::recorder rec(set);
    spin_barrier barrier(3);
    std::vector<std::thread> workers;
    for (unsigned tid = 0; tid < 2; ++tid) {
      workers.emplace_back([&, tid] {
        pcg32 rng = pcg32::for_thread(
            static_cast<std::uint64_t>(h) * 104729 + 3, tid);
        barrier.arrive_and_wait();
        for (int op = 0; op < 4; ++op) {
          const int k = static_cast<int>(rng.bounded(16));
          if (rng.bounded(2) == 0) {
            rec.insert(k);
          } else {
            rec.erase(k);
          }
        }
      });
    }
    workers.emplace_back([&] {
      barrier.arrive_and_wait();
      rec.range_scan(2, 14);  // 12 history entries per scan
      rec.range_scan(0, 8);
    });
    for (auto& t : workers) t.join();

    for (int k = 0; k < 16; ++k) rec.contains(k);
    const lincheck::history hist = rec.take();
    ASSERT_LE(hist.size(), lincheck::checker::max_ops);
    EXPECT_TRUE(lincheck::checker::is_linearizable(hist, initial_state))
        << "history " << h << " not linearizable";
    ASSERT_EQ(set.validate(), "");
  }
}

// Concurrent range scans against the *churning* shards themselves — the
// contract the per-shard concurrent scan lifts to the front-end: no
// quiescence anywhere, yet every scan stays sorted, in-interval, and
// complete for keys that were present the whole time. STABLE keys
// (k % 3 == 0) are pre-inserted and never touched; CHURN keys
// (k % 3 == 1) flicker under the writers; NEVER keys (k % 3 == 2) are
// never inserted and must never appear.
template <typename Tree>
void sharded_churning_scan_contract() {
  shard::sharded_set<Tree> set(8, 0, 1024);
  for (long k = 0; k < 1024; k += 3) ASSERT_TRUE(set.insert(k));
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (unsigned w = 0; w < 3; ++w) {
    writers.emplace_back([&set, &stop, w] {
      pcg32 rng = pcg32::for_thread(97, w);
      while (!stop.load(std::memory_order_relaxed)) {
        const long k = 3 * static_cast<long>(rng.bounded(341)) + 1;
        if ((rng() & 1u) != 0) {
          set.insert(k);
        } else {
          set.erase(k);
        }
      }
    });
  }
  for (int scan = 0; scan < 60; ++scan) {
    const bool closed = (scan & 1) != 0;
    const long lo = 100 + scan;
    const long hi = 900 - scan;
    const std::vector<long> got =
        closed ? set.range_scan_closed(lo, hi) : set.range_scan(lo, hi);
    std::set<long> seen;
    for (std::size_t j = 0; j < got.size(); ++j) {
      const long k = got[j];
      ASSERT_TRUE(j == 0 || got[j - 1] < k) << "not sorted at scan " << scan;
      ASSERT_GE(k, lo);
      if (closed) {
        ASSERT_LE(k, hi);
      } else {
        ASSERT_LT(k, hi);
      }
      ASSERT_NE(k % 3, 2) << "NEVER key " << k << " reported present";
      seen.insert(k);
    }
    for (long k = lo + ((3 - lo % 3) % 3); closed ? k <= hi : k < hi; k += 3) {
      ASSERT_EQ(seen.count(k), 1u) << "STABLE key " << k << " missing";
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
  EXPECT_EQ(set.validate(), "");
}

TEST(ShardedConcurrent, RangeScanOfChurningShardsEpoch) {
  sharded_churning_scan_contract<
      nm_tree<long, std::less<long>, reclaim::epoch>>();
}
TEST(ShardedConcurrent, RangeScanOfChurningShardsHazard) {
  sharded_churning_scan_contract<
      nm_tree<long, std::less<long>, reclaim::hazard>>();
}

// Concurrent range scans against untouched shards: writers hammer the
// low shards while a reader repeatedly scans the quiescent high range.
TEST(ShardedConcurrent, RangeScanOfQuiescentShardsDuringWrites) {
  sharded_nm set(8, 0, 1024);
  // High half pre-populated and never touched again: shards 4..7.
  std::vector<long> high;
  for (long k = 512; k < 1024; k += 3) {
    ASSERT_TRUE(set.insert(k));
    high.push_back(k);
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    pcg32 rng(41);
    while (!stop.load(std::memory_order_relaxed)) {
      const long k = rng.bounded(512);  // low shards only
      if (rng.bounded(2) == 0) {
        set.insert(k);
      } else {
        set.erase(k);
      }
    }
  });
  for (int scan = 0; scan < 200; ++scan) {
    ASSERT_EQ(set.range_scan(512, 1024), high) << "scan " << scan;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(set.validate(), "");
}

}  // namespace
}  // namespace lfbst
