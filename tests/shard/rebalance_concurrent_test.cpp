// Wall-clock races against online subrange migration: writers, batched
// operations and cross-shard scans running full speed while
// migrate_splitter flips the partition underneath them, plus recorded
// lincheck histories that prove per-key linearizability across the
// dual-routing window. The sequential semantics live in
// migration_test.cpp; the env-scaled soak in rebalance_stress_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "core/natarajan_tree.hpp"
#include "lincheck/lincheck.hpp"
#include "lincheck/recorder.hpp"
#include "obs/heatmap.hpp"
#include "shard/rebalancer.hpp"
#include "shard/sharded_set.hpp"

namespace lfbst {
namespace {

using epoch_tree = nm_tree<long, std::less<long>, reclaim::epoch>;
using recorded_tree =
    nm_tree<long, std::less<long>, reclaim::epoch, obs::recording>;

// Every key found in a shard's tree must be one the current router
// routes to that shard — i.e. each key lives in exactly one logical
// shard once the set is quiescent.
template <typename Set>
void expect_keys_match_router(Set& set, long lo, long hi_incl) {
  for (std::size_t s = 0; s < set.shard_count(); ++s) {
    for (long k : set.shard(s).range_scan_closed(lo, hi_incl)) {
      EXPECT_EQ(set.router().shard_of(k), s)
          << "key " << k << " stranded in shard " << s;
    }
  }
}

// --------------------------------------------------------------------
// Stable evens + churning odds + a migration thread ping-ponging one
// splitter. Scans must always report every stable key; terminal state
// must be structurally valid with no key stranded in a wrong shard.
// --------------------------------------------------------------------

TEST(MigrationConcurrent, WritersAndScansRacingContinuousMigrations) {
  constexpr long kRange = 4096;
  shard::sharded_set<epoch_tree> set(4, 0, kRange);
  for (long k = 0; k < kRange; k += 2) ASSERT_TRUE(set.insert(k));
  const std::size_t stable = static_cast<std::size_t>(kRange) / 2;

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  constexpr unsigned kWriters = 3;
  spin_barrier barrier(kWriters + 2);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kWriters; ++tid) {
    threads.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(2024, tid);
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const long k = 2 * static_cast<long>(rng.bounded(kRange / 2)) + 1;
        switch (rng.bounded(3)) {
          case 0:
            (void)set.insert(k);
            break;
          case 1:
            (void)set.erase(k);
            break;
          default:
            (void)set.contains(k);
        }
      }
    });
  }
  // Scanner: every full scan must contain every stable (even) key.
  threads.emplace_back([&] {
    barrier.arrive_and_wait();
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<long> got = set.range_scan_closed(0, kRange - 1);
      std::size_t evens = 0;
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (i > 0 && got[i - 1] >= got[i]) failures.fetch_add(1);
        if ((got[i] & 1) == 0) ++evens;
      }
      if (evens != stable) failures.fetch_add(1);
    }
  });
  // Migrator: ping-pong splitter 1 between 512 and 1024, and splitter 3
  // between 3072 and 3584, so both directions of subrange movement run.
  threads.emplace_back([&] {
    barrier.arrive_and_wait();
    bool low = true;
    for (int i = 0; i < 60 && !stop.load(std::memory_order_relaxed); ++i) {
      (void)set.migrate_splitter(1, low ? 512 : 1024);
      (void)set.migrate_splitter(3, low ? 3584 : 3072);
      low = !low;
    }
    stop.store(true, std::memory_order_relaxed);
  });
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(set.migration_count(), 2u);
  EXPECT_EQ(set.validate(), "");
  expect_keys_match_router(set, 0, kRange - 1);
  for (long k = 0; k < kRange; k += 2) {
    EXPECT_TRUE(set.contains(k)) << "stable key " << k << " lost";
  }
}

// --------------------------------------------------------------------
// Batched operations racing migrations, with per-thread key ownership:
// each thread mutates only keys ≡ tid (mod kWriters) and tracks the
// final state it produced, so after the race every owned key's
// membership must match exactly — per-key linearizability with no
// cross-thread ambiguity.
// --------------------------------------------------------------------

TEST(MigrationConcurrent, BatchesRacingMigrationsKeepPerKeyTruth) {
  constexpr long kRange = 4096;
  constexpr unsigned kWriters = 3;
  shard::sharded_set<epoch_tree> set(4, 0, kRange);

  std::atomic<bool> stop{false};
  spin_barrier barrier(kWriters + 1);
  std::vector<std::map<long, bool>> truth(kWriters);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kWriters; ++tid) {
    threads.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(4242, tid);
      auto& mine = truth[tid];
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<long> keys(4);
        for (auto& k : keys) {
          k = static_cast<long>(rng.bounded(kRange / kWriters)) * kWriters +
              static_cast<long>(tid);
        }
        if (rng.bounded(2) == 0) {
          (void)set.insert_batch(keys);
          for (long k : keys) mine[k] = true;
        } else {
          (void)set.erase_batch(keys);
          for (long k : keys) mine[k] = false;
        }
      }
    });
  }
  threads.emplace_back([&] {
    barrier.arrive_and_wait();
    bool low = true;
    for (int i = 0; i < 40; ++i) {
      (void)set.migrate_splitter(2, low ? 1536 : 2048);
      low = !low;
    }
    stop.store(true, std::memory_order_relaxed);
  });
  for (auto& t : threads) t.join();

  EXPECT_GE(set.migration_count(), 2u);
  EXPECT_EQ(set.validate(), "");
  expect_keys_match_router(set, 0, kRange - 1);
  for (unsigned tid = 0; tid < kWriters; ++tid) {
    for (const auto& [key, present] : truth[tid]) {
      EXPECT_EQ(set.contains(key), present)
          << "owned key " << key << " of thread " << tid;
    }
  }
}

// --------------------------------------------------------------------
// Recorded lincheck histories: singles, batches and scans racing a
// migration thread, checked against the sequential set specification.
// The migration itself never appears in the history — it must be
// membership-invisible — so a key double-present, lost, or observed
// out of order during the dual-routing window fails the check.
// --------------------------------------------------------------------

TEST(MigrationLincheck, HistoriesStayLinearizableAcrossSplitterFlips) {
  using set_type = shard::sharded_set<nm_tree<int, std::less<int>,
                                              reclaim::epoch>>;
  pcg32 seed_rng(555);
  for (int round = 0; round < 150; ++round) {
    set_type set(2, 0, 16);
    lincheck::recorder rec(set);
    constexpr unsigned kThreads = 3;
    spin_barrier barrier(kThreads + 1);
    const std::uint64_t base_seed = seed_rng.next64();
    std::vector<std::thread> threads;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      threads.emplace_back([&, tid] {
        pcg32 rng = pcg32::for_thread(base_seed, tid);
        // Exactly one scan per thread, at a random slot, so the history
        // length is deterministically bounded: the checker caps at 64
        // entries and each scan contributes its full key width. Worst
        // case here is 3 threads x (4 batch ops x 2 + 1 scan x 8) = 48.
        const int scan_slot = static_cast<int>(rng.bounded(5));
        barrier.arrive_and_wait();
        for (int i = 0; i < 5; ++i) {
          if (i == scan_slot) {
            // [4, 12) straddles every splitter target the migrator
            // visits (4, 12 and 8), so scans observe the moving range.
            rec.range_scan(4, 12);
            continue;
          }
          const int key = static_cast<int>(rng.bounded(16));
          switch (rng.bounded(4)) {
            case 0:
              rec.insert(key);
              break;
            case 1:
              rec.erase(key);
              break;
            case 2:
              rec.contains(key);
              break;
            default: {
              const int other = static_cast<int>(rng.bounded(16));
              if (rng.bounded(2) == 0) {
                rec.insert_batch({key, other});
              } else {
                rec.erase_batch({key, other});
              }
              break;
            }
          }
        }
      });
    }
    threads.emplace_back([&] {
      barrier.arrive_and_wait();
      // Flip the single splitter across the whole round: 8 -> 4 -> 12
      // -> 8, each flip draining whatever currently lives in between.
      for (int target : {4, 12, 8}) {
        (void)set.migrate_splitter(1, target);
      }
    });
    for (auto& t : threads) t.join();
    const lincheck::history h = rec.take();
    ASSERT_TRUE(lincheck::checker::is_linearizable(h))
        << "non-linearizable history in round " << round << " (seed "
        << base_seed << ", " << set.migration_count() << " migrations)";
    ASSERT_EQ(set.validate(), "");
  }
}

// --------------------------------------------------------------------
// The adaptive loop end to end under real concurrency: a background
// rebalancer thread against hot writers. The trigger must fire, the
// partition must tighten around the hot range, and the set must stay
// valid throughout.
// --------------------------------------------------------------------

TEST(RebalancerConcurrent, AdaptiveLoopConvergesOnHotTraffic) {
  using set_type = shard::sharded_set<recorded_tree>;
  constexpr long kRange = 1 << 16;
  set_type set(4, 0, kRange);
  obs::key_heatmap heatmap(0, kRange);
  set.for_each_shard_stats(
      [&](obs::recording& stats) { stats.attach_heatmap(&heatmap); });
  shard::rebalancer_options opts;
  opts.interval_ms = 5;
  opts.min_window_ops = 256;
  opts.heatmap = &heatmap;
  shard::rebalancer<set_type> reb(set, opts);
  reb.start();

  std::atomic<bool> stop{false};
  constexpr unsigned kWriters = 3;
  spin_barrier barrier(kWriters);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kWriters; ++tid) {
    threads.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(77, tid);
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        // 90% of traffic in the bottom 1/16 of the domain.
        const long k =
            rng.bounded(10) < 9
                ? static_cast<long>(rng.bounded(kRange / 16))
                : static_cast<long>(rng.bounded(kRange));
        switch (rng.bounded(3)) {
          case 0:
            (void)set.insert(k);
            break;
          case 1:
            (void)set.erase(k);
            break;
          default:
            (void)set.contains(k);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  reb.stop();

  EXPECT_GE(set.migration_count(), 1u);
  EXPECT_GT(set.keys_migrated(), 0u);
  // The hot sixteenth started wholly inside shard 0; convergence means
  // the first splitter moved down into it.
  EXPECT_LT(set.router().splitter(1), kRange / 4);
  EXPECT_EQ(set.validate(), "");
  expect_keys_match_router(set, 0, kRange - 1);
}

}  // namespace
}  // namespace lfbst
