// Tests for nm_map — the NM-BST with leaf payloads: map semantics
// against std::map, the single-CAS insert_or_assign replace path, value
// immutability under concurrency, and the assign/delete race.
#include "core/nm_map.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "reclaim/epoch.hpp"

namespace lfbst {
namespace {

TEST(NmMap, EmptyMapBehaviour) {
  nm_map<long, long> m;
  EXPECT_FALSE(m.get(1).has_value());
  EXPECT_FALSE(m.contains(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.size_slow(), 0u);
}

TEST(NmMap, InsertKeepsFirstValue) {
  nm_map<long, long> m;
  EXPECT_TRUE(m.insert(1, 100));
  EXPECT_FALSE(m.insert(1, 200));
  EXPECT_EQ(m.get(1), 100);
}

TEST(NmMap, InsertOrAssignReplaces) {
  nm_map<long, long> m;
  EXPECT_TRUE(m.insert_or_assign(1, 100));   // inserted
  EXPECT_FALSE(m.insert_or_assign(1, 200));  // assigned
  EXPECT_EQ(m.get(1), 200);
  EXPECT_FALSE(m.insert_or_assign(1, 300));
  EXPECT_EQ(m.get(1), 300);
  EXPECT_EQ(m.size_slow(), 1u);
  EXPECT_EQ(m.validate(), "");
}

TEST(NmMap, EraseRemovesValue) {
  nm_map<long, long> m;
  m.insert(1, 10);
  m.insert(2, 20);
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.get(1).has_value());
  EXPECT_EQ(m.get(2), 20);
}

TEST(NmMap, ContainsAndGetAgree) {
  nm_map<long, long> m;
  for (long k = 0; k < 100; k += 2) m.insert(k, k * 10);
  for (long k = 0; k < 100; ++k) {
    EXPECT_EQ(m.contains(k), m.get(k).has_value()) << k;
  }
}

TEST(NmMap, RandomSoupMatchesStdMap) {
  nm_map<long, long> m;
  std::map<long, long> oracle;
  pcg32 rng(777);
  for (int i = 0; i < 60'000; ++i) {
    const long k = rng.bounded(512);
    const long v = static_cast<long>(rng.next64());
    switch (rng.bounded(4)) {
      case 0:
        ASSERT_EQ(m.insert(k, v), oracle.emplace(k, v).second) << i;
        break;
      case 1: {
        const bool inserted_tree = m.insert_or_assign(k, v);
        const bool inserted_oracle =
            oracle.insert_or_assign(k, v).second;
        ASSERT_EQ(inserted_tree, inserted_oracle) << i;
        break;
      }
      case 2:
        ASSERT_EQ(m.erase(k), oracle.erase(k) > 0) << i;
        break;
      default: {
        const auto got = m.get(k);
        const auto it = oracle.find(k);
        ASSERT_EQ(got.has_value(), it != oracle.end()) << i;
        if (got) {
          ASSERT_EQ(*got, it->second) << i;
        }
      }
    }
  }
  EXPECT_EQ(m.size_slow(), oracle.size());
  EXPECT_EQ(m.validate(), "");
  // Full content comparison.
  std::vector<std::pair<long, long>> items;
  m.for_each_item_slow(
      [&items](long k, long v) { items.emplace_back(k, v); });
  ASSERT_EQ(items.size(), oracle.size());
  auto it = oracle.begin();
  for (const auto& [k, v] : items) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TEST(NmMap, StringValuesWithEpochReclaimer) {
  nm_map<long, std::string, std::less<long>, reclaim::epoch> m;
  m.insert_or_assign(1, "one");
  m.insert_or_assign(2, "two");
  m.insert_or_assign(1, "uno");
  EXPECT_EQ(m.get(1), "uno");
  EXPECT_EQ(m.get(2), "two");
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.get(1).has_value());
  EXPECT_EQ(m.validate(), "");
}

TEST(NmMap, AssignChurnReclaimsOldLeaves) {
  nm_map<long, long, std::less<long>, reclaim::epoch> m;
  m.insert(7, 0);
  for (long i = 1; i <= 50'000; ++i) m.insert_or_assign(7, i);
  EXPECT_EQ(m.get(7), 50'000);
  EXPECT_EQ(m.size_slow(), 1u);
  // 50k replaced leaves must not all be pending (epoch flushes).
  EXPECT_LT(m.reclaimer_pending(), 5'000u);
}

TEST(NmMap, ConcurrentAssignersLastWriteWins) {
  // N threads assign distinct tagged values to one key; afterwards the
  // value must be one of the written values (no torn/mixed state) and
  // the map must be structurally sound.
  nm_map<long, long, std::less<long>, reclaim::epoch> m;
  m.insert(42, -1);
  constexpr unsigned kThreads = 4;
  constexpr long kWrites = 20'000;
  spin_barrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      barrier.arrive_and_wait();
      for (long i = 0; i < kWrites; ++i) {
        m.insert_or_assign(42, static_cast<long>(tid) * kWrites + i);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto v = m.get(42);
  ASSERT_TRUE(v.has_value());
  EXPECT_GE(*v, 0);
  EXPECT_LT(*v, static_cast<long>(kThreads) * kWrites);
  // The final value must be some thread's *last few* writes — precisely,
  // each thread's final write is i = kWrites-1; the last-write-wins
  // linearization means the value's within-thread index can be anything,
  // but the map must hold exactly one entry.
  EXPECT_EQ(m.size_slow(), 1u);
  EXPECT_EQ(m.validate(), "");
}

TEST(NmMap, AssignRacingEraseStaysLinearizable) {
  // One thread repeatedly erases+reinserts a key, another assigns to it.
  // Every get must observe either absence or one of the written values.
  nm_map<long, long, std::less<long>, reclaim::epoch> m;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> anomalies{0};
  std::thread eraser([&] {
    for (int i = 0; i < 30'000; ++i) {
      m.erase(5);
      m.insert(5, -1);
    }
    stop.store(true);
  });
  std::thread assigner([&] {
    long i = 1;
    while (!stop.load(std::memory_order_acquire)) {
      m.insert_or_assign(5, i++);
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto v = m.get(5);
      if (v && *v == 0) anomalies.fetch_add(1);  // 0 is never written
    }
  });
  eraser.join();
  assigner.join();
  reader.join();
  EXPECT_EQ(anomalies.load(), 0u);
  EXPECT_EQ(m.validate(), "");
}

TEST(NmMap, AssignCostIsOneCasOneAllocation) {
  // The replace path's static cost, in the spirit of Table 1.
  nm_map<long, long, std::less<long>, reclaim::leaky, obs::recording> m;
  m.insert(9, 0);
  const auto d = m.stats().counters().delta_across(
      [&] { ASSERT_FALSE(m.insert_or_assign(9, 1)); });
  EXPECT_EQ(d[obs::counter::cas], 1u);
  EXPECT_EQ(d[obs::counter::bts], 0u);
  EXPECT_EQ(d[obs::counter::allocs], 1u);  // just the replacement leaf
}

}  // namespace
}  // namespace lfbst
