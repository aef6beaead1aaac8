// Concurrent ordered scans over the multiway k-ary tree: the same
// conservative-interval contract as nm_tree (tests/core/nm_scan_test),
// checked across reclaimers and fanouts. The bounded
// page form is covered for both trees by tests/core/ordered_scan_test.
// Scan parity is what lets kary ride the shared contract and sharding
// layers with no carve-outs.
#include "multiway/kary_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "reclaim/epoch.hpp"

namespace lfbst {
namespace {

using leaky_tree = kary_tree<long, 8>;
using epoch_tree = kary_tree<long, 8, std::less<long>, reclaim::epoch>;
using binary_tree = kary_tree<long, 2>;  // degenerate fanout: 1-key leaves

std::vector<long> sorted_keys(const std::set<long>& reference, long lo,
                              long hi, bool closed) {
  std::vector<long> out;
  for (const long k : reference) {
    if (k < lo) continue;
    if (closed ? k > hi : k >= hi) continue;
    out.push_back(k);
  }
  return out;
}

template <typename Tree>
void expect_scan_matches_reference() {
  Tree t;
  std::set<long> reference;
  pcg32 gen(12345);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 400; ++i) {
      const long k = static_cast<long>(gen.bounded(1024));
      if ((gen() & 1u) != 0) {
        t.insert(k);
        reference.insert(k);
      } else {
        t.erase(k);
        reference.erase(k);
      }
    }
    const std::vector<long> half = t.range_scan(100, 900);
    EXPECT_EQ(half, sorted_keys(reference, 100, 900, false));
    const std::vector<long> closed = t.range_scan_closed(0, 1023);
    EXPECT_EQ(closed, sorted_keys(reference, 0, 1023, true));
    std::vector<long> all;
    t.for_each([&all](const long& k) { all.push_back(k); });
    EXPECT_EQ(all, std::vector<long>(reference.begin(), reference.end()));
    std::vector<long> bounded;
    t.for_each(100, 900, [&bounded](const long& k) { bounded.push_back(k); });
    EXPECT_EQ(bounded, half);
  }
  EXPECT_EQ(t.validate(), "");
}

TEST(KaryScan, EmptyTreeScansAreEmpty) {
  leaky_tree a;
  epoch_tree b;
  EXPECT_TRUE(a.range_scan(0, 100).empty());
  EXPECT_TRUE(b.range_scan_closed(0, 100).empty());
  std::size_t visits = 0;
  b.for_each([&visits](const long&) { ++visits; });
  EXPECT_EQ(visits, 0u);
}

TEST(KaryScan, HalfOpenBoundsSemantics) {
  epoch_tree t;
  for (long k = 0; k <= 10; ++k) t.insert(k);
  EXPECT_EQ(t.range_scan(3, 7), (std::vector<long>{3, 4, 5, 6}));
  EXPECT_TRUE(t.range_scan(5, 5).empty());   // empty interval
  EXPECT_TRUE(t.range_scan(7, 3).empty());   // inverted interval
  EXPECT_EQ(t.range_scan(-5, 2), (std::vector<long>{0, 1}));
  EXPECT_EQ(t.range_scan(9, 100), (std::vector<long>{9, 10}));
}

TEST(KaryScan, ClosedBoundsSemantics) {
  epoch_tree t;
  for (long k = 0; k <= 10; ++k) t.insert(k);
  EXPECT_EQ(t.range_scan_closed(3, 7), (std::vector<long>{3, 4, 5, 6, 7}));
  EXPECT_EQ(t.range_scan_closed(5, 5), (std::vector<long>{5}));  // singleton
  EXPECT_TRUE(t.range_scan_closed(7, 3).empty());  // inverted interval
}

// The half-open form cannot name an interval that includes the largest
// representable key; the closed form exists exactly for that.
TEST(KaryScan, ClosedFormReachesDomainMax) {
  constexpr long kMax = std::numeric_limits<long>::max();
  epoch_tree t;
  t.insert(kMax);
  t.insert(kMax - 1);
  t.insert(0);
  EXPECT_EQ(t.range_scan_closed(kMax - 1, kMax),
            (std::vector<long>{kMax - 1, kMax}));
  EXPECT_EQ(t.range_scan_closed(0, kMax),
            (std::vector<long>{0, kMax - 1, kMax}));
  // The half-open form over the same bounds excludes kMax, as documented.
  EXPECT_EQ(t.range_scan(0, kMax), (std::vector<long>{0, kMax - 1}));
}

TEST(KaryScan, MatchesReferenceUnderChurnLeaky) {
  expect_scan_matches_reference<leaky_tree>();
}
TEST(KaryScan, MatchesReferenceUnderChurnEpoch) {
  expect_scan_matches_reference<epoch_tree>();
}
TEST(KaryScan, MatchesReferenceUnderChurnBinaryFanout) {
  expect_scan_matches_reference<binary_tree>();
}

TEST(KaryScan, RecordingMetricsAttributeScans) {
  // Scans are counted per call and per emitted key. No contention in a
  // sequential test: restarts must be zero.
  auto expect_scans = [](const obs::metrics_snapshot& s,
                         std::uint64_t calls, std::uint64_t keys) {
    EXPECT_EQ(s[obs::counter::ops_scan], calls);
    EXPECT_EQ(s[obs::counter::scan_keys_visited], keys);
    EXPECT_EQ(s[obs::counter::scan_restarts], 0u);
  };
  {
    kary_tree<long, 8, std::less<long>, reclaim::leaky, obs::recording> t;
    for (long k = 0; k < 30; ++k) t.insert(k);
    EXPECT_EQ(t.range_scan_closed(0, 29).size(), 30u);
    expect_scans(t.stats().counters().snapshot(), 1, 30);
  }
  {
    kary_tree<long, 8, std::less<long>, reclaim::epoch, obs::recording> t;
    for (long k = 0; k < 50; ++k) t.insert(k);
    EXPECT_EQ(t.range_scan(10, 20).size(), 10u);
    std::size_t visits = 0;
    t.for_each([&visits](const long&) { ++visits; });
    EXPECT_EQ(visits, 50u);
    expect_scans(t.stats().counters().snapshot(), 2, 60);
  }
}

// The scan's concurrent contract, verified directly: partition the key
// space into STABLE keys (inserted before the scans start, never
// touched again), CHURN keys (writers insert and erase them the whole
// time) and NEVER keys (never inserted). Any scan that overlaps the
// churn must still return a sorted sequence containing every in-range
// STABLE key and no NEVER key.
template <typename Tree>
void run_partition_scan_test() {
  constexpr long kRange = 512;
  constexpr int kWriters = 4;
  constexpr int kScanners = 2;
  constexpr int kScansPerThread = 60;
  Tree t;
  for (long k = 0; k < kRange; k += 3) t.insert(k);  // STABLE: k % 3 == 0

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<int> scans_done{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&t, &stop, w] {
      pcg32 gen = pcg32::for_thread(1000, static_cast<unsigned>(w));
      while (!stop.load(std::memory_order_relaxed)) {
        // CHURN: k % 3 == 1. NEVER (k % 3 == 2) is never inserted.
        const long k = 3 * static_cast<long>(gen.bounded(kRange / 3)) + 1;
        if ((gen() & 1u) != 0) {
          t.insert(k);
        } else {
          t.erase(k);
        }
      }
    });
  }
  // Failure strings are written only by their owner scanner and read
  // only after join(); the `failed` flag is the cross-thread signal.
  std::vector<std::string> failures(kScanners);
  for (int s = 0; s < kScanners; ++s) {
    threads.emplace_back([&t, &scans_done, &failed, &failures, s] {
      const auto fail = [&failed, &failures, s](const char* why) {
        failures[s] = why;
        failed.store(true, std::memory_order_relaxed);
      };
      for (int i = 0; i < kScansPerThread; ++i) {
        const bool closed = (i & 1) != 0;
        const long lo = 40 + (i % 7);
        const long hi = kRange - 40 - (i % 5);
        const std::vector<long> got =
            closed ? t.range_scan_closed(lo, hi) : t.range_scan(lo, hi);
        std::set<long> seen;
        for (std::size_t j = 0; j < got.size(); ++j) {
          const long k = got[j];
          if (j > 0 && got[j - 1] >= k) return fail("result not sorted/unique");
          if (k < lo || (closed ? k > hi : k >= hi)) {
            return fail("key outside the requested interval");
          }
          if (k % 3 == 2) return fail("NEVER-inserted key reported present");
          seen.insert(k);
        }
        for (long k = lo + ((3 - lo % 3) % 3); closed ? k <= hi : k < hi;
             k += 3) {
          if (seen.count(k) == 0) return fail("STABLE key missing from scan");
        }
        scans_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Writers run until every scanner finished all its scans (or one
  // reported a violation).
  while (scans_done.load(std::memory_order_relaxed) <
             kScanners * kScansPerThread &&
         !failed.load(std::memory_order_relaxed)) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : threads) th.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
  EXPECT_EQ(t.validate(), "");
  // STABLE keys were never erased; the terminal state must hold them.
  for (long k = 0; k < kRange; k += 3) EXPECT_TRUE(t.contains(k));
}

TEST(KaryScanConcurrent, PartitionContractEpoch) {
  run_partition_scan_test<epoch_tree>();
}

// for_each racing writers: full-domain scans stay sorted and observe
// every STABLE key even while the churn keys flicker.
TEST(KaryScanConcurrent, ForEachUnderChurnEpoch) {
  constexpr long kRange = 256;
  epoch_tree t;
  for (long k = 0; k < kRange; k += 2) t.insert(k);  // STABLE: even keys
  std::atomic<bool> stop{false};
  std::thread writer([&t, &stop] {
    pcg32 gen(77);
    while (!stop.load(std::memory_order_relaxed)) {
      const long k = 2 * static_cast<long>(gen.bounded(kRange / 2)) + 1;
      if ((gen() & 1u) != 0) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
  });
  for (int i = 0; i < 40; ++i) {
    std::vector<long> got;
    t.for_each([&got](const long& k) { got.push_back(k); });
    ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
    std::set<long> seen(got.begin(), got.end());
    for (long k = 0; k < kRange; k += 2) ASSERT_TRUE(seen.count(k) == 1);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(t.validate(), "");
}

}  // namespace
}  // namespace lfbst
