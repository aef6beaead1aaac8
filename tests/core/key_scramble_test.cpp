// Tests for the adversarial-shape mitigation (core/key_scramble.hpp):
// the scramble/unscramble bijection (exactness, every width, edge
// keys, full-domain injectivity), the scrambled_set boundary adapter
// against a std::set oracle under all three reclaimers and under
// sharding, and the property the whole layer exists for — sequential
// and attack insertion orders no longer degenerate the tree into a
// spine.
#include "core/key_scramble.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/natarajan_tree.hpp"
#include "harness/key_streams.hpp"
#include "obs/metrics.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard_reclaimer.hpp"
#include "shard/router.hpp"
#include "shard/sharded_set.hpp"

namespace lfbst {
namespace {

// --- the bijection: exact inversion at compile time -------------------
//
// The header's comment promises unscramble_key(scramble_key(k, s), s)
// == k for every key and seed, constexpr; these static_asserts are
// that promise's pin. Edge keys cover the all-zeros, all-ones and
// sign-boundary words where a truncated shift or a sign-extension slip
// would show first.

template <typename Key>
constexpr bool round_trips(Key k, std::uint64_t seed) {
  return unscramble_key(scramble_key(k, seed), seed) == k &&
         scramble_key(unscramble_key(k, seed), seed) == k;
}

template <typename Key>
constexpr bool edge_keys_round_trip(std::uint64_t seed) {
  return round_trips<Key>(Key{0}, seed) && round_trips<Key>(Key{1}, seed) &&
         round_trips<Key>(std::numeric_limits<Key>::min(), seed) &&
         round_trips<Key>(std::numeric_limits<Key>::max(), seed);
}

static_assert(edge_keys_round_trip<std::int16_t>(0));
static_assert(edge_keys_round_trip<std::uint16_t>(0));
static_assert(edge_keys_round_trip<std::int32_t>(0));
static_assert(edge_keys_round_trip<std::uint32_t>(0));
static_assert(edge_keys_round_trip<std::int64_t>(0));
static_assert(edge_keys_round_trip<std::uint64_t>(0));
static_assert(edge_keys_round_trip<std::int64_t>(1));
static_assert(edge_keys_round_trip<std::int64_t>(0x9E3779B97F4A7C15ULL));
static_assert(edge_keys_round_trip<std::uint32_t>(0xFFFFFFFFFFFFFFFFULL));
static_assert(round_trips<std::int64_t>(-1, 7));
static_assert(round_trips<std::int32_t>(-123456789, 42));
static_assert(round_trips<long>(1234567890123456789L, 3));

// The mix is not the identity (a degenerate "fix" that left keys alone
// would pass every round-trip test above).
static_assert(scramble_key<std::int64_t>(1, 0) != 1);
static_assert(scramble_key<std::uint32_t>(2, 0) != 2u);

TEST(ScrambleKey, RandomSweepRoundTripsAcrossSeeds) {
  pcg32 rng(0xC0FFEEu);
  const std::uint64_t seeds[] = {0, 1, 0xDEADBEEFu, 0x9E3779B97F4A7C15ULL};
  for (const std::uint64_t seed : seeds) {
    for (int i = 0; i < 20000; ++i) {
      const auto k64 = static_cast<std::int64_t>(rng.next64());
      EXPECT_EQ(unscramble_key(scramble_key(k64, seed), seed), k64);
      const auto k32 = rng();
      EXPECT_EQ(unscramble_key(scramble_key(k32, seed), seed), k32);
    }
  }
}

TEST(ScrambleKey, ExhaustiveBijectionOnSixteenBitDomain) {
  // A bijection admits no collisions; over a 2^16 domain that is
  // checkable exhaustively. Distinctness of all images plus the
  // round-trip sweep above pins injectivity *and* surjectivity.
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{77}}) {
    std::vector<bool> seen(1u << 16, false);
    for (std::uint32_t v = 0; v < (1u << 16); ++v) {
      const auto img = static_cast<std::uint16_t>(
          scramble_key(static_cast<std::uint16_t>(v), seed));
      EXPECT_FALSE(seen[img]) << "collision at preimage " << v;
      seen[img] = true;
    }
  }
}

TEST(ScrambleKey, SeedChangesThePermutation) {
  int moved = 0;
  for (std::int64_t k = 0; k < 256; ++k) {
    if (scramble_key(k, 1) != scramble_key(k, 2)) ++moved;
  }
  EXPECT_GT(moved, 200);  // avalanche: almost every image differs
}

// --- scrambled_set vs oracle, all three reclaimers -------------------

using leaky_tree = nm_tree<long>;
using epoch_tree = nm_tree<long, std::less<long>, reclaim::epoch>;
using hazard_tree = nm_tree<long, std::less<long>, reclaim::hazard>;

template <typename Set>
void mixed_history_vs_oracle(Set& s, std::uint32_t rng_seed) {
  std::set<long> oracle;
  pcg32 rng(rng_seed);
  for (int i = 0; i < 6000; ++i) {
    const long k = static_cast<long>(rng.bounded(512)) - 256;  // negatives too
    switch (rng.bounded(3)) {
      case 0:
        EXPECT_EQ(s.insert(k), oracle.insert(k).second) << "insert " << k;
        break;
      case 1:
        EXPECT_EQ(s.erase(k), oracle.erase(k) != 0) << "erase " << k;
        break;
      default:
        EXPECT_EQ(s.contains(k), oracle.count(k) != 0) << "contains " << k;
    }
  }
  EXPECT_EQ(s.size_slow(), oracle.size());
  EXPECT_EQ(s.validate(), "");
  // Read-out must surface the client's keys, never scrambled images.
  std::set<long> drained;
  s.for_each_slow([&](long k) { drained.insert(k); });
  EXPECT_EQ(drained, oracle);
}

TEST(ScrambledSet, OracleHistoryLeaky) {
  scrambled_set<leaky_tree> s(0xABCDEF);
  mixed_history_vs_oracle(s, 11u);
}

TEST(ScrambledSet, OracleHistoryEpoch) {
  scrambled_set<epoch_tree> s(0xABCDEF);
  mixed_history_vs_oracle(s, 22u);
}

TEST(ScrambledSet, OracleHistoryHazard) {
  scrambled_set<hazard_tree> s(0xABCDEF);
  mixed_history_vs_oracle(s, 33u);
}

TEST(ScrambledSet, OracleHistorySharded) {
  // The composition the server runs: adapter ABOVE the router, so the
  // shards partition scrambled space. Full-domain router — scrambled
  // keys land anywhere in the key type's range.
  scrambled_set<shard::sharded_set<leaky_tree>> s(
      0xABCDEF, shard::range_router<long>(8));
  mixed_history_vs_oracle(s, 44u);
}

TEST(ScrambledSet, ShardingSpreadsASequentialStream) {
  // The point of composing above the router: a sequential client
  // stream, which would pile into one shard of a raw sharded_set whose
  // domain it attacks, spreads near-uniformly once scrambled.
  scrambled_set<shard::sharded_set<leaky_tree>> s(
      7, shard::range_router<long>(8));
  constexpr long n = 4096;
  for (long k = 0; k < n; ++k) ASSERT_TRUE(s.insert(k));
  for (std::size_t i = 0; i < s.shard_count(); ++i) {
    const std::size_t held = s.shard(i).size_slow();
    EXPECT_GT(held, static_cast<std::size_t>(n / 32)) << "shard " << i;
    EXPECT_LT(held, static_cast<std::size_t>(n / 2)) << "shard " << i;
  }
  EXPECT_EQ(s.size_slow(), static_cast<std::size_t>(n));
}

// --- scans: lowered to filtered enumeration, still exact -------------

TEST(ScrambledSet, RangeScansMatchOracle) {
  scrambled_set<leaky_tree> s(3);
  std::set<long> oracle;
  pcg32 rng(55u);
  for (int i = 0; i < 2000; ++i) {
    const long k = static_cast<long>(rng.bounded(1000));
    s.insert(k);
    oracle.insert(k);
  }
  for (int trial = 0; trial < 50; ++trial) {
    long lo = static_cast<long>(rng.bounded(1000));
    long hi = static_cast<long>(rng.bounded(1000));
    if (hi < lo) std::swap(lo, hi);
    std::vector<long> expect_half(oracle.lower_bound(lo),
                                  oracle.lower_bound(hi));
    EXPECT_EQ(s.range_scan(lo, hi), expect_half) << lo << ".." << hi;
    std::vector<long> expect_closed(oracle.lower_bound(lo),
                                    oracle.upper_bound(hi));
    EXPECT_EQ(s.range_scan_closed(lo, hi), expect_closed) << lo << ".." << hi;
  }
}

TEST(ScrambledSet, PagedScanReassemblesTheFullRange) {
  scrambled_set<leaky_tree> s(3);
  std::set<long> oracle;
  pcg32 rng(66u);
  for (int i = 0; i < 600; ++i) {
    const long k = static_cast<long>(rng.bounded(2048));
    s.insert(k);
    oracle.insert(k);
  }
  // Zero budget: a pure continuation marker, no keys consumed.
  const auto empty_page = s.range_scan_limit(0, 2048, 0);
  EXPECT_TRUE(empty_page.keys.empty());
  EXPECT_TRUE(empty_page.truncated);
  EXPECT_EQ(empty_page.resume_key, 0);

  std::vector<long> paged;
  long cursor = 0;
  for (;;) {
    const auto page = s.range_scan_limit(cursor, 2048, 37);
    paged.insert(paged.end(), page.keys.begin(), page.keys.end());
    EXPECT_TRUE(std::is_sorted(page.keys.begin(), page.keys.end()));
    if (!page.truncated) break;
    EXPECT_GT(page.resume_key, cursor);
    cursor = page.resume_key;
  }
  EXPECT_EQ(paged, std::vector<long>(oracle.begin(), oracle.end()));
}

// --- the property this layer exists for ------------------------------
//
// Sequential insertion builds an O(n) spine in the raw external BST;
// through the adapter the same stream takes random-insertion shape.
// These bounds mirror the perf gate (tools/check_perf_regression.py
// check_shape): spine floor n/16, balanced ceiling 2*log2(n) + 8.

constexpr std::size_t log2_floor(std::size_t n) {
  std::size_t b = 0;
  while (n >>= 1) ++b;
  return b;
}

TEST(ScrambledSet, SequentialInsertsNoLongerBuildASpine) {
  constexpr long n = 1024;
  leaky_tree raw;
  scrambled_set<leaky_tree> mixed(1);
  for (long k = 0; k < n; ++k) {
    ASSERT_TRUE(raw.insert(k));
    ASSERT_TRUE(mixed.insert(k));
  }
  EXPECT_GE(raw.height_slow(), static_cast<std::size_t>(n) / 16);
  EXPECT_LE(mixed.height_slow(), 4 * log2_floor(n));
  EXPECT_EQ(mixed.size_slow(), static_cast<std::size_t>(n));
}

using recording_tree = nm_tree<long, std::less<long>, reclaim::leaky,
                               obs::recording>;

template <typename Set>
void run_attack(Set& s, harness::key_stream_kind kind, long n) {
  for (long i = 0; i < n; ++i) {
    s.insert(static_cast<long>(harness::key_stream_at(
        kind, static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(n))));
  }
  for (long i = 0; i < n; ++i) {
    (void)s.contains(static_cast<long>(harness::key_stream_at(
        kind, static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(n))));
  }
}

TEST(ScrambledSet, AttackStreamSeekDepthStaysBounded) {
  constexpr long n = 2048;
  const double bound = 2.0 * static_cast<double>(log2_floor(n)) + 8.0;
  for (const auto kind : {harness::key_stream_kind::sequential,
                          harness::key_stream_kind::adaptive_attack}) {
    // Self-check first (exactly as the gate does): the raw tree under
    // this stream really is a spine, so the bounded scrambled depth
    // below is a mitigation, not a vacuous pass.
    recording_tree raw;
    run_attack(raw, kind, n);
    EXPECT_GE(raw.stats().seek_depth_histogram().max(),
              static_cast<std::uint64_t>(n) / 16)
        << harness::key_stream_name(kind);

    scrambled_set<recording_tree> mixed(0x5EED);
    run_attack(mixed, kind, n);
    const auto hist = mixed.stats().seek_depth_histogram();
    EXPECT_GT(hist.count(), 0u);
    EXPECT_LE(static_cast<double>(hist.value_at_percentile(99.0)), bound)
        << harness::key_stream_name(kind);
  }
}

}  // namespace
}  // namespace lfbst
