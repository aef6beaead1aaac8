// White-box tests of the NM-BST internals: seek-record semantics,
// edge-marking state machine, helping of stalled deletes, and the
// multi-leaf removal of Fig. 2 — each driven deterministically via the
// test-access hooks rather than hoping a scheduler interleaves just so.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/slab_arena.hpp"
#include "common/rng.hpp"
#include "core/key_scramble.hpp"
#include "core/natarajan_tree.hpp"
#include "core/nm_map.hpp"
#include "nm_test_access.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard_reclaimer.hpp"

namespace lfbst {
namespace {

using access = nm_tree_test_access;

/// Builds the same randomized tree in two differently-policied trees.
template <typename A, typename B>
void pcg32_build_both(A& a, B& b) {
  pcg32 rng(77);
  for (int i = 0; i < 200; ++i) {
    const long k = rng.bounded(128);
    a.insert(k);
    b.insert(k);
  }
  for (int i = 0; i < 60; ++i) {
    const long k = rng.bounded(128);
    a.erase(k);
    b.erase(k);
  }
}


TEST(NmWhitebox, SeekFindsInsertedLeaf) {
  nm_tree<long> t;
  t.insert(50);
  t.insert(25);
  t.insert(75);
  EXPECT_TRUE(access::leaf_key_matches(t, 25));
  EXPECT_TRUE(access::leaf_key_matches(t, 50));
  EXPECT_TRUE(access::leaf_key_matches(t, 75));
  EXPECT_FALSE(access::leaf_key_matches(t, 60));
}

TEST(NmWhitebox, SeekOnEmptyTreeEndsAtInf0Leaf) {
  nm_tree<long> t;
  EXPECT_FALSE(access::leaf_key_matches(t, 1));
  // Sentinel structure of Fig. 3: ℝ, 𝕊, three sentinel leaves.
  EXPECT_EQ(access::reachable_node_count(t), 5u);
}

TEST(NmWhitebox, InjectionFlagsTheLeafEdge) {
  nm_tree<long> t;
  t.insert(10);
  t.insert(20);
  ASSERT_TRUE(access::inject_stalled_delete(t, 10));
  auto [flagged, tagged] = access::edge_marks(t, 10);
  EXPECT_TRUE(flagged);
  EXPECT_FALSE(tagged);
  // A flagged-but-unremoved leaf is still physically present: the
  // delete has not linearized (its linearization point is the removal
  // CAS), so searches still find it.
  EXPECT_TRUE(t.contains(10));
}

TEST(NmWhitebox, SecondInjectionOnSameEdgeFails) {
  nm_tree<long> t;
  t.insert(10);
  t.insert(20);
  ASSERT_TRUE(access::inject_stalled_delete(t, 10));
  EXPECT_FALSE(access::inject_stalled_delete(t, 10));  // edge now frozen
}

TEST(NmWhitebox, CleanupCompletesAStalledDelete) {
  nm_tree<long> t;
  t.insert(10);
  t.insert(20);
  ASSERT_TRUE(access::inject_stalled_delete(t, 10));
  EXPECT_TRUE(access::run_cleanup(t, 10));
  EXPECT_FALSE(t.contains(10));
  EXPECT_TRUE(t.contains(20));
  EXPECT_EQ(t.validate(), "");
}

TEST(NmWhitebox, InsertHelpsStalledDeleteAtItsInjectionPoint) {
  // Insert(15) must land under the same parent whose child edge carries
  // the stalled delete's flag; its CAS fails, it helps, then retries.
  nm_tree<long> t;
  t.insert(10);
  t.insert(20);
  ASSERT_TRUE(access::inject_stalled_delete(t, 10));
  EXPECT_TRUE(t.insert(15));
  EXPECT_FALSE(t.contains(10)) << "helping should have removed 10";
  EXPECT_TRUE(t.contains(15));
  EXPECT_TRUE(t.contains(20));
  EXPECT_EQ(t.validate(), "");
}

TEST(NmWhitebox, EraseOfSiblingRelocatesTheStalledFlag) {
  // 10 and 20 are sibling leaves under one parent; delete(10) stalled
  // after flagging. erase(20) still completes — its own flag CAS targets
  // the *other* edge of the shared parent — and its cleanup relocates
  // 10's flagged edge up to the ancestor (the flag-copy of Alg. 4).
  // 10 itself is NOT removed: its delete has not linearized.
  nm_tree<long> t;
  t.insert(10);
  t.insert(20);
  ASSERT_TRUE(access::inject_stalled_delete(t, 10));
  EXPECT_TRUE(t.erase(20));
  EXPECT_FALSE(t.contains(20));
  EXPECT_TRUE(t.contains(10)) << "10's delete is still pending, not done";
  auto [flagged, tagged] = access::edge_marks(t, 10);
  EXPECT_TRUE(flagged) << "the stalled flag must survive the relocation";
  EXPECT_FALSE(tagged);
  // A helper can now finish the stalled delete against the new edge.
  EXPECT_TRUE(access::run_cleanup(t, 10));
  EXPECT_FALSE(t.contains(10));
  EXPECT_EQ(t.size_slow(), 0u);
  EXPECT_EQ(t.validate(), "");
}

TEST(NmWhitebox, CleanupAfterBtsAlsoCompletes) {
  // Stall the delete *between* its BTS and its ancestor CAS.
  nm_tree<long> t;
  t.insert(10);
  t.insert(20);
  t.insert(30);
  ASSERT_TRUE(access::inject_stalled_delete_tagged(t, 20));
  EXPECT_TRUE(access::run_cleanup(t, 20));
  EXPECT_FALSE(t.contains(20));
  EXPECT_TRUE(t.contains(10));
  EXPECT_TRUE(t.contains(30));
  EXPECT_EQ(t.validate(), "");
}

// Builds the Fig. 2 chain. Tree (client keys 100,50,75,60,70,65):
//
//   int(∞₀) ─ int(100) ─ int(75) ─ int(60) ─┬─ leaf(50)
//                                           └─ int(70) ─┬─ int(65) ─┬─ leaf(60)
//                                                       │           └─ leaf(65)
//                                                       └─ leaf(70)
//
// Stalled deletes of 50, 70 and 60 flag their leaf edges and tag the
// path edges (int60→int70), (int70→int65) and the sibling edge
// (int65→leaf65) — the dying region of Fig. 2, with leaf(65) playing
// the reattached subtree K.
template <typename Tree>
void build_fig2_chain(Tree& t) {
  for (long k : {100L, 50L, 75L, 60L, 70L, 65L}) ASSERT_TRUE(t.insert(k));
  ASSERT_TRUE(access::inject_stalled_delete_tagged(t, 50));
  ASSERT_TRUE(access::inject_stalled_delete_tagged(t, 70));
  ASSERT_TRUE(access::inject_stalled_delete_tagged(t, 60));
}

TEST(NmWhitebox, SeekSkipsTaggedChainForAncestorSuccessor) {
  // Seeking a key whose access path crosses tagged edges into internal
  // nodes must report successor != parent: ancestor/successor hop over
  // the dying region so cleanup's CAS excises all of it (Fig. 2).
  nm_tree<long> t;
  build_fig2_chain(t);
  EXPECT_TRUE(access::seek_skipped_tagged_region(t, 60));
  EXPECT_TRUE(access::seek_skipped_tagged_region(t, 65));
  // A key that leaves the path before the first tagged edge does not.
  EXPECT_FALSE(access::seek_skipped_tagged_region(t, 100));
}

TEST(NmWhitebox, MultiLeafRemovalExcisesAChain) {
  // One cleanup of the *deepest* delete (60, the G of Fig. 2) removes
  // the entire dead region — the other stalled deletes' leaves (50, 70;
  // the H/I/J of Fig. 2) leave the tree in the same CAS.
  nm_tree<long> t;
  build_fig2_chain(t);
  const std::size_t before = access::reachable_node_count(t);

  EXPECT_TRUE(access::run_cleanup(t, 60));
  EXPECT_FALSE(t.contains(50));
  EXPECT_FALSE(t.contains(60));
  EXPECT_FALSE(t.contains(70));
  EXPECT_TRUE(t.contains(65)) << "the reattached subtree K must survive";
  EXPECT_TRUE(t.contains(75));
  EXPECT_TRUE(t.contains(100));
  EXPECT_EQ(t.validate(), "");
  const std::size_t after = access::reachable_node_count(t);
  // 3 flagged leaves + 3 chain internals left in one CAS.
  EXPECT_EQ(before - after, 6u);
}

TEST(NmWhitebox, AccessPathShrinksAfterCleanup) {
  // The lock-freedom argument (§3.3): every failed cleanup shortens the
  // access path or moves the last untagged edge rootward. Observable
  // corollary: depth strictly decreases across a completed cleanup.
  nm_tree<long> t;
  for (long k : {40L, 20L, 30L, 25L}) ASSERT_TRUE(t.insert(k));
  const std::size_t depth_before = access::access_path_depth(t, 25);
  ASSERT_TRUE(access::inject_stalled_delete(t, 25));
  ASSERT_TRUE(access::run_cleanup(t, 25));
  EXPECT_LT(access::access_path_depth(t, 25), depth_before);
}

TEST(NmWhitebox, FlagIsCopiedToReplacementEdge) {
  // Delete(20) stalls after flagging; delete(10) completes. The edge the
  // ancestor now holds toward 20's leaf must carry the copied flag
  // (Alg. 4 line 107-108), so 20's delete can still finish.
  nm_tree<long> t;
  t.insert(10);
  t.insert(20);
  ASSERT_TRUE(access::inject_stalled_delete(t, 20));  // sibling flagged
  // Now fully remove 10: its cleanup tags the (already flagged) sibling
  // edge and must copy the flag onto the new ancestor edge.
  EXPECT_TRUE(t.erase(10));
  auto [flagged, tagged] = access::edge_marks(t, 20);
  EXPECT_TRUE(flagged) << "flag must survive the edge replacement";
  EXPECT_FALSE(tagged);
  // And the stalled delete of 20 can be finished by a helper.
  EXPECT_TRUE(access::run_cleanup(t, 20));
  EXPECT_FALSE(t.contains(20));
  EXPECT_EQ(t.validate(), "");
}

TEST(NmWhitebox, NodeCountAccountsSentinelsPlusTwoPerKey) {
  // External tree: every client key is one leaf plus one internal node
  // above it; the empty tree has 5 sentinel nodes (Fig. 3).
  nm_tree<long> t;
  EXPECT_EQ(access::reachable_node_count(t), 5u);
  t.insert(1);
  EXPECT_EQ(access::reachable_node_count(t), 7u);
  t.insert(2);
  EXPECT_EQ(access::reachable_node_count(t), 9u);
  t.erase(1);
  EXPECT_EQ(access::reachable_node_count(t), 7u);
  t.erase(2);
  EXPECT_EQ(access::reachable_node_count(t), 5u);
}

TEST(NmWhitebox, HazardSeekReturnsSameRecordAsPlainSeek) {
  // On a quiescent tree the validated (hazard) seek and the plain seek
  // must produce the same four-node record for every key.
  nm_tree<long> plain;
  nm_tree<long, std::less<long>, reclaim::hazard> hp;
  pcg32_build_both(plain, hp);
  for (long k = -5; k < 130; ++k) {
    EXPECT_EQ(access::leaf_key_matches(plain, k),
              access::leaf_key_matches(hp, k))
        << k;
    EXPECT_EQ(access::access_path_depth(plain, k),
              access::access_path_depth(hp, k))
        << k;
  }
}

TEST(NmWhitebox, HazardSeekSkipsTaggedChainsToo) {
  // The Fig. 2 chain with the hazard-validated seek: ancestor/successor
  // semantics (and cleanup) must be unchanged by the protection layer.
  nm_tree<long, std::less<long>, reclaim::hazard> t;
  build_fig2_chain(t);
  EXPECT_TRUE(access::seek_skipped_tagged_region(t, 60));
  EXPECT_TRUE(access::run_cleanup(t, 60));
  EXPECT_FALSE(t.contains(50));
  EXPECT_FALSE(t.contains(60));
  EXPECT_FALSE(t.contains(70));
  EXPECT_TRUE(t.contains(65));
  EXPECT_EQ(t.validate(), "");
}

TEST(NmWhitebox, StalledDeleteBlocksReuseOfInjectionPoint) {
  // Once an edge is flagged, no second modify operation can claim the
  // same injection point until the delete completes — the coordination
  // rule that replaces EFRB's Info records.
  nm_tree<long> t;
  t.insert(10);
  t.insert(20);
  ASSERT_TRUE(access::inject_stalled_delete(t, 10));
  // Simulating another delete's injection on the same edge must fail...
  EXPECT_FALSE(access::inject_stalled_delete(t, 10));
  // ...until a helper completes the first one.
  EXPECT_TRUE(access::run_cleanup(t, 10));
  EXPECT_FALSE(t.contains(10));
  // Fresh key at the same position gets a fresh, claimable edge.
  ASSERT_TRUE(t.insert(10));
  EXPECT_TRUE(access::inject_stalled_delete(t, 10));
  EXPECT_TRUE(access::run_cleanup(t, 10));
  EXPECT_EQ(t.validate(), "");
}

// --- node memory per key ------------------------------------------------

TEST(NmTreeMemory, LeavesAreEightBytesAndInternalNodesTwentyFour) {
  // A set leaf is the bare key: the node kind lives in the edge. An
  // internal node is the bare key and two child words: sentinel nodes
  // are known by position, so no node carries a rank.
  using set_t = nm_tree<long>;
  EXPECT_EQ(access::leaf_bytes<set_t>(), 8u);
  EXPECT_EQ(access::internal_bytes<set_t>(), 24u);
  const set_t t;
  EXPECT_EQ(access::pool_block_bytes(t), std::make_pair(std::size_t{8},
                                                        std::size_t{24}));
  // A map's value rides in its leaves only: internal nodes are the same
  // 24 bytes as a set's.
  using map_t = nm_map<long, long>;
  EXPECT_EQ(access::internal_bytes<map_t>(), 24u);
  EXPECT_EQ(access::leaf_bytes<map_t>(), 16u);
  const map_t m;
  EXPECT_EQ(access::pool_block_bytes(m), std::make_pair(std::size_t{16},
                                                        std::size_t{24}));
}

/// 2^16 distinct keys in a fixed shuffled order.
std::vector<long> shuffled_keys() {
  constexpr long n = 1L << 16;
  std::vector<long> keys(n);
  std::iota(keys.begin(), keys.end(), 0L);
  pcg32 rng(19);
  for (long i = n - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.bounded(static_cast<std::uint32_t>(i + 1))]);
  }
  return keys;
}

TEST(NmTreeMemory, ShuffledInsertsUseAtMost33BytesPerKey) {
  // One leaf (8 B) and one internal node (24 B) per key, plus at most
  // one partly used page per pool.
  const std::vector<long> keys = shuffled_keys();
  nm_tree<long, std::less<long>, reclaim::epoch> t;
  for (long k : keys) ASSERT_TRUE(t.insert(k));
  const double per_key = static_cast<double>(t.footprint_bytes()) /
                         static_cast<double>(keys.size());
  EXPECT_LE(per_key, 33.0);
  EXPECT_EQ(t.size_slow(), keys.size());
  EXPECT_EQ(t.validate(), "");
}

TEST(NmTreeMemory, ShuffledMapInsertsUseAtMost41BytesPerKey) {
  // One (key, value) leaf (16 B) and one internal node (24 B) per key.
  const std::vector<long> keys = shuffled_keys();
  nm_map<long, long, std::less<long>, reclaim::epoch> m;
  for (long k : keys) ASSERT_TRUE(m.insert(k, -k));
  const double per_key = static_cast<double>(m.footprint_bytes()) /
                         static_cast<double>(keys.size());
  EXPECT_LE(per_key, 41.0);
  EXPECT_EQ(m.size_slow(), keys.size());
  EXPECT_EQ(m.get(keys.front()), -keys.front());
  EXPECT_EQ(m.validate(), "");
}

TEST(NmTreeMemory, SlackIsAtMostOnePagePerPoolAndThread) {
  // Eight trees, three inserting threads each, plus the constructing
  // thread that allocates the sentinels: four allocating threads per
  // pool, two pools per tree.
  using tree_t = nm_tree<long, std::less<long>, reclaim::epoch>;
  constexpr int trees = 8;
  constexpr int inserters = 3;
  constexpr long keys_per_thread = 3000;
  std::vector<std::unique_ptr<tree_t>> forest;
  for (int i = 0; i < trees; ++i) forest.push_back(std::make_unique<tree_t>());
  std::vector<std::thread> threads;
  for (int i = 0; i < trees; ++i) {
    for (int th = 0; th < inserters; ++th) {
      threads.emplace_back([&t = *forest[i], th] {
        for (long k = 0; k < keys_per_thread; ++k) {
          (void)t.insert(k * inserters + th);
        }
      });
    }
  }
  for (auto& th : threads) th.join();
  const auto [leaf, internal] = access::pool_block_bytes(*forest[0]);
  for (const auto& t : forest) {
    const std::size_t keys = t->size_slow();
    ASSERT_EQ(keys, static_cast<std::size_t>(keys_per_thread * inserters));
    // Three sentinel leaves and the two sentinel internal nodes.
    const std::size_t live = (keys + 3) * leaf + (keys + 2) * internal;
    const std::size_t slack = 2 * (inserters + 1) * slab_arena::page_bytes;
    EXPECT_LE(t->footprint_bytes(), live + slack)
        << "live " << live << " B, footprint " << t->footprint_bytes() << " B";
  }
}

TEST(NmTreeMemory, ProducerConsumerFootprintStaysBounded) {
  // One thread inserts and another erases 1024-2048 keys behind it, so
  // the epoch reclaimer frees every node on the erasing thread while only
  // the inserting thread allocates. Without cross-thread reuse of freed
  // blocks the footprint grows by 32 B per pair (over 30 MiB here).
  // Keys are scramble_key(i) for ascending i: distinct, and shaped like
  // a random tree rather than a 2048-deep spine.
  using tree_t = nm_tree<long, std::less<long>, reclaim::epoch>;
  constexpr long pairs = 1'000'000, lag_min = 1024, lag_max = 2048;
  tree_t t;
  std::atomic<long> inserted{0}, erased{0};
  std::atomic<int> failed{0};
  std::thread producer([&] {
    for (long i = 0; i < pairs; ++i) {
      while (i - erased.load(std::memory_order_acquire) >= lag_max) {
        std::this_thread::yield();
      }
      if (!t.insert(scramble_key(i))) failed.fetch_add(1);
      inserted.store(i + 1, std::memory_order_release);
    }
  });
  std::thread consumer([&] {
    for (long i = 0; i < pairs; ++i) {
      for (long in = inserted.load(std::memory_order_acquire);
           in - i < lag_min && in < pairs;
           in = inserted.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      if (!t.erase(scramble_key(i))) failed.fetch_add(1);
      erased.store(i + 1, std::memory_order_release);
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(t.size_slow(), 0u);
  // A pool fetches a slab only when the fetching thread's list and run,
  // the central stack and the open slab are all empty. Every other block
  // is then live (at most lag_max keys, the sentinels and one insert in
  // flight), retired and not yet freed, or cached by one of the three
  // threads that touched the tree: a list of at most cap_batches batches
  // plus one batch on its way to the central stack, and one run.
  const std::size_t live = lag_max + 4;
  const std::size_t backlog = access::reclaimer_high_water(t);
  const std::size_t per_thread =
      (node_pool::cap_batches + 2) * node_pool::batch_blocks;
  const auto [leaf_pool, internal_pool] = access::pools(t);
  for (const node_pool* pool : {leaf_pool, internal_pool}) {
    const std::size_t bound =
        (live + backlog + 3 * per_thread) * pool->block_size() +
        slab_arena::page_bytes;
    EXPECT_LE(pool->footprint_bytes(), bound)
        << "block " << pool->block_size() << " B, backlog " << backlog;
  }
}

TEST(NmTreeMemory, FootprintIsLiveCachedAndUnbumpedBlocks) {
  // After churn on four threads and a drain of the reclaimer, every block
  // of every slab is a node of the tree, cached on a free list or never
  // used: the pool gauges add up by construction.
  using tree_t = nm_tree<long, std::less<long>, reclaim::epoch>;
  tree_t t;
  std::vector<std::thread> threads;
  for (int th = 0; th < 4; ++th) {
    threads.emplace_back([&t, th] {
      pcg32 rng(100 + th);
      for (int i = 0; i < 20'000; ++i) {
        const long k = rng.bounded(4096);
        if (rng.bounded(2) == 0) {
          (void)t.insert(k);
        } else {
          (void)t.erase(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  access::drain_reclaimer(t);
  const std::size_t keys = t.size_slow();
  // Three sentinel leaves; the two sentinel internal nodes.
  const std::size_t live[] = {keys + 3, keys + 2};
  const auto [leaf_pool, internal_pool] = access::pools(t);
  const node_pool* pools[] = {leaf_pool, internal_pool};
  for (int i = 0; i < 2; ++i) {
    const node_pool& pool = *pools[i];
    EXPECT_GT(pool.cached_blocks(), 0u);
    EXPECT_EQ(pool.footprint_bytes() / pool.block_size(),
              live[i] + pool.cached_blocks() + pool.unbumped_blocks())
        << "block " << pool.block_size() << " B";
  }
  EXPECT_EQ(t.validate(), "");
}

}  // namespace
}  // namespace lfbst
