// Unit tests for the tagged-pointer substrate: packing, mark semantics,
// the leaf bit, CAS behaviour, and the BTS tagging primitive — the
// bedrock the NM algorithm's freeze property stands on.
#include "common/tagged_word.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace lfbst {
namespace {

// Three stolen bits need 8-byte-aligned addresses.
struct alignas(8) dummy_node {
  int payload;
};

using ptr_t = tagged_ptr<dummy_node>;
using word_t = tagged_word<dummy_node>;

TEST(TaggedPtr, DefaultIsNullAndClean) {
  ptr_t p;
  EXPECT_EQ(p.address(), nullptr);
  EXPECT_FALSE(p.flagged());
  EXPECT_FALSE(p.tagged());
  EXPECT_FALSE(p.marked());
}

TEST(TaggedPtr, PacksAddressAndMarksIndependently) {
  dummy_node n{7};
  for (bool flag : {false, true}) {
    for (bool tag : {false, true}) {
      ptr_t p(&n, flag, tag);
      EXPECT_EQ(p.address(), &n);
      EXPECT_EQ(p.flagged(), flag);
      EXPECT_EQ(p.tagged(), tag);
      EXPECT_EQ(p.marked(), flag || tag);
    }
  }
}

TEST(TaggedPtr, CleanFactoryClearsMarks) {
  dummy_node n{0};
  ptr_t p = ptr_t::clean(&n);
  EXPECT_EQ(p.address(), &n);
  EXPECT_FALSE(p.marked());
}

TEST(TaggedPtr, WithMarksPreservesAddress) {
  dummy_node n{0};
  ptr_t p = ptr_t::clean(&n);
  ptr_t q = p.with_marks(true, false);
  EXPECT_EQ(q.address(), &n);
  EXPECT_TRUE(q.flagged());
  EXPECT_FALSE(q.tagged());
  ptr_t r = q.with_marks(false, true);
  EXPECT_EQ(r.address(), &n);
  EXPECT_FALSE(r.flagged());
  EXPECT_TRUE(r.tagged());
}

TEST(TaggedPtr, LeafBitIsNeitherAddressNorMark) {
  dummy_node n{0};
  const ptr_t leaf = ptr_t::clean_leaf(&n);
  EXPECT_TRUE(leaf.leaf());
  EXPECT_FALSE(ptr_t::clean(&n).leaf());
  EXPECT_EQ(leaf.address(), &n);
  EXPECT_FALSE(leaf.marked());
  EXPECT_NE(leaf, ptr_t::clean(&n));
  // Mark changes keep the bit: the ancestor CAS builds its new edge from
  // the frozen sibling word this way.
  const ptr_t flagged = leaf.with_marks(true, false);
  EXPECT_TRUE(flagged.leaf());
  EXPECT_TRUE(flagged.flagged());
  EXPECT_EQ(flagged.address(), &n);
  const ptr_t cleared = flagged.with_marks(false, false);
  EXPECT_EQ(cleared, leaf);
}

TEST(TaggedPtr, EqualityIsBitwise) {
  dummy_node n{0};
  EXPECT_EQ(ptr_t::clean(&n), ptr_t::clean(&n));
  EXPECT_NE(ptr_t::clean(&n), ptr_t(&n, true, false));
  EXPECT_NE(ptr_t(&n, true, false), ptr_t(&n, false, true));
}

TEST(TaggedPtr, RawRoundTrips) {
  dummy_node n{0};
  ptr_t p(&n, true, true);
  EXPECT_EQ(ptr_t::from_raw(p.raw()), p);
}

TEST(TaggedWord, LoadSeesStore) {
  dummy_node n{0};
  word_t w;
  w.store_relaxed(ptr_t::clean(&n));
  EXPECT_EQ(w.load().address(), &n);
}

TEST(TaggedWord, CasSucceedsOnExactMatch) {
  dummy_node a{0}, b{0};
  word_t w(ptr_t::clean(&a));
  ptr_t expected = ptr_t::clean(&a);
  EXPECT_TRUE(w.compare_exchange(expected, ptr_t::clean(&b)));
  EXPECT_EQ(w.load().address(), &b);
}

TEST(TaggedWord, CasFailsOnMarkMismatchAndReportsObserved) {
  // An insert expecting a clean edge must fail when a delete has flagged
  // it — the exact conflict Alg. 2 line 51/55 handles.
  dummy_node a{0}, b{0};
  word_t w(ptr_t(&a, /*flagged=*/true, /*tagged=*/false));
  ptr_t expected = ptr_t::clean(&a);
  EXPECT_FALSE(w.compare_exchange(expected, ptr_t::clean(&b)));
  EXPECT_EQ(expected.address(), &a);  // observed value reported back
  EXPECT_TRUE(expected.flagged());
  EXPECT_EQ(w.load().address(), &a);  // word unchanged
}

TEST(TaggedWord, BtsSetsTagAndReturnsPriorValue) {
  dummy_node a{0};
  word_t w(ptr_t(&a, /*flagged=*/true, /*tagged=*/false));
  ptr_t before = w.bts_tag();
  EXPECT_TRUE(before.flagged());
  EXPECT_FALSE(before.tagged());  // prior value had no tag
  ptr_t after = w.load();
  EXPECT_TRUE(after.flagged());  // flag preserved (Alg. 4 line 107 relies
  EXPECT_TRUE(after.tagged());   // on copying it to the new edge)
  EXPECT_EQ(after.address(), &a);
}

TEST(TaggedWord, BtsKeepsLeafBit) {
  dummy_node a{0};
  word_t w(ptr_t::clean_leaf(&a));
  const ptr_t before = w.bts_tag();
  EXPECT_TRUE(before.leaf());
  const ptr_t after = w.load();
  EXPECT_TRUE(after.leaf());
  EXPECT_TRUE(after.tagged());
  EXPECT_FALSE(after.flagged());
  EXPECT_EQ(after.address(), &a);
}

TEST(TaggedWord, CasFailsWhenExpectedLacksLeafBit) {
  // The leaf bit is part of the word: an edge published as a leaf edge
  // does not match the same address expected as an internal edge.
  dummy_node a{0}, b{0};
  word_t w(ptr_t::clean_leaf(&a));
  ptr_t expected = ptr_t::clean(&a);
  EXPECT_FALSE(w.compare_exchange(expected, ptr_t::clean_leaf(&b)));
  EXPECT_EQ(expected, ptr_t::clean_leaf(&a));  // observed word reported
  EXPECT_EQ(w.load(), ptr_t::clean_leaf(&a));  // word unchanged
}

TEST(TaggedWord, BtsIsIdempotent) {
  dummy_node a{0};
  word_t w(ptr_t::clean(&a));
  w.bts_tag();
  ptr_t before_second = w.bts_tag();
  EXPECT_TRUE(before_second.tagged());
  EXPECT_TRUE(w.load().tagged());
}

TEST(TaggedWord, CasCannotOverwriteMarkedWord) {
  // Once marked, the word is frozen against the clean-expected CAS used
  // by inserts and by cleanup's ancestor swing.
  dummy_node a{0}, b{0};
  word_t w(ptr_t::clean(&a));
  w.bts_tag();
  ptr_t expected = ptr_t::clean(&a);
  EXPECT_FALSE(w.compare_exchange(expected, ptr_t::clean(&b)));
  EXPECT_EQ(w.load().address(), &a);
}

TEST(TaggedWord, ConcurrentBtsNeverLosesFlag) {
  // Hammer one word with concurrent taggers while the flag is set;
  // the flag must survive (tagging may not clobber other bits).
  dummy_node a{0};
  word_t w(ptr_t(&a, /*flagged=*/true, /*tagged=*/false));
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&w] {
      for (int i = 0; i < 10'000; ++i) w.bts_tag();
    });
  }
  for (auto& t : threads) t.join();
  ptr_t final = w.load();
  EXPECT_TRUE(final.flagged());
  EXPECT_TRUE(final.tagged());
  EXPECT_EQ(final.address(), &a);
}

TEST(TaggedWord, ConcurrentCasExactlyOneWinner) {
  // N threads race to swing the same clean edge; exactly one CAS
  // succeeds — the property that makes the injection point unique.
  dummy_node a{0};
  std::vector<dummy_node> candidates(8);
  word_t w(ptr_t::clean(&a));
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      ptr_t expected = ptr_t::clean(&a);
      if (w.compare_exchange(expected, ptr_t::clean(&candidates[t]))) {
        winners.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(winners.load(), 1);
}

TEST(TaggedWord, LoadPairReturnsBothRawWords) {
  // Clean, flagged and tagged words, in either position of the pair: the
  // values come back bit for bit, marks included.
  dummy_node a{0}, b{0};
  // (flagged, tagged): clean, flagged, tagged.
  const std::pair<bool, bool> marks[] = {
      {false, false}, {true, false}, {false, true}};
  for (const auto& [flag_a, tag_a] : marks) {
    for (const auto& [flag_b, tag_b] : marks) {
      const ptr_t first(&a, flag_a, tag_a);
      const ptr_t second(&b, flag_b, tag_b);
      word_t wa(first);
      word_t wb(second);
      const auto [x, y] = word_t::load_pair(wa, wb);
      EXPECT_EQ(x.raw(), first.raw());
      EXPECT_EQ(y.raw(), second.raw());
    }
  }
}

/// An atomics policy that counts its shared steps.
struct counting_atomics {
  static constexpr const char* name = "counting";
  static inline int steps = 0;
  static void shared_step() noexcept { ++steps; }
};

TEST(TaggedWord, LoadPairIsOneSharedStep) {
  using counted_word = tagged_word<dummy_node, counting_atomics>;
  dummy_node a{0}, b{0};
  counted_word wa(ptr_t::clean(&a));
  counted_word wb(ptr_t(&b, true, false));
  counting_atomics::steps = 0;
  const auto [x, y] = counted_word::load_pair(wa, wb);
  EXPECT_EQ(counting_atomics::steps, 1);
  EXPECT_EQ(x.address(), &a);
  EXPECT_TRUE(y.flagged());
  // The single-word primitives take one step each, as before.
  (void)wa.load();
  wb.bts_tag();
  EXPECT_EQ(counting_atomics::steps, 3);
}

TEST(TaggedWord, SizeIsOneWord) {
  EXPECT_EQ(sizeof(word_t), sizeof(std::uintptr_t));
}

}  // namespace
}  // namespace lfbst
