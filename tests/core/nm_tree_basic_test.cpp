// Sequential black-box tests of the NM-BST: dictionary semantics,
// duplicate handling, structural invariants after randomized churn, all
// policy combinations (reclaimer × tagging), and adversarial key orders.
#include "core/natarajan_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "reclaim/epoch.hpp"

namespace lfbst {
namespace {

TEST(NmTreeBasic, EmptyTreeBehaviour) {
  nm_tree<long> t;
  EXPECT_FALSE(t.contains(0));
  EXPECT_FALSE(t.contains(42));
  EXPECT_FALSE(t.erase(42));
  EXPECT_EQ(t.size_slow(), 0u);
  EXPECT_TRUE(t.empty_slow());
  EXPECT_EQ(t.validate(), "");
}

TEST(NmTreeBasic, InsertThenContains) {
  nm_tree<long> t;
  EXPECT_TRUE(t.insert(5));
  EXPECT_TRUE(t.contains(5));
  EXPECT_FALSE(t.contains(4));
  EXPECT_FALSE(t.contains(6));
  EXPECT_EQ(t.size_slow(), 1u);
}

TEST(NmTreeBasic, DuplicateInsertReturnsFalse) {
  nm_tree<long> t;
  EXPECT_TRUE(t.insert(5));
  EXPECT_FALSE(t.insert(5));
  EXPECT_EQ(t.size_slow(), 1u);
}

TEST(NmTreeBasic, EraseRemovesExactlyTheKey) {
  nm_tree<long> t;
  t.insert(1);
  t.insert(2);
  t.insert(3);
  EXPECT_TRUE(t.erase(2));
  EXPECT_FALSE(t.contains(2));
  EXPECT_TRUE(t.contains(1));
  EXPECT_TRUE(t.contains(3));
  EXPECT_FALSE(t.erase(2));
  EXPECT_EQ(t.size_slow(), 2u);
}

TEST(NmTreeBasic, EraseToEmptyAndReinsert) {
  nm_tree<long> t;
  for (long k = 0; k < 10; ++k) t.insert(k);
  for (long k = 0; k < 10; ++k) EXPECT_TRUE(t.erase(k));
  EXPECT_EQ(t.size_slow(), 0u);
  EXPECT_EQ(t.validate(), "");
  for (long k = 0; k < 10; ++k) EXPECT_TRUE(t.insert(k));
  EXPECT_EQ(t.size_slow(), 10u);
}

TEST(NmTreeBasic, NegativeAndExtremeKeys) {
  nm_tree<long> t;
  const std::vector<long> keys{0, -1, 1, LONG_MIN, LONG_MAX, -999999,
                               999999};
  for (long k : keys) EXPECT_TRUE(t.insert(k));
  for (long k : keys) EXPECT_TRUE(t.contains(k));
  EXPECT_EQ(t.size_slow(), keys.size());
  EXPECT_EQ(t.validate(), "");
  for (long k : keys) EXPECT_TRUE(t.erase(k));
  EXPECT_EQ(t.size_slow(), 0u);
}

TEST(NmTreeBasic, AscendingInsertionKeepsOrder) {
  nm_tree<long> t;
  for (long k = 0; k < 5000; ++k) ASSERT_TRUE(t.insert(k));
  std::vector<long> seen;
  t.for_each_slow([&seen](long k) { seen.push_back(k); });
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.size(), 5000u);
  EXPECT_EQ(t.validate(), "");
}

TEST(NmTreeBasic, DescendingInsertionKeepsOrder) {
  nm_tree<long> t;
  for (long k = 4999; k >= 0; --k) ASSERT_TRUE(t.insert(k));
  std::vector<long> seen;
  t.for_each_slow([&seen](long k) { seen.push_back(k); });
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.size(), 5000u);
  EXPECT_EQ(t.validate(), "");
}

TEST(NmTreeBasic, RandomSoupMatchesStdSet) {
  nm_tree<long> t;
  std::set<long> oracle;
  pcg32 rng(20140215);  // the paper's conference date as seed
  for (int i = 0; i < 100'000; ++i) {
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
  EXPECT_TRUE(std::equal(seen.begin(), seen.end(), oracle.begin(),
                         oracle.end()));
}

TEST(NmTreeBasic, ExternalShapeHeightIsReasonable) {
  // Random insertion order keeps an (external) BST around ~2·log2 n +
  // sentinels; a gross height blowup indicates a broken seek.
  nm_tree<long> t;
  pcg32 rng(1);
  std::set<long> inserted;
  while (inserted.size() < 10'000) {
    const long k = static_cast<long>(rng.next64() % 1'000'000);
    if (inserted.insert(k).second) {
      ASSERT_TRUE(t.insert(k));
    }
  }
  EXPECT_LT(t.height_slow(), 64u);
}

TEST(NmTreeBasic, EpochReclaimerVariant) {
  nm_tree<long, std::less<long>, reclaim::epoch> t;
  std::set<long> oracle;
  pcg32 rng(7);
  for (int i = 0; i < 50'000; ++i) {
    const long k = rng.bounded(512);
    if (rng.bounded(2) == 0) {
      ASSERT_EQ(t.insert(k), oracle.insert(k).second);
    } else {
      ASSERT_EQ(t.erase(k), oracle.erase(k) > 0);
    }
  }
  EXPECT_EQ(t.size_slow(), oracle.size());
  EXPECT_EQ(t.validate(), "");
}

TEST(NmTreeBasic, CustomComparator) {
  nm_tree<long, std::greater<long>> t;
  for (long k : {5L, 1L, 9L, 3L}) t.insert(k);
  std::vector<long> seen;
  t.for_each_slow([&seen](long k) { seen.push_back(k); });
  EXPECT_EQ(seen, (std::vector<long>{9, 5, 3, 1}));  // descending order
  EXPECT_EQ(t.validate(), "");
}

TEST(NmTreeBasic, StringKeysWithEpochReclaimer) {
  // Non-trivially-destructible keys require the eager reclaimer (the
  // leaky policy static_asserts); exercises destructor paths.
  nm_tree<std::string, std::less<std::string>, reclaim::epoch> t;
  EXPECT_TRUE(t.insert("delta"));
  EXPECT_TRUE(t.insert("alpha"));
  EXPECT_TRUE(t.insert("charlie"));
  EXPECT_FALSE(t.insert("alpha"));
  EXPECT_TRUE(t.contains("charlie"));
  EXPECT_TRUE(t.erase("alpha"));
  EXPECT_FALSE(t.contains("alpha"));
  EXPECT_EQ(t.size_slow(), 2u);
  EXPECT_EQ(t.validate(), "");
}

TEST(NmTreeBasic, FootprintGrowsAndReclaimerReportsPending) {
  nm_tree<long, std::less<long>, reclaim::epoch> t;
  for (long k = 0; k < 1000; ++k) t.insert(k);
  const std::size_t fp = t.footprint_bytes();
  EXPECT_GT(fp, 1000 * 2 * sizeof(void*));
  for (long k = 0; k < 1000; ++k) t.erase(k);
  // Some retired nodes may still be pending (grace period), but never
  // more than what was removed.
  EXPECT_LE(t.reclaimer_pending(), 2u * 1000u + 2u);
}

TEST(NmTreeBasic, AlternatingInsertEraseSameKey) {
  // The smallest possible churn loop; exercises the Fig. 3 empty-tree
  // edge (delete of the last client key repairs the sentinel shape).
  nm_tree<long> t;
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(t.insert(42));
    ASSERT_TRUE(t.contains(42));
    ASSERT_TRUE(t.erase(42));
    ASSERT_FALSE(t.contains(42));
  }
  EXPECT_EQ(t.validate(), "");
  EXPECT_EQ(t.size_slow(), 0u);
}

}  // namespace
}  // namespace lfbst
