// The cross-implementation contract suite: every tree in the repo must
// satisfy the same dictionary semantics. Written once as a typed gtest
// suite and instantiated for every tree on the shared roster
// (tree_roster.hpp), so a behavioural divergence between the paper's
// algorithm and any baseline shows up as a single failing (Algorithm,
// Test) cell.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/concurrent_set.hpp"
#include "lfbst/lfbst.hpp"
#include "tree_roster.hpp"

namespace lfbst {
namespace {

template <typename Tree>
class SetContract : public ::testing::Test {
 public:
  Tree tree;
};

TYPED_TEST_SUITE(SetContract, tree_roster::types, tree_roster::names);

TYPED_TEST(SetContract, SatisfiesConcurrentSetConcept) {
  static_assert(ConcurrentSet<TypeParam>);
}

TYPED_TEST(SetContract, StartsEmpty) {
  EXPECT_EQ(this->tree.size_slow(), 0u);
  EXPECT_FALSE(this->tree.contains(0));
  EXPECT_EQ(this->tree.validate(), "");
}

TYPED_TEST(SetContract, InsertContainsEraseRoundTrip) {
  EXPECT_TRUE(this->tree.insert(42));
  EXPECT_TRUE(this->tree.contains(42));
  EXPECT_TRUE(this->tree.erase(42));
  EXPECT_FALSE(this->tree.contains(42));
  EXPECT_EQ(this->tree.size_slow(), 0u);
}

TYPED_TEST(SetContract, InsertIsIdempotentOnMembership) {
  EXPECT_TRUE(this->tree.insert(7));
  EXPECT_FALSE(this->tree.insert(7));
  EXPECT_FALSE(this->tree.insert(7));
  EXPECT_EQ(this->tree.size_slow(), 1u);
}

TYPED_TEST(SetContract, EraseOfAbsentKeyIsFalse) {
  EXPECT_FALSE(this->tree.erase(1));
  this->tree.insert(1);
  EXPECT_FALSE(this->tree.erase(2));
  EXPECT_TRUE(this->tree.contains(1));
}

TYPED_TEST(SetContract, ContainsDoesNotMutate) {
  this->tree.insert(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(this->tree.contains(5));
    EXPECT_FALSE(this->tree.contains(6));
  }
  EXPECT_EQ(this->tree.size_slow(), 1u);
  EXPECT_EQ(this->tree.validate(), "");
}

TYPED_TEST(SetContract, HandlesAdjacentKeys) {
  for (long k = 0; k < 64; ++k) EXPECT_TRUE(this->tree.insert(k));
  for (long k = 0; k < 64; k += 2) EXPECT_TRUE(this->tree.erase(k));
  for (long k = 0; k < 64; ++k) {
    EXPECT_EQ(this->tree.contains(k), k % 2 == 1) << "k=" << k;
  }
  EXPECT_EQ(this->tree.validate(), "");
}

TYPED_TEST(SetContract, AscendingInsertDescendingErase) {
  constexpr long n = 2000;
  for (long k = 0; k < n; ++k) ASSERT_TRUE(this->tree.insert(k));
  EXPECT_EQ(this->tree.size_slow(), static_cast<std::size_t>(n));
  for (long k = n - 1; k >= 0; --k) ASSERT_TRUE(this->tree.erase(k));
  EXPECT_EQ(this->tree.size_slow(), 0u);
  EXPECT_EQ(this->tree.validate(), "");
}

TYPED_TEST(SetContract, ForEachVisitsExactlyTheLiveKeysInOrder) {
  std::set<long> oracle;
  pcg32 rng(99);
  for (int i = 0; i < 5000; ++i) {
    const long k = rng.bounded(4096);
    if (rng.bounded(3) == 0) {
      EXPECT_EQ(this->tree.erase(k), oracle.erase(k) > 0);
    } else {
      EXPECT_EQ(this->tree.insert(k), oracle.insert(k).second);
    }
  }
  std::vector<long> seen;
  this->tree.for_each_slow([&seen](long k) { seen.push_back(k); });
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_TRUE(
      std::equal(seen.begin(), seen.end(), oracle.begin(), oracle.end()));
}

TYPED_TEST(SetContract, OracleSoupSmallKeyRange) {
  // High-collision regime: every operation contends on the same few
  // keys, maximizing structural churn near the root/sentinels.
  std::set<long> oracle;
  pcg32 rng(31);
  for (int i = 0; i < 60'000; ++i) {
    const long k = rng.bounded(16);
    switch (rng.bounded(3)) {
      case 0:
        ASSERT_EQ(this->tree.insert(k), oracle.insert(k).second);
        break;
      case 1:
        ASSERT_EQ(this->tree.erase(k), oracle.erase(k) > 0);
        break;
      default:
        ASSERT_EQ(this->tree.contains(k), oracle.count(k) > 0);
    }
  }
  EXPECT_EQ(this->tree.size_slow(), oracle.size());
  EXPECT_EQ(this->tree.validate(), "");
}

TYPED_TEST(SetContract, OracleSoupWideKeyRange) {
  std::set<long> oracle;
  pcg32 rng(32);
  for (int i = 0; i < 60'000; ++i) {
    const long k = static_cast<long>(rng.next64() % 1'000'000);
    switch (rng.bounded(3)) {
      case 0:
        ASSERT_EQ(this->tree.insert(k), oracle.insert(k).second);
        break;
      case 1:
        ASSERT_EQ(this->tree.erase(k), oracle.erase(k) > 0);
        break;
      default:
        ASSERT_EQ(this->tree.contains(k), oracle.count(k) > 0);
    }
  }
  EXPECT_EQ(this->tree.size_slow(), oracle.size());
  EXPECT_EQ(this->tree.validate(), "");
}

TYPED_TEST(SetContract, RepeatedFillAndDrain) {
  for (int round = 0; round < 10; ++round) {
    for (long k = 0; k < 500; ++k) ASSERT_TRUE(this->tree.insert(k));
    EXPECT_EQ(this->tree.size_slow(), 500u);
    for (long k = 0; k < 500; ++k) ASSERT_TRUE(this->tree.erase(k));
    EXPECT_EQ(this->tree.size_slow(), 0u);
  }
  EXPECT_EQ(this->tree.validate(), "");
}

}  // namespace
}  // namespace lfbst
