// Unit tests for sentinel-extended keys: the ∞₁ < ∞₂ order the EFRB
// baseline's anchoring depends on, and the comparator's client-key
// fallback.
#include "core/sentinel_key.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>

namespace lfbst {
namespace {

using skey = sentinel_key<long>;
using sless = sentinel_less<long, std::less<long>>;

TEST(SentinelKey, ClientKeysCompareByValue) {
  sless less;
  EXPECT_TRUE(less(skey(1), skey(2)));
  EXPECT_FALSE(less(skey(2), skey(1)));
  EXPECT_FALSE(less(skey(5), skey(5)));
}

TEST(SentinelKey, InfinitiesAreOrdered) {
  sless less;
  EXPECT_TRUE(less(skey::inf1(), skey::inf2()));
  EXPECT_FALSE(less(skey::inf2(), skey::inf1()));
}

TEST(SentinelKey, InfinitiesAboveAllClientKeys) {
  sless less;
  for (long k : {-1000000L, -1L, 0L, 1L, 1000000L}) {
    EXPECT_TRUE(less(skey(k), skey::inf1()));
    EXPECT_TRUE(less(skey(k), skey::inf2()));
    EXPECT_FALSE(less(skey::inf1(), skey(k)));
    EXPECT_FALSE(less(skey::inf2(), skey(k)));
  }
}

TEST(SentinelKey, EqualSentinelsAreNotLess) {
  sless less;
  EXPECT_FALSE(less(skey::inf1(), skey::inf1()));
  EXPECT_FALSE(less(skey::inf2(), skey::inf2()));
}

TEST(SentinelKey, RawKeyVsStoredKeyOverload) {
  sless less;
  EXPECT_TRUE(less(3L, skey(4)));
  EXPECT_FALSE(less(4L, skey(4)));
  EXPECT_FALSE(less(5L, skey(4)));
  EXPECT_TRUE(less(5L, skey::inf1()));  // every client key below +inf
}

TEST(SentinelKey, EqualityHelper) {
  sless less;
  EXPECT_TRUE(less.equal(7L, skey(7)));
  EXPECT_FALSE(less.equal(7L, skey(8)));
  EXPECT_FALSE(less.equal(7L, skey::inf1()));
  EXPECT_FALSE(less.equal(7L, skey::inf2()));
}

TEST(SentinelKey, IsSentinelFlag) {
  EXPECT_FALSE(skey(0).is_sentinel());
  EXPECT_TRUE(skey::inf1().is_sentinel());
  EXPECT_TRUE(skey::inf2().is_sentinel());
}

TEST(SentinelKey, WorksWithNonTrivialKeyTypes) {
  using strkey = sentinel_key<std::string>;
  sentinel_less<std::string, std::less<std::string>> less;
  EXPECT_TRUE(less(strkey("abc"), strkey("abd")));
  EXPECT_TRUE(less(strkey("zzz"), strkey::inf1()));
  EXPECT_TRUE(less.equal(std::string("x"), strkey("x")));
}

TEST(SentinelKey, CustomComparatorIsRespected) {
  // greater<long> flips the client order but must leave sentinel
  // stratification intact.
  sentinel_less<long, std::greater<long>> less;
  EXPECT_TRUE(less(sentinel_key<long>(9), sentinel_key<long>(3)));
  EXPECT_FALSE(less(sentinel_key<long>(3), sentinel_key<long>(9)));
  EXPECT_TRUE(less(sentinel_key<long>(-100), sentinel_key<long>::inf1()));
}

}  // namespace
}  // namespace lfbst
