// The scan front-end both external trees share (core/ordered_scan.hpp),
// checked once over each tree and traversal: the pinned walk (epoch)
// and the validated cursor loop (hazard, which only nm_tree takes).
#include "core/ordered_scan.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "core/natarajan_tree.hpp"
#include "multiway/kary_tree.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard_reclaimer.hpp"

namespace lfbst {
namespace {

template <typename Tree>
class OrderedScan : public ::testing::Test {};

using scan_trees =
    ::testing::Types<nm_tree<long, std::less<long>, reclaim::epoch>,
                     nm_tree<long, std::less<long>, reclaim::hazard>,
                     kary_tree<long, 8, std::less<long>, reclaim::epoch>>;

struct scan_tree_names {
  template <typename Tree>
  static std::string GetName(int) {
    std::string name;
    for (const char* c = Tree::algorithm_name; *c != '\0'; ++c) {
      if (std::isalnum(static_cast<unsigned char>(*c)) != 0) name += *c;
    }
    return name + (Tree::reclaimer_type::requires_validated_traversal
                       ? "Hazard"
                       : "Epoch");
  }
};

TYPED_TEST_SUITE(OrderedScan, scan_trees, scan_tree_names);

TYPED_TEST(OrderedScan, BoundedScanReturnsSmallestInRange) {
  TypeParam t;
  for (long k = 0; k < 100; ++k) t.insert(k);
  EXPECT_EQ(t.range_scan(10, 90, 5), (std::vector<long>{10, 11, 12, 13, 14}));
  EXPECT_EQ(t.range_scan(10, 13, 100), (std::vector<long>{10, 11, 12}));
  EXPECT_TRUE(t.range_scan(10, 90, 0).empty());
  // Paging: resume above the last returned key walks the whole range.
  std::vector<long> paged;
  long cursor = 0;
  for (;;) {
    const std::vector<long> page = t.range_scan(cursor, 100, 7);
    if (page.empty()) break;
    paged.insert(paged.end(), page.begin(), page.end());
    cursor = page.back() + 1;
  }
  std::vector<long> expected(100);
  for (long k = 0; k < 100; ++k) expected[static_cast<std::size_t>(k)] = k;
  EXPECT_EQ(paged, expected);
}

}  // namespace
}  // namespace lfbst
