// The typed suites' names are part of the test inventory: CI filters,
// floor lists and history refer to them. Pin them, so a reorder or a
// removal on the roster that renames a surviving suite fails here.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tree_roster.hpp"

namespace lfbst {
namespace {

TEST(TreeRoster, SuiteNamesBelongToTheirTrees) {
  const std::vector<std::string> expected{
      "NM_BST_0", "EFRB_BST_1", "HJ_BST_2", "BCCO_BST_3",
      "Coarse_BST_4", "NM_BST_7", "NM_BST_9", "KST_10",
      "KST_11", "KST_14"};
  EXPECT_EQ(tree_roster::all_names(), expected);
}

}  // namespace
}  // namespace lfbst
