// The typed-test roster: every tree the contract and stress suites are
// instantiated for, each paired with the suffix its suite names carry
// (SetContract/NM_BST_0, ConcurrentStress/KST_14, ...). The suffix
// belongs to the entry, not to its position in the list, so removing a
// tree renames no other suite. Suffixes 5 and 6 (a removed lock-based
// tree, DESIGN.md §8.1), 8 (the CAS-only tagging variant, §8.2), and 12
// and 13 (the k-ary tree under hazard pointers, §8.4) are retired;
// never reuse a retired suffix.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <type_traits>
#include <vector>

#include "lfbst/lfbst.hpp"

namespace lfbst {

template <typename Tree, int Suffix>
struct roster_entry {
  using tree = Tree;
  static constexpr int suffix = Suffix;
};

template <typename... Entries>
struct typed_roster {
  using types = ::testing::Types<typename Entries::tree...>;

  /// gtest's name generator for TYPED_TEST_SUITE: the tree's algorithm
  /// name plus its entry's suffix, wherever the entry sits.
  struct names {
    template <typename T>
    static std::string GetName(int /*position*/) {
      // gtest filters treat '-' as the negative-pattern separator, so the
      // algorithm names ("NM-BST") must be sanitized or ctest's generated
      // --gtest_filter would silently match zero tests.
      std::string name(T::algorithm_name);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      int suffix = 0;
      ((std::is_same_v<T, typename Entries::tree> ? suffix = Entries::suffix
                                                  : 0),
       ...);
      return name + "_" + std::to_string(suffix);
    }
  };

  /// The suite names, in roster order.
  static std::vector<std::string> all_names() {
    return {names::template GetName<typename Entries::tree>(0)...};
  }

  /// No tree is listed twice and no two entries share a suffix, so every
  /// tree has exactly one entry and every suite name is distinct.
  static constexpr bool well_formed() {
    constexpr std::array<int, sizeof...(Entries)> suffixes{Entries::suffix...};
    for (std::size_t i = 0; i < suffixes.size(); ++i) {
      for (std::size_t j = i + 1; j < suffixes.size(); ++j) {
        if (suffixes[i] == suffixes[j]) return false;
      }
    }
    return ((count_of<typename Entries::tree>() == 1) && ...);
  }

 private:
  template <typename T>
  static constexpr int count_of() {
    return (0 + ... + int{std::is_same_v<T, typename Entries::tree>});
  }
};

using tree_roster = typed_roster<
    roster_entry<nm_tree<long>, 0>, roster_entry<efrb_tree<long>, 1>,
    roster_entry<hj_tree<long>, 2>, roster_entry<bcco_tree<long>, 3>,
    roster_entry<coarse_tree<long>, 4>,
    // policy variants of the core algorithm
    roster_entry<nm_tree<long, std::less<long>, reclaim::epoch>, 7>,
    roster_entry<nm_tree<long, std::less<long>, reclaim::hazard>, 9>,
    // multiway k-ary tree, across its policy axes
    roster_entry<kary_tree<long, 4>, 10>,
    roster_entry<kary_tree<long, 8, std::less<long>, reclaim::epoch>, 11>,
    roster_entry<kary_tree<long, 16, std::less<long>, reclaim::epoch,
                           stats::none, atomics::native, restart::from_root>,
                 14>>;

static_assert(tree_roster::well_formed());

}  // namespace lfbst
