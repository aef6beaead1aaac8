// Property-based parameterized sweeps: randomized operation soups over a
// (seed × key-range × mix) grid, validated against std::set after every
// phase. TEST_P keeps each grid point an individually reported,
// individually re-runnable test.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "lfbst/lfbst.hpp"

namespace lfbst {
namespace {

struct sweep_params {
  std::uint64_t seed;
  long key_range;
  int insert_pct;  // remainder splits evenly search/erase
  int erase_pct;
};

std::string param_name(const ::testing::TestParamInfo<sweep_params>& info) {
  return "seed" + std::to_string(info.param.seed) + "_range" +
         std::to_string(info.param.key_range) + "_ins" +
         std::to_string(info.param.insert_pct) + "_era" +
         std::to_string(info.param.erase_pct);
}

class PropertySweep : public ::testing::TestWithParam<sweep_params> {};

/// Drives `ops` randomized operations against `tree` and the oracle,
/// asserting result agreement per step and structural health at the end.
template <typename Tree>
void run_sweep(Tree& tree, const sweep_params& p, int ops) {
  std::set<long> oracle;
  pcg32 rng(p.seed);
  for (int i = 0; i < ops; ++i) {
    const long k = static_cast<long>(rng.next64() % p.key_range);
    const int roll = static_cast<int>(rng.bounded(100));
    if (roll < p.insert_pct) {
      ASSERT_EQ(tree.insert(k), oracle.insert(k).second)
          << Tree::algorithm_name << " i=" << i << " k=" << k;
    } else if (roll < p.insert_pct + p.erase_pct) {
      ASSERT_EQ(tree.erase(k), oracle.erase(k) > 0)
          << Tree::algorithm_name << " i=" << i << " k=" << k;
    } else {
      ASSERT_EQ(tree.contains(k), oracle.count(k) > 0)
          << Tree::algorithm_name << " i=" << i << " k=" << k;
    }
  }
  ASSERT_EQ(tree.size_slow(), oracle.size()) << Tree::algorithm_name;
  ASSERT_EQ(tree.validate(), "") << Tree::algorithm_name;
  // Ordered-scan agreement over a quiescent tree. Every tree offers the
  // same bounded-scan surface (kary included — no for_each-only
  // carve-outs), so the sweep checks it for all of them.
  if constexpr (requires { tree.range_scan(0L, 1L); }) {
    const long lo = p.key_range / 4;
    const long hi = (3 * p.key_range) / 4 + 1;
    std::vector<long> expected;
    for (const long k : oracle) {
      if (k >= lo && k < hi) expected.push_back(k);
    }
    ASSERT_EQ(tree.range_scan(lo, hi), expected) << Tree::algorithm_name;
    std::vector<long> visited;
    tree.for_each([&visited](const long& k) { visited.push_back(k); });
    ASSERT_EQ(visited, std::vector<long>(oracle.begin(), oracle.end()))
        << Tree::algorithm_name;
  }
}

TEST_P(PropertySweep, NmTreeMatchesOracle) {
  nm_tree<long> t;
  run_sweep(t, GetParam(), 30'000);
}

TEST_P(PropertySweep, NmTreeEpochMatchesOracle) {
  nm_tree<long, std::less<long>, reclaim::epoch> t;
  run_sweep(t, GetParam(), 30'000);
}

TEST_P(PropertySweep, EfrbTreeMatchesOracle) {
  efrb_tree<long> t;
  run_sweep(t, GetParam(), 30'000);
}

TEST_P(PropertySweep, HjTreeMatchesOracle) {
  hj_tree<long> t;
  run_sweep(t, GetParam(), 30'000);
}

TEST_P(PropertySweep, BccoTreeMatchesOracle) {
  bcco_tree<long> t;
  run_sweep(t, GetParam(), 30'000);
}

TEST_P(PropertySweep, CoarseTreeMatchesOracle) {
  coarse_tree<long> t;
  run_sweep(t, GetParam(), 30'000);
}

TEST_P(PropertySweep, KaryTreeMatchesOracle) {
  kary_tree<long, 4> t;
  run_sweep(t, GetParam(), 30'000);
}

TEST_P(PropertySweep, KaryTreeWideFanoutMatchesOracle) {
  kary_tree<long, 8> t;
  run_sweep(t, GetParam(), 30'000);
}

TEST_P(PropertySweep, KaryTreeFromRootMatchesOracle) {
  kary_tree<long, 16, std::less<long>, reclaim::epoch, stats::none,
            atomics::native, restart::from_root>
      t;
  run_sweep(t, GetParam(), 30'000);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PropertySweep,
    ::testing::Values(
        // High collision, balanced mix — maximum structural churn.
        sweep_params{1, 8, 40, 40},
        sweep_params{2, 64, 40, 40},
        // The paper's three workload mixes at two tree scales.
        sweep_params{3, 1'000, 50, 50},    // write-dominated
        sweep_params{4, 1'000, 20, 10},    // mixed
        sweep_params{5, 1'000, 9, 1},      // read-dominated
        sweep_params{6, 100'000, 50, 50},  //
        sweep_params{7, 100'000, 20, 10},  //
        // Insert-only growth and erase-heavy shrinkage.
        sweep_params{8, 10'000, 90, 5},
        sweep_params{9, 200, 10, 80},
        // Different seeds on the nastiest configuration.
        sweep_params{10, 8, 40, 40}, sweep_params{11, 8, 40, 40},
        sweep_params{12, 8, 40, 40}),
    param_name);

// --- invariants that must hold at every prefix ------------------------------

class PhaseValidation : public ::testing::TestWithParam<sweep_params> {};

TEST_P(PhaseValidation, NmTreeValidAfterEveryPhase) {
  // Run the soup in phases and validate the full structure after each —
  // catches corruption that later operations would mask.
  const auto p = GetParam();
  nm_tree<long> t;
  std::set<long> oracle;
  pcg32 rng(p.seed);
  for (int phase = 0; phase < 10; ++phase) {
    for (int i = 0; i < 2000; ++i) {
      const long k = static_cast<long>(rng.next64() % p.key_range);
      const int roll = static_cast<int>(rng.bounded(100));
      if (roll < p.insert_pct) {
        ASSERT_EQ(t.insert(k), oracle.insert(k).second);
      } else if (roll < p.insert_pct + p.erase_pct) {
        ASSERT_EQ(t.erase(k), oracle.erase(k) > 0);
      } else {
        ASSERT_EQ(t.contains(k), oracle.count(k) > 0);
      }
    }
    ASSERT_EQ(t.validate(), "") << "phase " << phase;
    ASSERT_EQ(t.size_slow(), oracle.size()) << "phase " << phase;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, PhaseValidation,
                         ::testing::Values(sweep_params{21, 16, 45, 45},
                                           sweep_params{22, 1'000, 30, 30},
                                           sweep_params{23, 50'000, 50, 25}),
                         param_name);

}  // namespace
}  // namespace lfbst
