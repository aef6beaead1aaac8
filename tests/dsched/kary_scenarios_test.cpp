// Schedule-exploration scenarios for the multiway k-ary tree's own
// hard races: two inserts racing to SPROUT the same full leaf, two
// deletes racing to COALESCE the same parent from sibling slots, and
// the info-record helping chains between them. Same exploration triad
// as tests/dsched/dsched_scenarios_test.cpp — bounded exhaustive DFS,
// PCT sweeps, seeded random walks — with every terminal state checked
// for linearizability and structural validity, and every failure
// carrying a replayable schedule trace (docs/DSCHED.md).
//
// K = 2 makes leaves hold a single key, so the structural operations
// (SPROUT on the second insert, COALESCE on the first delete of a
// sibling pair) fire after one setup key each — the schedules stay
// small enough for DFS to cover the full CAS windows. K = 3 adds the
// in-leaf REPLACE/REPLACE race on a shared non-full leaf.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "dsched/atomics.hpp"
#include "dsched/harness.hpp"
#include "multiway/kary_tree.hpp"

namespace lfbst {
namespace {

// Leaky reclamation keeps the interposed step count at the protocol's
// own CASes; the tuned contended-path extras (backoff, prefetch) are
// disabled automatically under sched_atomics.
using sched_kary = kary_tree<int, 2, std::less<int>, reclaim::leaky,
                             stats::none, dsched::sched_atomics>;
using sched_kary_root =
    kary_tree<int, 2, std::less<int>, reclaim::leaky, stats::none,
              dsched::sched_atomics, restart::from_root>;
using sched_kary3 = kary_tree<int, 3, std::less<int>, reclaim::leaky,
                              stats::none, dsched::sched_atomics>;

template <typename Tree>
typename dsched::scenario<Tree>::script op_script(
    std::vector<std::pair<char, int>> ops) {
  return [ops = std::move(ops)](dsched::recorder<Tree>& r) {
    for (const auto& [kind, key] : ops) {
      switch (kind) {
        case 'i':
          r.insert(key);
          break;
        case 'e':
          r.erase(key);
          break;
        case 'c':
          r.contains(key);
          break;
      }
    }
  };
}

template <typename Tree>
dsched::scenario<Tree> make_scenario(
    std::vector<int> setup_keys,
    std::vector<std::vector<std::pair<char, int>>> threads,
    std::vector<int> universe) {
  dsched::scenario<Tree> sc;
  sc.setup = [setup_keys = std::move(setup_keys)](Tree& t) {
    for (const int k : setup_keys) ASSERT_TRUE(t.insert(k));
  };
  for (auto& ops : threads) {
    sc.threads.push_back(op_script<Tree>(std::move(ops)));
  }
  sc.universe = std::move(universe);
  return sc;
}

// --------------------------------------------------------------------
// SPROUT race: with K = 2 the setup key fills its leaf, so both racing
// inserts route to the same full leaf and each tries to iflag the
// parent and swing the edge to a freshly sprouted internal node. The
// loser must help the winner's info record to completion (or see the
// already-swung edge) and re-seek into the new subtree.
// --------------------------------------------------------------------

TEST(KaryDschedScenarios, InsertInsertSproutSameLeafExhaustive) {
  auto sc = make_scenario<sched_kary>(
      /*setup=*/{2},
      /*threads=*/{{{'i', 1}}, {{'i', 3}}},
      /*universe=*/{1, 2, 3});
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(2048));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  // The acceptance bar: >= 1000 distinct interleavings, all sound.
  EXPECT_GE(sum.executions, 1000u);
}

TEST(KaryDschedScenarios, InsertInsertSproutSameLeafPct) {
  auto sc = make_scenario<sched_kary>({2}, {{{'i', 1}}, {{'i', 3}}},
                                      {1, 2, 3});
  const auto sum = dsched::explore_pct(sc, /*base_seed=*/1,
                                       dsched::scaled_budget(200),
                                       /*depth=*/3);
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_EQ(sum.executions, 200u);
}

// Same-key variant: exactly one insert may win; the loser must observe
// membership regardless of which side of the SPROUT it lands on.
TEST(KaryDschedScenarios, InsertInsertSameKeyOnFullLeaf) {
  auto sc = make_scenario<sched_kary>(
      /*setup=*/{2},
      /*threads=*/{{{'i', 1}}, {{'i', 1}}},
      /*universe=*/{1, 2});
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(2048));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
}

// K = 3 leaves hold two keys, so two inserts into the same non-full
// leaf race REPLACE against REPLACE on one edge: the loser's injection
// CAS fails against the winner's freshly published leaf and must retry
// against a leaf that now holds the winner's key.
TEST(KaryDschedScenarios, InsertInsertReplaceSameLeafExhaustive) {
  auto sc = make_scenario<sched_kary3>(
      /*setup=*/{},
      /*threads=*/{{{'i', 1}}, {{'i', 2}}},
      /*universe=*/{1, 2});
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(2048));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_GE(sum.executions, 1000u);
}

// --------------------------------------------------------------------
// COALESCE race: after setup {1, 3} the K = 2 tree is one internal
// node over sibling leaves [1] and [3]. Each racing delete empties its
// own leaf and finds the sibling total fits a single leaf, so both try
// the 4-CAS coalesce of the *same* parent under the *same* grandparent
// — dflag/dflag on gp, mark on p, and the abort path (helping the
// obstruction, unflagging gp) all get explored.
// --------------------------------------------------------------------

TEST(KaryDschedScenarios, DeleteDeleteCoalesceSiblingsExhaustive) {
  auto sc = make_scenario<sched_kary>(
      /*setup=*/{1, 3},
      /*threads=*/{{{'e', 1}}, {{'e', 3}}},
      /*universe=*/{1, 3});
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(2048));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_GE(sum.executions, 1000u);
}

TEST(KaryDschedScenarios, DeleteDeleteCoalesceSiblingsPct) {
  auto sc = make_scenario<sched_kary>({1, 3}, {{{'e', 1}}, {{'e', 3}}},
                                      {1, 3});
  const auto sum = dsched::explore_pct(sc, /*base_seed=*/11,
                                       dsched::scaled_budget(200),
                                       /*depth=*/3);
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_EQ(sum.executions, 200u);
}

// Delete racing an insert below the same parent: the erase's COALESCE
// wants to excise the internal node the insert's REPLACE is publishing
// into. Either order must linearize; the insert helping the delete's
// dflag (and vice versa, the delete falling back to REPLACE when the
// parent is busy) is the cross-operation helping chain.
TEST(KaryDschedScenarios, InsertDeleteConflictUnderOneParent) {
  auto sc = make_scenario<sched_kary>(
      /*setup=*/{1, 3},
      /*threads=*/{{{'i', 2}}, {{'e', 3}}},
      /*universe=*/{1, 2, 3});
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(2048));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_GE(sum.executions, 1000u);
}

// Re-insert of the key being deleted: the insert can land between the
// delete's logical removal (edge swing) and its maintenance collapse.
TEST(KaryDschedScenarios, ReinsertRacesDeleteOfSameKey) {
  auto sc = make_scenario<sched_kary>(
      /*setup=*/{1, 3},
      /*threads=*/{{{'e', 1}, {'i', 1}}, {{'e', 1}}},
      /*universe=*/{1, 3});
  const auto dfs = dsched::explore_dfs(sc, dsched::scaled_budget(1500));
  EXPECT_TRUE(dfs.all_ok()) << dfs.first_failure;
  const auto prio = dsched::explore_pct(sc, 21, dsched::scaled_budget(150),
                                        /*depth=*/3);
  EXPECT_TRUE(prio.all_ok()) << prio.first_failure;
}

// --------------------------------------------------------------------
// Three-thread helping chain: two deletes on sibling pairs of a
// two-level tree plus an insert below one of the contended parents.
// A stalled coalesce leaves dflag/mark obstructions every other
// operation must help (or route around via the REPLACE fallback).
// --------------------------------------------------------------------

TEST(KaryDschedScenarios, ThreeThreadHelpingChainPct) {
  auto sc = make_scenario<sched_kary>(
      /*setup=*/{1, 3, 5},
      /*threads=*/{{{'e', 1}}, {{'e', 5}}, {{'i', 2}}},
      /*universe=*/{1, 2, 3, 5});
  const auto sum = dsched::explore_pct(sc, /*base_seed=*/31,
                                       dsched::scaled_budget(300),
                                       /*depth=*/3);
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
}

TEST(KaryDschedScenarios, MixedSoupRandomWalk) {
  auto sc = make_scenario<sched_kary>(
      {1, 3}, {{{'e', 1}, {'i', 2}}, {{'e', 3}, {'i', 1}}}, {1, 2, 3});
  const auto sum = dsched::explore_random(sc, /*base_seed=*/5000,
                                          dsched::scaled_budget(500));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
}

// --------------------------------------------------------------------
// Restart-policy ablation: the same SPROUT and COALESCE races under
// restart::from_root. The anchored default takes the resume-local path
// after failed injections; from_root must reach the same terminal
// states from scratch.
// --------------------------------------------------------------------

TEST(KaryDschedScenarios, FromRootSproutRaceDfs) {
  auto sc = make_scenario<sched_kary_root>(
      /*setup=*/{2},
      /*threads=*/{{{'i', 1}}, {{'i', 3}}},
      /*universe=*/{1, 2, 3});
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(2048));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_GE(sum.executions, 1000u);
}

TEST(KaryDschedScenarios, FromRootCoalesceRaceDfs) {
  auto sc = make_scenario<sched_kary_root>(
      /*setup=*/{1, 3},
      /*threads=*/{{{'e', 1}}, {{'e', 3}}},
      /*universe=*/{1, 3});
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(2048));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
}

// --------------------------------------------------------------------
// Scans under schedule control: a pinned-reclaimer DFS scan threaded
// through a SPROUT and through a COALESCE. The recorder's per-key
// conservative-window encoding proves every reported and omitted key
// explainable by a linearization point inside the scan.
// --------------------------------------------------------------------

template <typename Tree>
typename dsched::scenario<Tree>::script scan_script(int lo, int hi,
                                                    int repeats = 1) {
  return [lo, hi, repeats](dsched::recorder<Tree>& r) {
    for (int i = 0; i < repeats; ++i) r.range_scan(lo, hi);
  };
}

TEST(KaryDschedScenarios, ScanRacingSproutDfs) {
  auto sc = make_scenario<sched_kary>(
      /*setup=*/{2},
      /*threads=*/{{{'i', 1}}},
      /*universe=*/{1, 2, 3});
  sc.threads.push_back(scan_script<sched_kary>(1, 4, /*repeats=*/2));
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(2048));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  // The pinned scan interposes few steps, so the budget exhausts the
  // whole interleaving space — full coverage, not a sample.
  EXPECT_TRUE(sum.exhausted || sum.executions >= 1000u) << sum.executions;
}

TEST(KaryDschedScenarios, ScanRacingCoalesceDfs) {
  auto sc = make_scenario<sched_kary>(
      /*setup=*/{1, 3},
      /*threads=*/{{{'e', 3}}},
      /*universe=*/{0, 1, 2, 3});
  sc.threads.push_back(scan_script<sched_kary>(0, 4, /*repeats=*/2));
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(2048));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_GE(sum.executions, 1000u);
}

// --------------------------------------------------------------------
// Small-space sanity: a scenario tiny enough for DFS to exhaust,
// proving the explorer's coverage logic holds on the k-ary stepper.
// --------------------------------------------------------------------

TEST(KaryDschedScenarios, TinyScenarioExhaustsCompletely) {
  auto sc = make_scenario<sched_kary>(
      /*setup=*/{},
      /*threads=*/{{{'i', 1}}, {{'c', 1}}},
      /*universe=*/{1});
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(100000));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_TRUE(sum.exhausted);
  EXPECT_GT(sum.executions, 1u);
}

}  // namespace
}  // namespace lfbst
