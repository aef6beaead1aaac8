// Schedule-exploration scenarios pinning the paper's known-hard races
// on the NM-BST (and the EFRB baseline) deterministically.
//
// Each scenario is explored three ways: bounded exhaustive DFS (every
// interleaving up to a budget — distinct by construction), a PCT sweep
// (priority preemption at random depths, strong on the depth-2
// flag-CAS/BTS windows), and a seeded random walk. Every terminal state
// is checked for (a) linearizability against the sequential set
// semantics via the Wing–Gong checker, with the terminal membership
// folded into the history, and (b) structural validity. Any failure
// message carries the seed and the full schedule trace; rerunning with
// dsched::replay::from_string(trace) reproduces the interleaving
// exactly (see docs/DSCHED.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "baselines/efrb_tree.hpp"
#include "core/natarajan_tree.hpp"
#include "core/restart_policy.hpp"
#include "dsched/atomics.hpp"
#include "dsched/harness.hpp"
#include "obs/metrics.hpp"
#include "reclaim/hazard_reclaimer.hpp"

namespace lfbst {
namespace {

// The trees under schedule control. Leaky reclamation keeps the step
// count per operation at the paper's protocol steps only (reclamation
// atomics are not interposed and would only blur the exploration).
using sched_nm = nm_tree<int, std::less<int>, reclaim::leaky, stats::none,
                         void, dsched::sched_atomics>;
using sched_efrb = efrb_tree<int, std::less<int>, reclaim::leaky,
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
dsched::scenario<Tree> make_scenario(std::vector<int> setup_keys,
                                     std::vector<std::vector<std::pair<char, int>>> threads,
                                     std::vector<int> universe) {
  dsched::scenario<Tree> sc;
  sc.setup = [setup_keys = std::move(setup_keys)](Tree& t) {
    for (const int k : setup_keys) ASSERT_TRUE(t.insert(k));
  };
  for (auto& ops : threads) sc.threads.push_back(op_script<Tree>(std::move(ops)));
  sc.universe = std::move(universe);
  return sc;
}

// --------------------------------------------------------------------
// The acceptance scenario: two deletes race on sibling leaves. Their
// cleanups contend for the same parent/ancestor edges — the delete that
// loses the ancestor CAS must re-seek and excise through the other's
// frozen region (paper §3.4's trickiest window).
// --------------------------------------------------------------------

TEST(DschedScenarios, DeleteDeleteOnSiblingLeavesExhaustive) {
  auto sc = make_scenario<sched_nm>(
      /*setup=*/{1, 2},
      /*threads=*/{{{'e', 1}}, {{'e', 2}}},
      /*universe=*/{1, 2});
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(2048));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  // The acceptance bar: >= 1000 distinct interleavings, all sound.
  EXPECT_GE(sum.executions, 1000u);
}

TEST(DschedScenarios, DeleteDeleteOnSiblingLeavesPct) {
  auto sc = make_scenario<sched_nm>({1, 2}, {{{'e', 1}}, {{'e', 2}}},
                                    {1, 2});
  const auto sum = dsched::explore_pct(sc, /*base_seed=*/1, dsched::scaled_budget(200),
                                       /*depth=*/3);
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_EQ(sum.executions, 200u);
}

// I(∞₀), the internal node an insert makes by splitting leaf(∞₀), is
// created and excised under races. The tree routes it by position (an
// internal child of 𝕊 sends every key left) and never reads its stored
// key; every terminal state's validate() checks the invariant that makes
// this sound: 𝕊.left is leaf(∞₀) or I(∞₀) with leaf(∞₀) on its right,
// and no other reachable edge addresses leaf(∞₀).
//
// Exhaustively: erasing the only key excises I(∞₀) while an insert
// races it, helps it, or makes a new I(∞₀) under the erase's re-seek.
// Each thread inserting and erasing its own key on an empty tree (two
// creations and two excisions) has too many interleavings to exhaust in
// a unit test (over 10^6), so a PCT sweep covers that one.
TEST(DschedScenarios, InfZeroInternalCreatedAndExcisedExhaustive) {
  auto sc = make_scenario<sched_nm>(
      /*setup=*/{1},
      /*threads=*/{{{'e', 1}}, {{'i', 2}}},
      /*universe=*/{1, 2});
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(100000));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_TRUE(sum.exhausted);
  EXPECT_GT(sum.executions, 1000u);
}

TEST(DschedScenarios, InfZeroInternalCreatedAndExcisedPct) {
  auto sc = make_scenario<sched_nm>(
      /*setup=*/{},
      /*threads=*/{{{'i', 1}, {'e', 1}}, {{'i', 2}, {'e', 2}}},
      /*universe=*/{1, 2});
  const auto sum = dsched::explore_pct(sc, /*base_seed=*/1,
                                       dsched::scaled_budget(1000),
                                       /*depth=*/3);
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_EQ(sum.executions, dsched::scaled_budget(1000));
}

// --------------------------------------------------------------------
// Satellite scenario 1: exhaustive 2-thread insert/delete conflict on
// adjacent keys. The insert's CAS targets the very edge the delete
// flags; every relative position of the insert CAS against the delete's
// flag CAS / tag BTS / ancestor CAS is visited, including the ones
// where the insert must help the delete's cleanup before retrying.
// --------------------------------------------------------------------

TEST(DschedScenarios, InsertDeleteConflictOnAdjacentKeysExhaustive) {
  auto sc = make_scenario<sched_nm>(
      /*setup=*/{1},
      /*threads=*/{{{'i', 2}}, {{'e', 1}}},
      /*universe=*/{1, 2});
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(2048));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_GE(sum.executions, 1000u);
}

// Re-insert of the key being deleted: the insert can land on the edge
// between the delete's flag CAS and its physical removal, which must
// either fail-and-help or linearize after the delete.
TEST(DschedScenarios, ReinsertRacesDeleteOfSameKey) {
  auto sc = make_scenario<sched_nm>(
      /*setup=*/{1, 2},
      /*threads=*/{{{'e', 1}, {'i', 1}}, {{'e', 1}}},
      /*universe=*/{1, 2});
  const auto dfs = dsched::explore_dfs(sc, dsched::scaled_budget(1500));
  EXPECT_TRUE(dfs.all_ok()) << dfs.first_failure;
  const auto prio = dsched::explore_pct(sc, 11, dsched::scaled_budget(150), /*depth=*/3);
  EXPECT_TRUE(prio.all_ok()) << prio.first_failure;
}

// --------------------------------------------------------------------
// Satellite scenario 2: 3-thread helping chain. T0's delete stalls at
// any point of its cleanup; T1's delete of the sibling and T2's insert
// below the flagged edge must complete it (failed-injection helping,
// Alg. 3 lines 79-81 and Alg. 2 line 55).
// --------------------------------------------------------------------

TEST(DschedScenarios, ThreeThreadHelpingChainDfs) {
  auto sc = make_scenario<sched_nm>(
      /*setup=*/{1, 2, 3},
      /*threads=*/{{{'e', 1}}, {{'e', 2}}, {{'i', 0}}},
      /*universe=*/{0, 1, 2, 3});
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(1200));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_GE(sum.executions, 1000u);
}

TEST(DschedScenarios, ThreeThreadHelpingChainPct) {
  auto sc = make_scenario<sched_nm>({1, 2, 3},
                                    {{{'e', 1}}, {{'e', 2}}, {{'i', 0}}},
                                    {0, 1, 2, 3});
  const auto sum = dsched::explore_pct(sc, /*base_seed=*/21, dsched::scaled_budget(200),
                                       /*depth=*/3);
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
}

// --------------------------------------------------------------------
// Satellite scenario 3: multi-leaf cleanup excision (paper Fig. 2). A
// chain of logically deleted leaves under one ancestor edge; the
// winning cleanup's single ancestor CAS excises the whole frozen
// region, and the losing deletes must still linearize.
// --------------------------------------------------------------------

TEST(DschedScenarios, MultiLeafExcisionChain) {
  // Keys 1..3 inserted ascending degenerate to a right spine, so the
  // three deletes' cleanup regions nest — the Fig. 2 configuration.
  auto sc = make_scenario<sched_nm>(
      /*setup=*/{1, 2, 3},
      /*threads=*/{{{'e', 3}}, {{'e', 2}}, {{'e', 1}}},
      /*universe=*/{1, 2, 3});
  const auto dfs = dsched::explore_dfs(sc, dsched::scaled_budget(1200));
  EXPECT_TRUE(dfs.all_ok()) << dfs.first_failure;
  const auto prio = dsched::explore_pct(sc, 31, dsched::scaled_budget(200), /*depth=*/4);
  EXPECT_TRUE(prio.all_ok()) << prio.first_failure;
}

// --------------------------------------------------------------------
// Satellite scenario 4: PCT sweep over 1k seeds on a mixed scenario —
// every seed is an independent, replayable priority schedule.
// --------------------------------------------------------------------

TEST(DschedScenarios, PctSweepOverThousandSeeds) {
  auto sc = make_scenario<sched_nm>(
      /*setup=*/{2, 4},
      /*threads=*/{{{'e', 2}, {'i', 3}}, {{'i', 2}, {'e', 4}},
                   {{'c', 2}, {'c', 3}}},
      /*universe=*/{2, 3, 4});
  const auto sum = dsched::explore_pct(sc, /*base_seed=*/1000,
                                       dsched::scaled_budget(1000),
                                       /*depth=*/3);
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_GE(sum.executions, 1000u);
}

TEST(DschedScenarios, RandomWalkSweep) {
  auto sc = make_scenario<sched_nm>(
      {1, 3}, {{{'e', 1}, {'i', 2}}, {{'e', 3}, {'i', 1}}}, {1, 2, 3});
  const auto sum = dsched::explore_random(sc, /*base_seed=*/5000,
                                          dsched::scaled_budget(500));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
}

// --------------------------------------------------------------------
// Replay: a recorded schedule reruns to the identical trace — the
// property every printed failure seed relies on.
// --------------------------------------------------------------------

TEST(DschedScenarios, FailureTraceFormatReplaysExactly) {
  auto sc = make_scenario<sched_nm>({1, 2}, {{{'e', 1}}, {{'e', 2}}},
                                    {1, 2});
  dsched::random_walk walk(77);
  const auto original = dsched::run_scenario<sched_nm>(
      sc, [&](std::size_t s, std::uint32_t m) { return walk(s, m); });
  ASSERT_TRUE(original.ok()) << original.describe();

  auto rep =
      dsched::replay::from_string(dsched::format_trace(original.schedule));
  const auto rerun = dsched::run_scenario<sched_nm>(
      sc, [&](std::size_t s, std::uint32_t m) { return rep(s, m); });
  ASSERT_TRUE(rerun.ok()) << rerun.describe();
  EXPECT_EQ(dsched::format_trace(rerun.schedule),
            dsched::format_trace(original.schedule));
}

// --------------------------------------------------------------------
// EFRB baseline under the same scheduler: its delete can *abort* (mark
// CAS lost -> backtrack CAS on the grandparent), a window the NM paper
// §5 contrasts with its own non-aborting deletes. The helping protocol
// over Info records must stay linearizable through every interleaving.
// --------------------------------------------------------------------

TEST(DschedScenarios, EfrbDeleteDeleteRaceDfs) {
  auto sc = make_scenario<sched_efrb>({1, 2}, {{{'e', 1}}, {{'e', 2}}},
                                      {1, 2});
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(1500));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_GE(sum.executions, 1000u);
}

TEST(DschedScenarios, EfrbInsertDeleteConflictPct) {
  auto sc = make_scenario<sched_efrb>(
      {1}, {{{'i', 2}}, {{'e', 1}}}, {1, 2});
  const auto sum = dsched::explore_pct(sc, /*base_seed=*/61, dsched::scaled_budget(300),
                                       /*depth=*/3);
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
}

// --------------------------------------------------------------------
// Small-space sanity: a scenario tiny enough for the DFS to *exhaust*,
// proving the explorer's termination-and-coverage logic on a real tree
// (a lone insert against a lone contains in a fresh tree).
// --------------------------------------------------------------------

// --------------------------------------------------------------------
// Restart-policy coverage: the anchored retry must stay sound when the
// recorded (ancestor → successor) edge is excised or marked between a
// failed CAS and the local re-seek. The {1,2,3} right spine plus three
// racing deletes nests the cleanup regions (Fig. 2), so the loser of an
// ancestor CAS can hold a seek record whose anchor sits inside the
// winner's excised region — exactly the window anchor validation
// guards. Explored for both restart policies; the default-policy alias
// above (sched_nm) already runs from_anchor, so the explicit aliases
// here pin the from_root ablation and attach obs::recording to the
// from_anchor runs so the exploration can prove both retry outcomes
// (local resume AND root fallback) were actually exercised.
// --------------------------------------------------------------------

using sched_nm_anchor_rec =
    nm_tree<int, std::less<int>, reclaim::leaky, obs::recording, void,
            dsched::sched_atomics, restart::from_anchor>;
using sched_nm_root =
    nm_tree<int, std::less<int>, reclaim::leaky, stats::none, void,
            dsched::sched_atomics, restart::from_root>;

// The excised-anchor scenario: three deletes whose cleanup regions nest
// on the right spine, plus an insert that collides with the deepest
// leaf so the injection-failure retry path is explored too.
template <typename Tree>
dsched::scenario<Tree> anchor_excision_scenario() {
  return make_scenario<Tree>(
      /*setup=*/{1, 2, 3},
      /*threads=*/{{{'e', 3}}, {{'e', 2}}, {{'i', 4}}},
      /*universe=*/{1, 2, 3, 4});
}

TEST(DschedScenarios, AnchorRestartExcisedAnchorDfs) {
  auto sc = anchor_excision_scenario<sched_nm_anchor_rec>();
  obs::metrics_snapshot total;
  sc.on_terminal = [&total](sched_nm_anchor_rec& t) {
    total.merge(t.stats().counters().snapshot());
  };
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(1500));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_GE(sum.executions, 1000u);
  // A lost ancestor CAS *is* a change of the anchor edge, so the
  // cleanup-mode retries in this scenario must all have detected the
  // excised anchor and fallen back to the root.
  EXPECT_GT(total[obs::counter::seek_anchor_fallbacks], 0u);
  // Attribution algebra, summed over every execution: each attributed
  // restart resolved to exactly one retry outcome.
  EXPECT_EQ(total[obs::counter::seek_restarts],
            total[obs::counter::restarts_injection_fail] +
                total[obs::counter::restarts_cleanup_mode]);
  EXPECT_EQ(total[obs::counter::seek_restarts],
            total[obs::counter::seek_resumes_local] +
                total[obs::counter::seek_anchor_fallbacks]);
}

// The local-resume window: two inserts race on the same leaf. The
// loser's failed injection CAS changed only the parent edge; its
// recorded anchor (the grandparent edge) is untouched and clean, so
// every lost race must resume locally — and with no delete anywhere,
// the root fallback must never fire.

TEST(DschedScenarios, AnchorRestartLocalResumeDfs) {
  auto sc = make_scenario<sched_nm_anchor_rec>(
      /*setup=*/{1, 2, 3},
      /*threads=*/{{{'i', 4}}, {{'i', 5}}},
      /*universe=*/{1, 2, 3, 4, 5});
  obs::metrics_snapshot total;
  sc.on_terminal = [&total](sched_nm_anchor_rec& t) {
    total.merge(t.stats().counters().snapshot());
  };
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(2000));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_GT(total[obs::counter::seek_resumes_local], 0u);
  EXPECT_EQ(total[obs::counter::seek_anchor_fallbacks], 0u);
  EXPECT_EQ(total[obs::counter::seek_restarts],
            total[obs::counter::restarts_injection_fail]);
  EXPECT_EQ(total[obs::counter::seek_restarts],
            total[obs::counter::seek_resumes_local]);
}

TEST(DschedScenarios, FromRootExcisedAnchorDfs) {
  auto sc = anchor_excision_scenario<sched_nm_root>();
  const auto sum = dsched::explore_dfs(sc, dsched::scaled_budget(1500));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_GE(sum.executions, 1000u);
}

TEST(DschedScenarios, AnchorRestartMultiLeafExcisionPct) {
  // The pure Fig. 2 chain under a PCT sweep for both restart policies:
  // depth-4 priority preemption is strong on the ancestor-CAS windows
  // that decide whether a loser's anchor survives.
  auto anchored = make_scenario<sched_nm_anchor_rec>(
      {1, 2, 3}, {{{'e', 3}}, {{'e', 2}}, {{'e', 1}}}, {1, 2, 3});
  obs::metrics_snapshot total;
  anchored.on_terminal = [&total](sched_nm_anchor_rec& t) {
    total.merge(t.stats().counters().snapshot());
  };
  const auto a = dsched::explore_pct(anchored, 71, dsched::scaled_budget(300),
                                     /*depth=*/4);
  EXPECT_TRUE(a.all_ok()) << a.first_failure;
  EXPECT_EQ(total[obs::counter::seek_restarts],
            total[obs::counter::seek_resumes_local] +
                total[obs::counter::seek_anchor_fallbacks]);

  auto rooted = make_scenario<sched_nm_root>(
      {1, 2, 3}, {{{'e', 3}}, {{'e', 2}}, {{'e', 1}}}, {1, 2, 3});
  const auto r = dsched::explore_pct(rooted, 71, dsched::scaled_budget(300),
                                     /*depth=*/4);
  EXPECT_TRUE(r.all_ok()) << r.first_failure;
}

// --------------------------------------------------------------------
// Concurrent ordered scans under schedule control. The recorder encodes
// each scan as one contains(k, k ∈ result) observation per key of the
// interval, all sharing the scan's conservative window, so the checker
// proves every reported (and omitted) key explainable by some
// linearization point inside the scan — and asserts sortedness and
// uniqueness on every explored interleaving. Scenarios cover a scan
// racing an insert, racing an erase, and racing the Fig. 2 multi-leaf
// excision chain, across both restart policies.
// --------------------------------------------------------------------

template <typename Tree>
typename dsched::scenario<Tree>::script scan_script(int lo, int hi,
                                                    int repeats = 1) {
  return [lo, hi, repeats](dsched::recorder<Tree>& r) {
    for (int i = 0; i < repeats; ++i) r.range_scan(lo, hi);
  };
}

template <typename Tree>
dsched::scenario<Tree> scan_vs_insert_scenario() {
  dsched::scenario<Tree> sc = make_scenario<Tree>(
      /*setup=*/{2, 4},
      /*threads=*/{{{'i', 3}}},
      /*universe=*/{1, 2, 3, 4, 5});
  // Two back-to-back scans: at least one overlaps the insert's edge CAS
  // in most interleavings, and consecutive windows must stay coherent.
  sc.threads.push_back(scan_script<Tree>(1, 6, /*repeats=*/2));
  return sc;
}

template <typename Tree>
dsched::scenario<Tree> scan_vs_erase_scenario() {
  dsched::scenario<Tree> sc = make_scenario<Tree>(
      /*setup=*/{1, 2, 3},
      /*threads=*/{{{'e', 2}}},
      /*universe=*/{0, 1, 2, 3, 4});
  sc.threads.push_back(scan_script<Tree>(0, 5, /*repeats=*/2));
  return sc;
}

// A scan threaded through two nesting cleanups on the right spine: the
// scan walks exactly the edges the excisions freeze and swing.
template <typename Tree>
dsched::scenario<Tree> scan_vs_excision_scenario() {
  dsched::scenario<Tree> sc = make_scenario<Tree>(
      /*setup=*/{1, 2, 3},
      /*threads=*/{{{'e', 3}}, {{'e', 2}}},
      /*universe=*/{0, 1, 2, 3, 4});
  sc.threads.push_back(scan_script<Tree>(0, 5));
  return sc;
}

TEST(DschedScenarios, ScanRacingInsertDfs) {
  const auto sum = dsched::explore_dfs(scan_vs_insert_scenario<sched_nm>(),
                                       dsched::scaled_budget(2048));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_GE(sum.executions, 1000u);
}

TEST(DschedScenarios, ScanRacingEraseDfs) {
  const auto sum = dsched::explore_dfs(scan_vs_erase_scenario<sched_nm>(),
                                       dsched::scaled_budget(2048));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  EXPECT_GE(sum.executions, 1000u);
}

TEST(DschedScenarios, ScanRacingMultiLeafExcisionDfs) {
  const auto sum = dsched::explore_dfs(scan_vs_excision_scenario<sched_nm>(),
                                       dsched::scaled_budget(1500));
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
}

TEST(DschedScenarios, ScanRacingMultiLeafExcisionPct) {
  // The full three-erase chain plus a scan is too wide for DFS; PCT at
  // depth 4 lands preemptions on the ancestor-CAS windows the scan must
  // survive. Swept for both restart policies (the writers' retry path
  // decides which edges the scan can meet mid-swing).
  auto anchored = scan_vs_excision_scenario<sched_nm>();
  anchored.threads.push_back(op_script<sched_nm>({{'e', 1}}));
  const auto a =
      dsched::explore_pct(anchored, 83, dsched::scaled_budget(300),
                          /*depth=*/4);
  EXPECT_TRUE(a.all_ok()) << a.first_failure;

  auto rooted = scan_vs_excision_scenario<sched_nm_root>();
  rooted.threads.push_back(op_script<sched_nm_root>({{'e', 1}}));
  const auto r = dsched::explore_pct(rooted, 83, dsched::scaled_budget(300),
                                     /*depth=*/4);
  EXPECT_TRUE(r.all_ok()) << r.first_failure;
}

// The same three races under reclaim::hazard, where the scan is a chain
// of validated cursor descents instead of one pinned walk. PCT reaches
// the validation failures that DFS's budget misses; each sweep must
// restart some scan round, so it cannot pass without exercising the
// restart path.
using sched_nm_hazard_rec =
    nm_tree<int, std::less<int>, reclaim::hazard, obs::recording, void,
            dsched::sched_atomics>;

template <typename Tree>
std::uint64_t scan_restarts_over_pct(dsched::scenario<Tree> sc,
                                     std::uint64_t seed) {
  std::uint64_t restarts = 0;
  sc.on_terminal = [&restarts](Tree& t) {
    restarts += t.stats().counters().snapshot()[obs::counter::scan_restarts];
  };
  const auto sum = dsched::explore_pct(sc, seed, dsched::scaled_budget(1000),
                                       /*depth=*/4);
  EXPECT_TRUE(sum.all_ok()) << sum.first_failure;
  return restarts;
}

TEST(DschedScenarios, ScanRacingInsertHazardPct) {
  EXPECT_GT(scan_restarts_over_pct(
                scan_vs_insert_scenario<sched_nm_hazard_rec>(), 5),
            0u);
}

TEST(DschedScenarios, ScanRacingEraseHazardPct) {
  EXPECT_GT(scan_restarts_over_pct(
                scan_vs_erase_scenario<sched_nm_hazard_rec>(), 5),
            0u);
}

TEST(DschedScenarios, ScanRacingMultiLeafExcisionHazardPct) {
  EXPECT_GT(scan_restarts_over_pct(
                scan_vs_excision_scenario<sched_nm_hazard_rec>(), 5),
            0u);
}

// --------------------------------------------------------------------
// Schedule points per operation. A lone logical thread's trace has one
// step per schedule point plus the final run to completion, so its
// length pins how many shared-memory steps an uncontended operation
// takes: one child-word step per internal node of the access path
// (from 𝕊 down; the seek starts on the ℝ → 𝕊 edge without loading it)
// plus the protocol's CAS/BTS steps. However much a descent loads per
// level, each level stays one schedule point, so the explored
// interleavings do not change with it.
// --------------------------------------------------------------------

std::size_t solo_trace_length(sched_nm& t,
                              const std::function<void(sched_nm&)>& op) {
  const dsched::trace tr = dsched::scheduler::run(
      {[&] { op(t); }}, [](std::size_t, std::uint32_t) { return 0u; });
  return tr.size();
}

TEST(DschedScenarios, UncontendedOpsTakeOneStepPerInternalLevel) {
  // Inserting 2, 1, 3 into the empty tree gives 𝕊 → I(∞₀) → I(2), with
  // I(2) = {leaf 1, I(3)} and I(3) = {leaf 2, leaf 3}: key 3's path
  // crosses four internal nodes (𝕊, I(∞₀), I(2), I(3)), key 1's three.
  sched_nm t;
  for (const int k : {2, 1, 3}) ASSERT_TRUE(t.insert(k));

  // contains: the seek's loads and nothing else.
  EXPECT_EQ(solo_trace_length(t, [](sched_nm& s) { EXPECT_TRUE(s.contains(3)); }),
            4u + 1);
  EXPECT_EQ(solo_trace_length(t, [](sched_nm& s) { EXPECT_TRUE(s.contains(1)); }),
            3u + 1);
  // insert(4) lands on leaf 3: four levels, then one CAS.
  EXPECT_EQ(solo_trace_length(t, [](sched_nm& s) { EXPECT_TRUE(s.insert(4)); }),
            4u + 1 + 1);
  // erase(2) lands on leaf 2 below I(3): four levels, the flag CAS, then
  // cleanup's child-word load, sibling BTS, sibling re-read and
  // ancestor CAS.
  EXPECT_EQ(solo_trace_length(t, [](sched_nm& s) { EXPECT_TRUE(s.erase(2)); }),
            4u + 1 + 4 + 1);
  EXPECT_EQ(t.validate(), "");
  EXPECT_EQ(t.size_slow(), 3u);
}

TEST(DschedScenarios, TinyScenarioExhaustsCompletely) {
  auto sc = make_scenario<sched_nm>(
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
