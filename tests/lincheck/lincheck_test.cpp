// Tests for the linearizability checker itself (known-good and
// known-bad hand histories), then recorded histories from every tree:
// hundreds of small random concurrent executions, each verified against
// the sequential set specification.
#include "lincheck/lincheck.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "lfbst/lfbst.hpp"
#include "lincheck/recorder.hpp"

namespace lfbst {
namespace {

using lincheck::checker;
using lincheck::history;
using lincheck::op_kind;
using lincheck::operation;

// --- checker unit tests on hand-built histories -----------------------------

TEST(LincheckChecker, EmptyHistoryIsLinearizable) {
  EXPECT_TRUE(checker::is_linearizable({}));
}

TEST(LincheckChecker, SequentialLegalHistory) {
  history h{
      {op_kind::insert, 1, true, 0, 1},
      {op_kind::contains, 1, true, 2, 3},
      {op_kind::erase, 1, true, 4, 5},
      {op_kind::contains, 1, false, 6, 7},
  };
  EXPECT_TRUE(checker::is_linearizable(h));
}

TEST(LincheckChecker, SequentialIllegalHistory) {
  // contains(1)=true before any insert completed or overlapped: illegal.
  history h{
      {op_kind::contains, 1, true, 0, 1},
      {op_kind::insert, 1, true, 2, 3},
  };
  EXPECT_FALSE(checker::is_linearizable(h));
}

TEST(LincheckChecker, OverlapAllowsEitherOrder) {
  // insert(1) and contains(1) overlap: result true and false are both
  // linearizable.
  for (bool seen : {true, false}) {
    history h{
        {op_kind::insert, 1, true, 0, 10},
        {op_kind::contains, 1, seen, 1, 9},
    };
    EXPECT_TRUE(checker::is_linearizable(h)) << seen;
  }
}

TEST(LincheckChecker, RealTimeOrderIsEnforced) {
  // insert(1) completed strictly before contains(1) began: the read must
  // see it.
  history h{
      {op_kind::insert, 1, true, 0, 1},
      {op_kind::contains, 1, false, 2, 3},
  };
  EXPECT_FALSE(checker::is_linearizable(h));
}

TEST(LincheckChecker, DoubleInsertBothTrueIsIllegal) {
  history h{
      {op_kind::insert, 5, true, 0, 10},
      {op_kind::insert, 5, true, 1, 9},
  };
  EXPECT_FALSE(checker::is_linearizable(h));
}

TEST(LincheckChecker, DoubleInsertOneFalseIsLegal) {
  history h{
      {op_kind::insert, 5, true, 0, 10},
      {op_kind::insert, 5, false, 1, 9},
  };
  EXPECT_TRUE(checker::is_linearizable(h));
}

TEST(LincheckChecker, DuelingErasesOnlyOneWins) {
  history good{
      {op_kind::insert, 3, true, 0, 1},
      {op_kind::erase, 3, true, 2, 10},
      {op_kind::erase, 3, false, 3, 9},
  };
  EXPECT_TRUE(checker::is_linearizable(good));
  history bad{
      {op_kind::insert, 3, true, 0, 1},
      {op_kind::erase, 3, true, 2, 10},
      {op_kind::erase, 3, true, 3, 9},
  };
  EXPECT_FALSE(checker::is_linearizable(bad));
}

TEST(LincheckChecker, InitialStateRespected) {
  history h{{op_kind::contains, 2, true, 0, 1}};
  EXPECT_FALSE(checker::is_linearizable(h));
  EXPECT_TRUE(checker::is_linearizable(h, /*initial_state=*/1u << 2));
}

TEST(LincheckChecker, InterleavedChainNeedsReordering) {
  // Legal only if ops linearize in a non-invocation order within their
  // overlap windows — exercises the search, not just the fast path.
  history h{
      {op_kind::insert, 1, true, 0, 20},    // A
      {op_kind::erase, 1, true, 1, 19},     // B (needs A first)
      {op_kind::contains, 1, false, 2, 18}, // C (after B or before A)
      {op_kind::insert, 1, true, 3, 17},    // D (after B)
      {op_kind::contains, 1, true, 4, 16},  // E (between A/B or after D)
  };
  EXPECT_TRUE(checker::is_linearizable(h));
}

TEST(LincheckChecker, LostUpdateIsCaught) {
  // Two sequential inserts of different keys, then reads that disagree
  // with both orders.
  history h{
      {op_kind::insert, 1, true, 0, 1},
      {op_kind::insert, 2, true, 2, 3},
      {op_kind::contains, 1, false, 4, 5},  // must be true: nothing erased
  };
  EXPECT_FALSE(checker::is_linearizable(h));
}

// --- recorded histories from the real trees ---------------------------------

template <typename Tree>
void run_recorded_histories(int rounds) {
  pcg32 seed_rng(987);
  for (int round = 0; round < rounds; ++round) {
    Tree tree;
    lincheck::recorder rec(tree);
    constexpr unsigned kThreads = 3;
    constexpr int kOpsPerThread = 6;  // 18 ops: fast to check exhaustively
    spin_barrier barrier(kThreads);
    std::vector<std::thread> threads;
    const std::uint64_t base_seed = seed_rng.next64();
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      threads.emplace_back([&, tid] {
        pcg32 rng = pcg32::for_thread(base_seed, tid);
        barrier.arrive_and_wait();
        for (int i = 0; i < kOpsPerThread; ++i) {
          const int key = static_cast<int>(rng.bounded(4));  // hot keys
          switch (rng.bounded(3)) {
            case 0:
              rec.insert(key);
              break;
            case 1:
              rec.erase(key);
              break;
            default:
              rec.contains(key);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    const history h = rec.take();
    ASSERT_TRUE(checker::is_linearizable(h))
        << Tree::algorithm_name << " produced a non-linearizable history "
        << "in round " << round << " (seed " << base_seed << ")";
  }
}

TEST(LincheckTrees, NmTreeHistoriesAreLinearizable) {
  run_recorded_histories<nm_tree<long>>(300);
}

TEST(LincheckTrees, NmTreeEpochHistoriesAreLinearizable) {
  run_recorded_histories<nm_tree<long, std::less<long>, reclaim::epoch>>(
      200);
}

TEST(LincheckTrees, EfrbTreeHistoriesAreLinearizable) {
  run_recorded_histories<efrb_tree<long>>(200);
}

TEST(LincheckTrees, HjTreeHistoriesAreLinearizable) {
  run_recorded_histories<hj_tree<long>>(200);
}

TEST(LincheckTrees, BccoTreeHistoriesAreLinearizable) {
  run_recorded_histories<bcco_tree<long>>(200);
}

TEST(LincheckTrees, CoarseTreeHistoriesAreLinearizable) {
  run_recorded_histories<coarse_tree<long>>(100);
}

TEST(LincheckTrees, KaryTreeHistoriesAreLinearizable) {
  // K = 2 leaves hold one key, so the hot-key soup drives SPROUT and
  // COALESCE on nearly every structural operation.
  run_recorded_histories<kary_tree<long, 2>>(200);
}

TEST(LincheckTrees, KaryTreeWideHistoriesAreLinearizable) {
  run_recorded_histories<kary_tree<long, 8>>(200);
}

}  // namespace
}  // namespace lfbst
