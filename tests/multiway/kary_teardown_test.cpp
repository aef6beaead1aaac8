// Teardown canaries for the multiway tree, the ones the
// destructor-ordering comment in multiway/kary_tree.hpp points at:
// trees destroyed with a non-empty retired backlog must free everything
// exactly once (UAF/double-free shows under ASAN, the PR 5
// epoch-teardown bug class).
#include "multiway/kary_tree.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "reclaim/epoch.hpp"

namespace lfbst {
namespace {

using epoch_tree = kary_tree<long, 8, std::less<long>, reclaim::epoch>;

// Destroy trees that still hold a non-empty retired backlog. The
// destructor must free the reachable tree AND drain the backlog while
// the node/info pools are still alive; freeing anything twice, or
// draining after pool destruction, is a UAF/double-free that ASAN
// catches here. The churn is sized so SPROUT and COALESCE both ran,
// leaving retired nodes *and* retired info records pending.
TEST(KaryTeardown, EpochDrainsPendingAtDestruction) {
  for (int round = 0; round < 20; ++round) {
    epoch_tree t;
    for (long k = 0; k < 500; ++k) t.insert(k);
    for (long k = 0; k < 500; k += 2) t.erase(k);
    if (round == 0) {
      // The canary is only meaningful if something is actually pending.
      EXPECT_GT(t.reclaimer_pending(), 0u);
    }
  }
  SUCCEED();
}

TEST(KaryTeardown, DestructionAfterMultithreadedChurn) {
  // The backlog holds retirements from every worker thread; the single
  // destroying thread must still free all of it exactly once.
  for (int round = 0; round < 5; ++round) {
    epoch_tree t;
    std::vector<std::thread> threads;
    for (unsigned tid = 0; tid < 4; ++tid) {
      threads.emplace_back([&t, tid] {
        pcg32 rng = pcg32::for_thread(91, tid);
        for (int i = 0; i < 10'000; ++i) {
          const long k = rng.bounded(256);
          if (rng.bounded(2) == 0) {
            t.insert(k);
          } else {
            t.erase(k);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  SUCCEED();
}

}  // namespace
}  // namespace lfbst
