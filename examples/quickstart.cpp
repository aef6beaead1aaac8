// Quickstart: the 60-second tour of the public API.
//
//   $ ./quickstart
//
// Shows: constructing trees, the three concurrent operations, policy
// selection (reclaimer / tagging), and safe quiescent iteration.
#include <cstdio>
#include <thread>
#include <vector>

#include "lfbst/lfbst.hpp"

int main() {
  // The paper's algorithm with default policies: leaky reclamation (the
  // regime every number in the paper is measured under) and BTS tagging.
  lfbst::nm_tree<long> set;

  // The three concurrent operations. All are linearizable and safe to
  // call from any number of threads without external synchronization.
  set.insert(42);                  // -> true (key added)
  set.insert(42);                  // -> false (duplicate)
  const bool hit = set.contains(42);  // -> true
  set.erase(42);                   // -> true (key removed)
  std::printf("contains(42) while present: %s\n", hit ? "yes" : "no");

  // Concurrent use: four threads build disjoint ranges simultaneously.
  std::vector<std::thread> workers;
  for (int tid = 0; tid < 4; ++tid) {
    workers.emplace_back([&set, tid] {
      for (long k = tid * 1000; k < (tid + 1) * 1000; ++k) set.insert(k);
    });
  }
  for (auto& w : workers) w.join();
  std::printf("4 threads inserted %zu keys\n", set.size_slow());

  // Quiescent iteration (no concurrent operations running): in order.
  long first = -1, last = -1, count = 0;
  set.for_each_slow([&](long k) {
    if (count++ == 0) first = k;
    last = k;
  });
  std::printf("keys span [%ld, %ld]\n", first, last);

  // Production memory policy: epoch-based reclamation frees removed
  // nodes after a grace period instead of holding them until the tree
  // is destroyed. Same API.
  lfbst::nm_tree<long, std::less<long>, lfbst::reclaim::epoch> recycling;
  for (long k = 0; k < 10'000; ++k) recycling.insert(k);
  for (long k = 0; k < 10'000; ++k) recycling.erase(k);
  std::printf("epoch tree after churn: %zu keys, %zu retirements pending\n",
              recycling.size_slow(), recycling.reclaimer_pending());

  // The paper's tree and the three baselines it compares against share
  // one interface.
  lfbst::nm_tree<long> nm;
  lfbst::efrb_tree<long> efrb;
  lfbst::hj_tree<long> hj;
  lfbst::bcco_tree<long> bcco;
  for (auto k : {3L, 1L, 2L}) {
    nm.insert(k);
    efrb.insert(k);
    hj.insert(k);
    bcco.insert(k);
  }
  std::printf("all four algorithms agree: %d %d %d %d\n", nm.contains(2),
              efrb.contains(2), hj.contains(2), bcco.contains(2));

  // Structural self-check (used heavily by the test suite).
  std::printf("validate(): \"%s\" (empty string = healthy)\n",
              set.validate().c_str());
  return 0;
}
