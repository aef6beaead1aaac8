// lfbst — Fast Concurrent Lock-Free Binary Search Trees.
//
// Umbrella header: pulls in the paper's NM-BST (lfbst::nm_tree), the
// three baselines from the paper's evaluation (efrb_tree, hj_tree,
// bcco_tree), the coarse reference tree, and the policy types needed to
// configure them. Include individual headers instead if you only need
// one tree.
//
//   #include <lfbst/lfbst.hpp>
//   lfbst::nm_tree<long> set;
//   set.insert(42);
//   set.contains(42);
//   set.erase(42);
#pragma once

#include "common/backoff.hpp"
#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "common/spinlock.hpp"
#include "common/tagged_word.hpp"

#include "alloc/node_pool.hpp"

#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include "reclaim/epoch.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "reclaim/hazard_reclaimer.hpp"
#include "reclaim/leaky.hpp"

#include "core/concurrent_set.hpp"
#include "core/key_scramble.hpp"
#include "core/natarajan_tree.hpp"
#include "core/nm_map.hpp"
#include "core/restart_policy.hpp"
#include "core/sentinel_key.hpp"
#include "core/stats.hpp"

#include "multiway/kary_tree.hpp"

#include "shard/router.hpp"
#include "shard/sharded_set.hpp"

#include "baselines/bcco_tree.hpp"
#include "baselines/coarse_tree.hpp"
#include "baselines/efrb_tree.hpp"
#include "baselines/hj_tree.hpp"

namespace lfbst {

static_assert(ConcurrentSet<nm_tree<long>>);
static_assert(ConcurrentSet<efrb_tree<long>>);
static_assert(ConcurrentSet<hj_tree<long>>);
static_assert(ConcurrentSet<bcco_tree<long>>);
static_assert(ConcurrentSet<coarse_tree<long>>);
static_assert(ConcurrentSet<kary_tree<long, 4>>);
static_assert(ConcurrentSet<kary_tree<long>>);  // tuned default fanout
static_assert(ConcurrentSet<
              kary_tree<long, 8, std::less<long>, reclaim::epoch, stats::none,
                        atomics::native, restart::from_root>>);
static_assert(ConcurrentSet<shard::sharded_set<kary_tree<long, 8>>>);
static_assert(ConcurrentSet<nm_tree<long, std::less<long>, reclaim::hazard>>);
static_assert(ConcurrentSet<
              nm_tree<long, std::less<long>, reclaim::leaky, stats::none,
                      void, atomics::native, restart::from_root>>);
static_assert(ConcurrentSet<
              nm_tree<long, std::less<long>, reclaim::hazard, stats::none,
                      void, atomics::native, restart::from_anchor>>);
static_assert(ConcurrentSet<shard::sharded_set<nm_tree<long>>>);
static_assert(ConcurrentSet<shard::sharded_set<efrb_tree<long>>>);
static_assert(ConcurrentSet<shard::sharded_set<hj_tree<long>>>);
// The adversarial-shape mitigation layer (docs/RESILIENCE.md): the
// scramble adapter over a tree, and over the sharded front-end.
static_assert(ConcurrentSet<scrambled_set<nm_tree<long>>>);
static_assert(ConcurrentSet<scrambled_set<shard::sharded_set<nm_tree<long>>>>);

}  // namespace lfbst
