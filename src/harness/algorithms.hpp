// lfbst: the algorithm roster — one place that knows every tree in the
// comparison, so benches and tests sweep all of them from a single
// template loop.
#pragma once

#include <utility>

#include "baselines/bcco_tree.hpp"
#include "baselines/coarse_tree.hpp"
#include "baselines/efrb_tree.hpp"
#include "baselines/hj_tree.hpp"
#include "core/natarajan_tree.hpp"
#include "multiway/kary_tree.hpp"
#include "shard/sharded_set.hpp"

namespace lfbst::harness {

/// Invokes `fn.template operator()<Tree>()` for each of the paper's four
/// algorithms (NM, EFRB, HJ, BCCO), in the order the paper lists them.
template <typename Key, typename F>
void for_each_paper_algorithm(F&& fn) {
  fn.template operator()<nm_tree<Key>>();
  fn.template operator()<efrb_tree<Key>>();
  fn.template operator()<hj_tree<Key>>();
  fn.template operator()<bcco_tree<Key>>();
}

/// The paper's roster plus the cache-conscious multiway tree
/// (docs/MULTIWAY.md, tuned default fanout for the key width) and the
/// coarse-lock sanity floor.
template <typename Key, typename F>
void for_each_algorithm(F&& fn) {
  for_each_paper_algorithm<Key>(std::forward<F>(fn));
  fn.template operator()<kary_tree<Key>>();
  fn.template operator()<coarse_tree<Key>>();
}

/// The sharded compositions (src/shard/): the three lock-free trees of
/// the paper's evaluation behind the range-partitioned front-end.
/// sharded_set has no default shard geometry for benchmarking, so `fn`
/// receives the type and constructs instances itself (typically
/// `Set set(shards, 0, key_range);`).
template <typename Key, typename F>
void for_each_sharded_algorithm(F&& fn) {
  fn.template operator()<shard::sharded_set<nm_tree<Key>>>();
  fn.template operator()<shard::sharded_set<efrb_tree<Key>>>();
  fn.template operator()<shard::sharded_set<hj_tree<Key>>>();
  fn.template operator()<shard::sharded_set<kary_tree<Key>>>();
}

}  // namespace lfbst::harness
