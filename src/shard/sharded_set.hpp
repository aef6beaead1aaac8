// lfbst shard: range-partitioned sharded front-end over any of the
// repo's concurrent sets — the first layer that scales the
// reproduction *out* instead of just measuring it.
//
// Motivation: however few CASes the NM-BST needs per operation, a
// single instance ultimately bottlenecks on cache-line contention
// around the root-adjacent nodes (every seek starts there). A
// sharded_set splits the key domain into S contiguous ranges (S a
// power of two) and gives each range its own independent tree — its
// own reclaimer domain, its own node pools, its own obs metrics
// registry — so contention divides by S while every single-key
// operation stays exactly as linearizable as the underlying tree: a
// key maps to one shard for the set's whole lifetime, and that shard
// *is* the linearization authority for the key.
//
// Composition: the inner tree is a template parameter, so the front-end
// wraps NM-BST, EFRB, HJ (or any ConcurrentSet with an integral
// key_type) with whatever Reclaimer/Stats/Atomics policies the tree was
// built with — including dsched::sched_atomics, which lets the
// deterministic scheduler explore interleavings *through* the shard
// layer (tests/shard/sharded_dsched_test.cpp). The shard layer itself
// has no atomics: the router is immutable, so routing is a plain table
// load and every schedule point is a step of an inner tree.
//
// Batched operations (insert_batch / erase_batch / contains_batch)
// take a vector of keys and apply them in input order, each routed to
// its shard. Results come back in input order. A batch is NOT
// atomic: each element is its own linearizable operation whose
// linearization point lies somewhere inside the batch call (the
// per-element guarantee the lincheck and dsched suites pin down).
// Elements targeting the same shard apply in input order.
//
// range_scan(lo, hi) / range_scan_closed(lo, hi) walk the shards that
// intersect the interval in splitter order and stitch their ordered
// scans into one sorted sequence. When the inner tree provides a
// concurrent scan (nm_tree::range_scan), each per-shard scan runs
// *while writers run* — no quiescence anywhere; the stitched result
// carries the per-shard conservative-interval contract (every key
// present in the whole call's interval appears, every key absent
// throughout does not — see docs/SHARDING.md for the cross-shard
// story). Inner trees without a concurrent scan (EFRB/HJ baselines)
// fall back to their quiescent for_each_slow, restoring the old
// visited-shards-must-be-quiescent precondition for them only.
//
// The partition is fixed at construction. A skewed key stream makes
// one shard a busy tree, which is still lock-free and served by every
// thread, so moving splitters at run time relieves nothing (DESIGN.md
// §8.3 records the measurement behind that).
//
// Metrics: when the inner tree records per-instance metrics
// (obs::recording), merged_counters() / merged_latency_histogram() /
// merged_seek_depth_histogram() fold the S registries with the obs
// merge algebra (counter-wise and bucket-wise addition), so the sharded
// instance reports one attribution exactly like a single tree does.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cacheline.hpp"
#include "core/concurrent_set.hpp"
#include "core/stats.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "shard/router.hpp"

namespace lfbst::shard {

/// Trees whose Stats policy is the per-instance recording registry —
/// only those can offer merged metrics across shards.
template <typename Tree>
concept recording_stats_tree =
    std::is_same_v<typename Tree::stats_policy, obs::recording>;

/// The range router routes and stitches in *numeric* key order
/// (raw `<` over the integral key — router.hpp), silently assuming
/// the per-shard tree agrees. A tree ordered by a non-default
/// Compare (std::greater, ...) would accept every routed key but
/// break validate()'s placement check and interleave
/// stitched scans — quiet corruption, so sharded_set rejects the
/// combination at compile time. Trees that do not export key_compare
/// predate the check and are presumed numeric-ordered.
template <typename Tree>
struct router_order_compatible : std::true_type {};

template <typename Tree>
  requires requires { typename Tree::key_compare; }
struct router_order_compatible<Tree>
    : std::bool_constant<std::is_same_v<typename Tree::key_compare,
                                        std::less<typename Tree::key_type>>> {
};

template <typename Tree>
inline constexpr bool router_order_compatible_v =
    router_order_compatible<Tree>::value;

template <typename Tree,
          typename Router = range_router<typename Tree::key_type>>
class sharded_set {
 public:
  using key_type = typename Tree::key_type;
  using tree_type = Tree;
  using router_type = Router;

  static_assert(router_order_compatible_v<Tree>,
                "sharded_set's range router partitions and stitches in "
                "numeric key order, but this tree orders its keys with a "
                "non-default Compare — every key would land in a shard "
                "chosen by an order the tree does not use (mis-sharding). "
                "Apply key transforms ABOVE the router instead: "
                "scrambled_set<sharded_set<T>> (src/core/key_scramble.hpp).");

  static constexpr const char* algorithm_name = "Sharded";
  static constexpr std::size_t default_shard_count = 8;

  /// Default: 8 shards split evenly over the key type's whole domain.
  sharded_set() : sharded_set(Router(default_shard_count)) {}

  /// shard_count shards split evenly over [lo, hi) (power of two).
  sharded_set(std::size_t shard_count, key_type lo, key_type hi)
      : sharded_set(Router(shard_count, lo, hi)) {}

  explicit sharded_set(Router router) : router_(std::move(router)) {
    const std::size_t count = router_.shard_count();
    shards_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      shards_.push_back(std::make_unique<slot>());
    }
  }

  sharded_set(const sharded_set&) = delete;
  sharded_set& operator=(const sharded_set&) = delete;

  // --- single-key operations: route once, delegate -------------------

  [[nodiscard]] bool contains(const key_type& key) const {
    return shard_for(key).contains(key);
  }

  bool insert(const key_type& key) { return shard_for(key).insert(key); }

  bool erase(const key_type& key) { return shard_for(key).erase(key); }

  // --- batched operations -------------------------------------------
  // Keys apply in input order, each routed on its own, and only the
  // results vector is allocated: results[i] is what op(keys[i]) would
  // have returned. Keys are not grouped by shard first: on the
  // server's runs of a few keys a counting sort cost more than it saved
  // (docs/PERF.md §9).

  [[nodiscard]] std::vector<bool> contains_batch(
      const std::vector<key_type>& keys) const {
    return batch_apply(keys,
                       [this](const key_type& k) { return contains(k); });
  }

  std::vector<bool> insert_batch(const std::vector<key_type>& keys) {
    return batch_apply(keys, [this](const key_type& k) { return insert(k); });
  }

  std::vector<bool> erase_batch(const std::vector<key_type>& keys) {
    return batch_apply(keys, [this](const key_type& k) { return erase(k); });
  }

  // --- cross-shard ordered scan --------------------------------------

  /// All keys in the half-open interval [lo, hi), sorted. Visits only
  /// the shards whose range intersects [lo, hi), in splitter order
  /// (== key order). Runs concurrently with writers when the inner
  /// tree has a concurrent scan; each key behaves like an individual
  /// contains() linearized inside the call, so every key present for
  /// the whole call appears and every key absent throughout does not.
  /// Note [lo, hi) cannot name the key domain's maximum value — use
  /// range_scan_closed to reach it.
  [[nodiscard]] std::vector<key_type> range_scan(const key_type& lo,
                                                 const key_type& hi) const {
    std::vector<key_type> out;
    if (!(lo < hi)) return out;
    // lo < hi makes hi - 1 safe: it cannot underflow past lo.
    scan_impl(lo, hi, /*closed=*/false, out);
    return out;
  }

  /// All keys in the closed interval [lo, hi], sorted — the form that
  /// can return the key domain's maximum (the half-open bound above
  /// stops one short of it by construction). Same concurrency contract
  /// as range_scan.
  [[nodiscard]] std::vector<key_type> range_scan_closed(
      const key_type& lo, const key_type& hi) const {
    std::vector<key_type> out;
    if (hi < lo) return out;
    scan_impl(lo, hi, /*closed=*/true, out);
    return out;
  }

  /// One page of a bounded scan plus how to get the next one. When
  /// truncated, resume_key is the smallest key the page did NOT cover:
  /// range_scan_limit(resume_key, hi, n) continues exactly where this
  /// page stopped, with no key skipped or repeated across pages.
  /// `truncated` is conservative — a full page reports truncated even
  /// when the range happened to end at the boundary; the follow-up call
  /// then returns an empty, non-truncated page.
  struct scan_page {
    std::vector<key_type> keys;
    bool truncated = false;
    key_type resume_key{};
  };

  /// Bounded form of range_scan: the up-to-max_items smallest keys of
  /// [lo, hi), sorted, same conservative-interval contract. One scan of
  /// a huge subrange costs O(max_items) instead of O(range) — the form
  /// the network server pages responses with so a big scan cannot
  /// head-of-line-block a connection.
  [[nodiscard]] scan_page range_scan_limit(const key_type& lo,
                                           const key_type& hi,
                                           std::size_t max_items) const {
    scan_page page;
    if (!(lo < hi)) return page;
    if (max_items == 0) {  // zero budget: pure continuation marker
      page.truncated = true;
      page.resume_key = lo;
      return page;
    }
    scan_impl(lo, hi, /*closed=*/false, page.keys, max_items);
    // A full page holds the smallest `max_items` keys seen; whether more
    // remain is unknown without scanning on, so report truncated and
    // resume just above the last emitted key — unless that key is
    // hi - 1, where [resume, hi) would be empty by construction (this
    // also keeps resume_key + 1 from overflowing at the key domain's
    // maximum).
    if (page.keys.size() == max_items &&
        page.keys.back() < static_cast<key_type>(hi - 1)) {
      page.truncated = true;
      page.resume_key = static_cast<key_type>(page.keys.back() + 1);
    }
    return page;
  }

  // --- quiescent observers -------------------------------------------

  [[nodiscard]] std::size_t size_slow() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->tree.size_slow();
    return n;
  }

  [[nodiscard]] bool empty_slow() const { return size_slow() == 0; }

  /// In-order traversal across all shards (splitter order == key order).
  template <typename F>
  void for_each_slow(F&& fn) const {
    for (const auto& s : shards_) s->tree.for_each_slow(fn);
  }

  /// Every shard's own structural validator, plus the shard layer's
  /// placement invariant: each key lives in the shard the router maps
  /// it to. Empty string when healthy. Quiescent (no concurrent
  /// writers).
  [[nodiscard]] std::string validate() const {
    std::string err;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const std::string inner = shards_[i]->tree.validate();
      if (!inner.empty()) {
        err += "shard " + std::to_string(i) + ": " + inner;
      }
      std::size_t misplaced = 0;
      shards_[i]->tree.for_each_slow([&](const key_type& k) {
        if (router_.shard_of(k) != i) ++misplaced;
      });
      if (misplaced != 0) {
        err += "shard " + std::to_string(i) + ": " +
               std::to_string(misplaced) + " keys routed elsewhere; ";
      }
    }
    return err;
  }

  // --- structure access ----------------------------------------------

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const Router& router() const noexcept { return router_; }
  [[nodiscard]] Tree& shard(std::size_t i) noexcept {
    return shards_[i]->tree;
  }
  [[nodiscard]] const Tree& shard(std::size_t i) const noexcept {
    return shards_[i]->tree;
  }

  // --- merged metrics (obs::recording inner trees only) ---------------
  // The S per-shard registries fold with the obs merge algebra into the
  // same shapes a single instrumented tree reports.

  /// Counter-wise sum of every shard's metrics snapshot.
  [[nodiscard]] obs::metrics_snapshot merged_counters() const
    requires recording_stats_tree<Tree>
  {
    obs::metrics_snapshot merged;
    for (const auto& s : shards_) {
      merged.merge(s->tree.stats().counters().snapshot());
    }
    return merged;
  }

  /// One shard's counter snapshot, unmerged — the per-shard view the
  /// telemetry sampler turns into load-share/imbalance gauges.
  [[nodiscard]] obs::metrics_snapshot shard_counters(std::size_t i) const
    requires recording_stats_tree<Tree>
  {
    return shards_[i]->tree.stats().counters().snapshot();
  }

  /// Visits every shard's recording stats instance in shard order —
  /// the attachment hook for cross-shard sinks (one trace_log /
  /// key_heatmap shared by all shards).
  template <typename F>
  void for_each_shard_stats(F&& fn) const
    requires recording_stats_tree<Tree>
  {
    for (const auto& s : shards_) fn(s->tree.stats());
  }

  /// Bucket-wise merge of every shard's latency histogram for `kind`.
  /// Safe concurrently with writers (racy-monotone, obs/histogram.hpp);
  /// exact at quiescence.
  [[nodiscard]] obs::histogram merged_latency_histogram(
      stats::op_kind kind) const
    requires recording_stats_tree<Tree>
  {
    obs::histogram merged;
    for (const auto& s : shards_) {
      merged.merge(s->tree.stats().latency_histogram(kind));
    }
    return merged;
  }

  /// Bucket-wise merge of every shard's seek-depth histogram. Depths
  /// are per-shard (each shard is its own, shallower tree); the merged
  /// distribution is what the whole front-end makes a seek traverse.
  [[nodiscard]] obs::histogram merged_seek_depth_histogram() const
    requires recording_stats_tree<Tree>
  {
    obs::histogram merged;
    for (const auto& s : shards_) {
      merged.merge(s->tree.stats().seek_depth_histogram());
    }
    return merged;
  }

 private:
  /// One shard: the tree on its own cache lines so adjacent shards'
  /// hot members (head pointers, stats) never share a line.
  struct alignas(cacheline_size) slot {
    Tree tree;
  };

  [[nodiscard]] Tree& shard_for(const key_type& k) noexcept {
    return shards_[router_.shard_of(k)]->tree;
  }
  [[nodiscard]] const Tree& shard_for(const key_type& k) const noexcept {
    return shards_[router_.shard_of(k)]->tree;
  }

  /// Shared body of range_scan / range_scan_closed / range_scan_limit:
  /// appends to the empty `out` the up-to-`max_items` smallest keys of
  /// the interval, sorted. `hi` is the upper bound in the caller's
  /// convention (exclusive unless closed). The shards hold disjoint
  /// ascending ranges, so the walk stops at the shard that fills the
  /// budget.
  void scan_impl(const key_type& lo, const key_type& hi, bool closed,
                 std::vector<key_type>& out,
                 std::size_t max_items =
                     std::numeric_limits<std::size_t>::max()) const {
    const key_type hi_incl = closed ? hi : static_cast<key_type>(hi - 1);
    const std::size_t last = router_.shard_of(hi_incl);
    for (std::size_t s = router_.shard_of(lo);
         s <= last && out.size() < max_items; ++s) {
      scan_shard(shards_[s]->tree, lo, hi, closed, max_items - out.size(),
                 out);
    }
  }

  /// Per-shard scan: up to `budget` (> 0) of the smallest keys of the
  /// interval, appended to `out` through the inner tree's concurrent
  /// visitor entry when it has one, else its quiescent in-order walk
  /// (which keeps EFRB/HJ/BCCO compositions compiling, at the price of
  /// their old quiescence precondition). The bounds are passed through
  /// unchanged — the tree filters inherently, and a shard never holds
  /// keys outside its router range, so no double filtering happens.
  static void scan_shard(const Tree& tree, const key_type& lo,
                         const key_type& hi, bool closed, std::size_t budget,
                         std::vector<key_type>& out) {
    const auto take = [&](const key_type& k) {
      out.push_back(k);
      return --budget != 0;
    };
    if constexpr (requires { tree.scan_until(&lo, &hi, closed, take); }) {
      tree.scan_until(&lo, &hi, closed, take);
    } else {
      tree.for_each_slow([&](const key_type& k) {
        if (budget == 0 || k < lo || (closed ? hi < k : !(k < hi))) return;
        take(k);
      });
    }
  }

  /// Shared batch engine: results[i] = op(keys[i]), in input order.
  template <typename Op>
  static std::vector<bool> batch_apply(const std::vector<key_type>& keys,
                                       Op&& op) {
    std::vector<bool> results(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) results[i] = op(keys[i]);
    return results;
  }

  const Router router_;
  std::vector<std::unique_ptr<slot>> shards_;
};

}  // namespace lfbst::shard
