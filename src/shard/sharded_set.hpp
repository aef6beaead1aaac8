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
// key maps to one logical shard at every linearization point, and that
// shard *is* the linearization authority for the key.
//
// Composition: the inner tree is a template parameter, so the front-end
// wraps NM-BST, EFRB, HJ (or any ConcurrentSet with an integral
// key_type) with whatever Reclaimer/Stats/Atomics policies the tree was
// built with — including dsched::sched_atomics, which lets the
// deterministic scheduler explore interleavings *through* the shard
// layer (tests/shard/sharded_dsched_test.cpp). The shard layer's own
// atomics reuse the tree's policy (tree_atomics below), so migrations
// are schedulable too.
//
// Batched operations (insert_batch / erase_batch / contains_batch)
// take a vector of keys and apply them in input order, each routed to
// its shard, under one op-gate entry and one partition snapshot for the
// whole batch. Results come back in input order. A batch is NOT
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
// Online subrange migration (docs/SHARDING.md has the full protocol):
// migrate_splitter(boundary, key) moves one router boundary while
// readers and writers keep running. Every operation enters an op gate
// and loads one immutable partition snapshot through one atomic
// pointer: the router plus, while a migration runs, its record. The
// record opens a brief dual-routing window for the moving subrange:
// covered writers take a striped per-key lock and consult both the
// donor and the recipient tree, covered reads stay lock-free by
// reading donor-then-recipient in the order that matches the drain's
// insert-before-erase move. Two generation-parity quiescence waits
// (an asymmetric op gate: striped counters on the op side, one
// generation flip + drain wait on the migration side) fence the window
// so that every operation either sees a stable partition or sees the
// record; no operation ever blocks on the gate itself. Operations that
// entered before the first wait route solo, and covered dual-path
// inserts wait for that first wait to end, so no key gains a copy in
// both trees. The drain moves keys with the concurrent bounded
// range_scan, one striped lock per key, so a key is in exactly one
// logical shard at every linearization point throughout.
//
// Metrics: when the inner tree records per-instance metrics
// (obs::recording), merged_counters() / merged_latency_histogram() /
// merged_seek_depth_histogram() fold the S registries with the obs
// merge algebra (counter-wise and bucket-wise addition), so the sharded
// instance reports one attribution exactly like a single tree does.
// The shard layer's own counters (migrations, keys_migrated,
// dual_route_window_ns) fold in through add_layer_counters().
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/atomics_policy.hpp"
#include "common/cacheline.hpp"
#include "common/thread_id.hpp"
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

/// Trees with a concurrent bounded ordered scan — the drain primitive
/// online migration is built from.
template <typename Tree>
concept migratable_tree = requires(const Tree& t, typename Tree::key_type k) {
  {
    t.range_scan(k, k, std::size_t{1})
  } -> std::convertible_to<std::vector<typename Tree::key_type>>;
};

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

namespace detail {

/// The inner tree's atomics policy when it exports one (so the shard
/// layer's spin loops become dsched schedule points under
/// sched_atomics compositions); atomics::native otherwise.
template <typename Tree>
struct tree_atomics {
  using type = atomics::native;
};

template <typename Tree>
  requires requires { typename Tree::atomics_policy; }
struct tree_atomics<Tree> {
  using type = typename Tree::atomics_policy;
};

}  // namespace detail

template <typename Tree,
          typename Router = range_router<typename Tree::key_type>>
class sharded_set {
 public:
  using key_type = typename Tree::key_type;
  using tree_type = Tree;
  using router_type = Router;
  using atomics_policy = typename detail::tree_atomics<Tree>::type;

  static_assert(router_order_compatible_v<Tree>,
                "sharded_set's range router partitions and stitches in "
                "numeric key order, but this tree orders its keys with a "
                "non-default Compare — every key would land in a shard "
                "chosen by an order the tree does not use (mis-sharding). "
                "Apply key transforms ABOVE the router instead: "
                "scrambled_set<sharded_set<T>> (src/core/key_scramble.hpp).");

  static constexpr const char* algorithm_name = "Sharded";
  static constexpr std::size_t default_shard_count = 8;

  /// A live migration's shape: the subrange [lo, hi) currently being
  /// moved from shard `src` into adjacent shard `dst`.
  struct migration {
    key_type lo{};
    key_type hi{};
    std::size_t src = 0;
    std::size_t dst = 0;
    // Gate generation from which operations take the dual path: the one
    // the record's first quiescence flips to (see routing).
    std::uint64_t gen = 0;

    [[nodiscard]] bool covers(const key_type& k) const noexcept {
      return !(k < lo) && k < hi;
    }
  };

  /// Default: 8 shards split evenly over the key type's whole domain.
  sharded_set() : sharded_set(Router(default_shard_count)) {}

  /// shard_count shards split evenly over [lo, hi) (power of two).
  sharded_set(std::size_t shard_count, key_type lo, key_type hi)
      : sharded_set(Router(shard_count, lo, hi)) {}

  explicit sharded_set(Router router) {
    const std::size_t count = router.shard_count();
    shards_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      shards_.push_back(std::make_unique<slot>());
    }
    publish(partition{std::move(router), std::nullopt});
  }

  sharded_set(const sharded_set&) = delete;
  sharded_set& operator=(const sharded_set&) = delete;

  // --- single-key operations: enter the gate, route once, delegate ---

  [[nodiscard]] bool contains(const key_type& key) const {
    op_gate_guard gate(*this);
    return contains_routed(routing(gate), key);
  }

  bool insert(const key_type& key) {
    op_gate_guard gate(*this);
    return insert_routed(routing(gate), key);
  }

  bool erase(const key_type& key) {
    op_gate_guard gate(*this);
    return erase_routed(routing(gate), key);
  }

  // --- batched operations -------------------------------------------
  // Keys apply in input order, each routed on its own, and only the
  // results vector is allocated: results[i] is what op(keys[i]) would
  // have returned. The whole batch runs under one gate entry and one
  // partition snapshot: the gate blocks a migration's quiescence waits
  // while the batch is inside, so the snapshot stays valid for every
  // element. Keys are not grouped by shard first: on the
  // server's runs of a few keys a counting sort cost more than it saved
  // (docs/PERF.md §9).

  [[nodiscard]] std::vector<bool> contains_batch(
      const std::vector<key_type>& keys) const {
    return batch_apply(*this, keys,
                       [](const sharded_set& self, const route& r,
                          const key_type& k) {
                         return self.contains_routed(r, k);
                       });
  }

  std::vector<bool> insert_batch(const std::vector<key_type>& keys) {
    return batch_apply(*this, keys,
                       [](sharded_set& self, const route& r,
                          const key_type& k) {
                         return self.insert_routed(r, k);
                       });
  }

  std::vector<bool> erase_batch(const std::vector<key_type>& keys) {
    return batch_apply(*this, keys,
                       [](sharded_set& self, const route& r,
                          const key_type& k) {
                         return self.erase_routed(r, k);
                       });
  }

  // --- cross-shard ordered scan --------------------------------------

  /// All keys in the half-open interval [lo, hi), sorted. Visits only
  /// the shards whose range intersects [lo, hi), in splitter order
  /// (== key order). Runs concurrently with writers when the inner
  /// tree has a concurrent scan; each key behaves like an individual
  /// contains() linearized inside the call, so every key present for
  /// the whole call appears and every key absent throughout does not —
  /// including across a concurrent subrange migration (scan_impl
  /// widens the shard window to the migration's donor/recipient and
  /// deduplicates keys caught mid-move).
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
  /// head-of-line-block a connection. During a migration the page costs
  /// O(max_items) per visited shard before trimming.
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

  // --- online subrange migration -------------------------------------

  /// Moves router boundary `boundary` (1 <= boundary < shard_count) to
  /// `new_splitter` while readers and writers keep running, migrating
  /// the keys of the subrange that changed hands between the two
  /// adjacent shards. The splitter is quantized to the router's bucket
  /// grid; a request that quantizes onto an existing boundary (or out
  /// of the boundary's legal interval) is a no-op. Returns the number
  /// of keys migrated. Safe to call from any thread; concurrent
  /// migrations serialize.
  std::size_t migrate_splitter(std::size_t boundary, key_type new_splitter)
    requires migratable_tree<Tree>
  {
    std::lock_guard<std::mutex> serialize(migrate_mutex_);
    const Router& cur = live().router;
    const std::size_t count = cur.shard_count();
    LFBST_ASSERT(boundary >= 1 && boundary < count,
                 "migrate_splitter boundary out of range");
    const key_type q = cur.quantize_down(new_splitter);
    const key_type old_splitter = cur.splitter(boundary);
    if (q == old_splitter) return 0;
    if (!(cur.splitter(boundary - 1) < q)) return 0;
    if (boundary + 1 < count && !(q < cur.splitter(boundary + 1))) return 0;

    // Operations entering after the first quiescence flip take the dual
    // path (gate_gen_ moves only in quiesce_gate, which migrate_mutex_
    // serializes).
    const std::uint64_t gen = gate_gen_.load(std::memory_order_seq_cst) + 1;
    // The subrange changing hands and its direction. Lowering the
    // splitter grows shard `boundary` downward (donor is the left
    // neighbor); raising it shrinks shard `boundary` (donor).
    migration m;
    if (q < old_splitter) {
      m = migration{q, old_splitter, boundary - 1, boundary, gen};
    } else {
      m = migration{old_splitter, q, boundary, boundary - 1, gen};
    }

    const auto t0 = std::chrono::steady_clock::now();
    // 1. Publish the record beside the old router. 2. Quiesce: every
    // operation still running after this entered the gate after the
    // record was visible, so it routes the subrange through the dual
    // path. Only now is it safe to change where the router sends covered
    // keys, and to let dual-path inserts, which waited for the solo
    // operations, proceed.
    publish(partition{cur, m});
    quiesce_gate();
    mig_ready_gen_.store(m.gen, std::memory_order_seq_cst);
    // 3. Flip the partition: the new router under the same record.
    publish(partition{cur.with_splitter(boundary, q), m});
    // 4. Drain: move the subrange's keys donor -> recipient, one
    // striped per-key lock at a time, insert-before-erase so lock-free
    // readers never miss a moving key.
    const std::size_t moved = drain(m);
    // 5. Quiesce again: operations that predate the router flip (and
    // could still route covered keys to the donor solo) are gone, and
    // so is every operation that loaded a snapshot superseded before
    // this flip, so those are freed. The live snapshot stays, since an
    // operation that entered after the flip may still hold it; the next
    // migration's second quiesce frees it. 6. Close the dual-routing
    // window.
    quiesce_gate();
    partitions_.erase(partitions_.begin(), partitions_.end() - 1);
    publish(partition{partitions_.back()->router, std::nullopt});
    const auto t1 = std::chrono::steady_clock::now();
    migrations_.fetch_add(1, std::memory_order_relaxed);
    keys_migrated_.fetch_add(moved, std::memory_order_relaxed);
    dual_route_window_ns_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()),
        std::memory_order_relaxed);
    return moved;
  }

  /// Shard-layer counters (monotone, racy-read-safe).
  [[nodiscard]] std::uint64_t migration_count() const noexcept {
    return migrations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t keys_migrated() const noexcept {
    return keys_migrated_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dual_route_window_ns() const noexcept {
    return dual_route_window_ns_.load(std::memory_order_relaxed);
  }

  /// Folds the shard layer's own counters into `snap` — the hook
  /// merged_counters, the telemetry sampler and the server's stat
  /// handler use so migration activity flows through every exposition
  /// surface (JSON, Prometheus, the stat opcode) like tree counters.
  void add_layer_counters(obs::metrics_snapshot& snap) const noexcept {
    snap.values[static_cast<std::size_t>(obs::counter::migrations)] +=
        migration_count();
    snap.values[static_cast<std::size_t>(obs::counter::keys_migrated)] +=
        keys_migrated();
    snap.values[static_cast<std::size_t>(
        obs::counter::dual_route_window_ns)] += dual_route_window_ns();
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
  /// placement invariant: each key lives in the shard the live router
  /// maps it to. Empty string when healthy. Quiescent (no concurrent
  /// writers or migrations).
  [[nodiscard]] std::string validate() const {
    std::string err;
    const Router& r = live().router;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const std::string inner = shards_[i]->tree.validate();
      if (!inner.empty()) {
        err += "shard " + std::to_string(i) + ": " + inner;
      }
      std::size_t misplaced = 0;
      shards_[i]->tree.for_each_slow([&](const key_type& k) {
        if (r.shard_of(k) != i) ++misplaced;
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
  /// The live router version. Its snapshot is freed by the second
  /// quiesce of the next migration, so the reference stays valid until
  /// that migration completes; external callers should treat it as a
  /// point-in-time view.
  [[nodiscard]] const Router& router() const noexcept {
    return live().router;
  }
  [[nodiscard]] Tree& shard(std::size_t i) noexcept {
    return shards_[i]->tree;
  }
  [[nodiscard]] const Tree& shard(std::size_t i) const noexcept {
    return shards_[i]->tree;
  }

  // --- merged metrics (obs::recording inner trees only) ---------------
  // The S per-shard registries fold with the obs merge algebra into the
  // same shapes a single instrumented tree reports.

  /// Counter-wise sum of every shard's metrics snapshot, plus the shard
  /// layer's own counters.
  [[nodiscard]] obs::metrics_snapshot merged_counters() const
    requires recording_stats_tree<Tree>
  {
    obs::metrics_snapshot merged;
    for (const auto& s : shards_) {
      merged.merge(s->tree.stats().counters().snapshot());
    }
    add_layer_counters(merged);
    return merged;
  }

  /// One shard's counter snapshot, unmerged — the per-shard view the
  /// telemetry sampler turns into load-share/imbalance gauges and the
  /// rebalancer turns into migration decisions.
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

  /// What operations route by: an immutable router and, while a
  /// migration runs, its record, published together through part_ so
  /// one load gives an operation both.
  struct partition {
    Router router;
    std::optional<migration> mig;
  };

  /// An operation's routing: its snapshot's router, and the record when
  /// the operation takes the dual path (nullptr: route solo).
  struct route {
    const Router& router;
    const migration* rec;
  };

  [[nodiscard]] const partition& live() const noexcept {
    return *part_.load(std::memory_order_seq_cst);
  }

  /// Makes `next` the live partition. Superseded snapshots stay in
  /// partitions_ until a migration's second quiesce frees them.
  void publish(partition next) {
    partitions_.push_back(std::make_unique<const partition>(std::move(next)));
    part_.store(partitions_.back().get(), std::memory_order_seq_cst);
  }

  // --- the op gate ----------------------------------------------------
  // Asymmetric generation-parity quiescence. Operations enter by
  // incrementing one striped counter under the current generation's
  // parity and re-checking the generation (retry on a flip); the
  // migration worker flips the generation and waits for the old
  // parity's counters to drain. seq_cst on the entry path and the flip
  // gives the key ordering property: an operation that enters after a
  // flip also sees every store the worker published before the flip
  // (the next partition snapshot).

  static constexpr std::size_t gate_stripe_count = 16;

  struct alignas(cacheline_size) gate_stripe {
    std::atomic<std::uint32_t> entries[2] = {};
  };

  class op_gate_guard {
   public:
    explicit op_gate_guard(const sharded_set& set) {
      gate_stripe& stripe =
          set.gates_[this_thread_index() % gate_stripe_count];
      for (;;) {
        atomics_policy::shared_step();
        const std::uint64_t g = set.gate_gen_.load(std::memory_order_seq_cst);
        std::atomic<std::uint32_t>& slot = stripe.entries[g & 1];
        slot.fetch_add(1, std::memory_order_seq_cst);
        if (set.gate_gen_.load(std::memory_order_seq_cst) == g) {
          slot_ = &slot;
          gen_ = g;
          return;
        }
        // Raced a generation flip: the quiescer may already have read
        // this parity as drained. Undo and re-enter under the new
        // generation.
        slot.fetch_sub(1, std::memory_order_seq_cst);
      }
    }
    ~op_gate_guard() { slot_->fetch_sub(1, std::memory_order_release); }

    op_gate_guard(const op_gate_guard&) = delete;
    op_gate_guard& operator=(const op_gate_guard&) = delete;

    /// The generation this operation entered under.
    [[nodiscard]] std::uint64_t generation() const noexcept { return gen_; }

   private:
    std::atomic<std::uint32_t>* slot_ = nullptr;
    std::uint64_t gen_ = 0;
  };

  /// Worker side: flip the generation, wait until every operation that
  /// entered under the old one has left. Serialized by migrate_mutex_
  /// (consecutive quiesces must alternate parities in order).
  void quiesce_gate() {
    const std::uint64_t g = gate_gen_.fetch_add(1, std::memory_order_seq_cst);
    for (const gate_stripe& stripe : gates_) {
      while (stripe.entries[g & 1].load(std::memory_order_acquire) != 0) {
        atomics_policy::shared_step();
      }
    }
  }

  /// The routing of an operation inside `gate`. An operation that
  /// entered before the record's first quiescence flip routes solo even
  /// if it sees the record: the router has not flipped yet and that
  /// quiescence waits for it, so it and every other such operation
  /// reach the donor alone. Giving it the dual path would let it add a
  /// covered key to the recipient while a solo one adds the same key to
  /// the donor.
  [[nodiscard]] route routing(const op_gate_guard& gate) const noexcept {
    const partition& p = live();
    const bool dual = p.mig.has_value() && gate.generation() >= p.mig->gen;
    return {p.router, dual ? &*p.mig : nullptr};
  }

  // --- striped per-key locks for the dual-routing window --------------
  // Held only for keys covered by a live migration record: by mutating
  // operations and by the drain's per-key move, never by reads. TTAS
  // with a schedule point in the spin so dsched can explore the window.

  static constexpr std::size_t key_lock_count = 64;

  struct alignas(cacheline_size) key_lock {
    std::atomic<bool> locked{false};

    void lock() noexcept {
      for (;;) {
        atomics_policy::shared_step();
        if (!locked.exchange(true, std::memory_order_acquire)) return;
        while (locked.load(std::memory_order_relaxed)) {
          atomics_policy::shared_step();
        }
      }
    }
    void unlock() noexcept { locked.store(false, std::memory_order_release); }
  };

  [[nodiscard]] static std::size_t key_lock_index(
      const key_type& k) noexcept {
    std::uint64_t h = static_cast<std::uint64_t>(std::hash<key_type>{}(k));
    h *= 0x9E3779B97F4A7C15ull;  // Fibonacci mix: spread poor hashes
    return static_cast<std::size_t>(h >> 58);
  }

  class key_lock_guard {
   public:
    key_lock_guard(sharded_set& set, const key_type& key)
        : lock_(set.key_locks_[key_lock_index(key)]) {
      lock_.lock();
    }
    ~key_lock_guard() { lock_.unlock(); }

    key_lock_guard(const key_lock_guard&) = delete;
    key_lock_guard& operator=(const key_lock_guard&) = delete;

   private:
    key_lock& lock_;
  };

  // --- routed operation bodies ---------------------------------------
  // `r` is the caller's routing, taken inside the op gate it still
  // holds. Keys covered by its record take the dual path; everything
  // else goes to the shard its router names.

  [[nodiscard]] bool contains_routed(const route& r, const key_type& k) const {
    if (const migration* rec = r.rec; rec != nullptr && rec->covers(k)) {
      // Lock-free dual read, donor before recipient — the mirror image
      // of the drain's insert-into-recipient-before-erase-from-donor
      // order, so a key caught mid-move is seen in at least one tree:
      // if the donor read ran after the erase, the recipient insert
      // (which preceded that erase) is visible to the recipient read.
      if (shards_[rec->src]->tree.contains(k)) return true;
      return shards_[rec->dst]->tree.contains(k);
    }
    return shards_[r.router.shard_of(k)]->tree.contains(k);
  }

  bool insert_routed(const route& r, const key_type& k) {
    if (const migration* rec = r.rec; rec != nullptr && rec->covers(k)) {
      // Solo operations from before the first quiescence may still be
      // inserting into the donor; wait them out. That quiescence waits
      // only for them, and they never wait here, so this terminates.
      while (mig_ready_gen_.load(std::memory_order_acquire) < rec->gen) {
        atomics_policy::shared_step();
      }
      key_lock_guard guard(*this, k);
      // Single-copy invariant: a covered key lives in exactly one of
      // donor/recipient outside the lock. New inserts always land in
      // the recipient so the donor's subrange only ever shrinks.
      if (shards_[rec->src]->tree.contains(k)) return false;
      return shards_[rec->dst]->tree.insert(k);
    }
    return shards_[r.router.shard_of(k)]->tree.insert(k);
  }

  bool erase_routed(const route& r, const key_type& k) {
    if (const migration* rec = r.rec; rec != nullptr && rec->covers(k)) {
      key_lock_guard guard(*this, k);
      if (shards_[rec->src]->tree.erase(k)) return true;
      return shards_[rec->dst]->tree.erase(k);
    }
    return shards_[r.router.shard_of(k)]->tree.erase(k);
  }

  /// The drain: page the donor's covered subrange with the concurrent
  /// bounded scan and move each key under its stripe lock. Dual-path
  /// inserts only ever target the recipient, so the donor subrange is
  /// drained monotonically and the loop terminates.
  std::size_t drain(const migration& m)
    requires migratable_tree<Tree>
  {
    Tree& src = shards_[m.src]->tree;
    Tree& dst = shards_[m.dst]->tree;
    std::size_t moved = 0;
    for (;;) {
      const std::vector<key_type> page =
          src.range_scan(m.lo, m.hi, drain_page_size);
      if (page.empty()) return moved;
      for (const key_type& k : page) {
        key_lock_guard guard(*this, k);
        if (src.contains(k)) {
          // Insert before erase: the lock-free dual read (donor first)
          // relies on the key never being absent from both trees.
          dst.insert(k);
          src.erase(k);
          ++moved;
        }
      }
    }
  }

  static constexpr std::size_t drain_page_size = 4096;

  // --- scan machinery -------------------------------------------------

  /// Shared body of range_scan / range_scan_closed / range_scan_limit:
  /// appends to the empty `out` the up-to-`max_items` smallest keys of
  /// the interval, sorted. `hi` is the upper bound in the caller's
  /// convention (exclusive unless closed). Off a migration the shards
  /// hold disjoint ascending ranges, so the walk stops at the shard that
  /// fills the budget. While a migration overlaps the interval, the
  /// visited shard window widens to the donor/recipient pair, every
  /// visited shard gets the full budget (a moving key may surface in
  /// either), the recipient is re-read when keys move toward lower
  /// shard ids (an ascending stitch reads it too early), and the merge
  /// collapses duplicates from keys caught mid-move before trimming.
  /// The gate makes this sufficient: the drain only runs between the
  /// two quiescence waits, and any scan running then entered after the
  /// record was published, so it takes the widened path. A scan that
  /// entered *before* the record cannot race the drain (the first
  /// quiesce waits for it) but can race dual-path inserts of new
  /// covered keys into the recipient — the late-record repair at the
  /// bottom restores ordering for that case.
  void scan_impl(const key_type& lo, const key_type& hi, bool closed,
                 std::vector<key_type>& out,
                 std::size_t max_items =
                     std::numeric_limits<std::size_t>::max()) const {
    const key_type hi_incl = closed ? hi : static_cast<key_type>(hi - 1);
    const auto overlaps = [&](const migration& m) {
      return !(hi_incl < m.lo) && lo < m.hi;
    };
    op_gate_guard gate(*this);
    // Scans widen on any overlapping record, whatever generation they
    // entered under: visiting both trees is safe at any point.
    const partition& p = live();
    const bool dual = p.mig.has_value() && overlaps(*p.mig);
    std::size_t first = p.router.shard_of(lo);
    std::size_t last = p.router.shard_of(hi_incl);
    if (dual) {
      first = std::min(first, std::min(p.mig->src, p.mig->dst));
      last = std::max(last, std::max(p.mig->src, p.mig->dst));
    }
    for (std::size_t s = first; s <= last; ++s) {
      const std::size_t budget = dual ? max_items : max_items - out.size();
      if (budget == 0) break;
      scan_shard(shards_[s]->tree, lo, hi, closed, budget, out);
    }
    // A key moving to a lower shard id can escape both walks: the
    // recipient was read before the insert and the donor after the
    // erase. Re-reading the recipient after the donor walk closes the
    // gap (the insert preceded that erase, so it is visible now); the
    // merge below collapses double sightings.
    if (dual && p.mig->dst < p.mig->src) {
      scan_shard(shards_[p.mig->dst]->tree, lo, hi, closed, max_items, out);
    }
    // Late-record repair: a scan that entered with no record may see
    // one published since. Its first quiescence wait is blocked on this
    // scan, so the drain cannot have started — no key moved and no key
    // is double-present — but dual-path inserts of *new* covered keys
    // already target the recipient, out of splitter order relative to
    // this stitch. Those inserts are concurrent with the whole scan
    // (seeing or missing them is fine); only ordering needs repair. The
    // record, if any, is still live here (the quiesce cannot pass until
    // we release the gate).
    const partition& late = live();
    if (dual || (late.mig.has_value() && overlaps(*late.mig))) {
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      if (out.size() > max_items) out.resize(max_items);
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

  /// Shared batch engine; `Self` deduces const for contains_batch and
  /// non-const for the mutating batches. One gate entry and one
  /// partition snapshot cover the whole batch (see the batched-operations
  /// note).
  template <typename Self, typename Op>
  static std::vector<bool> batch_apply(Self& self,
                                       const std::vector<key_type>& keys,
                                       Op&& op) {
    const std::size_t n = keys.size();
    std::vector<bool> results(n);
    if (n == 0) return results;

    op_gate_guard gate(self);
    const route r = self.routing(gate);
    for (std::size_t i = 0; i < n; ++i) results[i] = op(self, r, keys[i]);
    return results;
  }

  std::vector<std::unique_ptr<slot>> shards_;
  // Partition versioning: ops load `part_` (the live snapshot) inside
  // the gate; superseded snapshots stay in `partitions_` until a
  // migration's second quiesce proves no operation can still hold one.
  // Guarded by migrate_mutex_ for writers.
  std::vector<std::unique_ptr<const partition>> partitions_;
  std::atomic<const partition*> part_{nullptr};
  std::atomic<std::uint64_t> gate_gen_{0};
  mutable std::array<gate_stripe, gate_stripe_count> gates_{};
  // The `gen` of the last record whose first quiescence has finished.
  std::atomic<std::uint64_t> mig_ready_gen_{0};
  std::array<key_lock, key_lock_count> key_locks_{};
  std::mutex migrate_mutex_;
  std::atomic<std::uint64_t> migrations_{0};
  std::atomic<std::uint64_t> keys_migrated_{0};
  std::atomic<std::uint64_t> dual_route_window_ns_{0};
};

}  // namespace lfbst::shard
