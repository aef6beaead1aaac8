// lfbst: the paper's contribution — a lock-free external binary search
// tree coordinated by edge marking (Natarajan & Mittal, PPoPP 2014).
//
// Shape: an *external* (leaf-oriented) BST. Client keys live only in
// leaves; internal nodes hold routing keys and always have exactly two
// children. The two kinds are separate types from separate pools: a
// leaf is the bare client key plus, for maps, the value (a set leaf
// with 8-byte keys is 8 bytes), an internal node is a bare routing key
// and two child words (24 bytes for 8-byte keys). Neither stores its
// kind: the edge that addresses a node says whether it is a leaf. Three
// sentinel keys ∞₀ < ∞₁ < ∞₂ (greater than all client keys) anchor the
// structure so every access path has a parent and a grandparent (paper
// Fig. 3): the root ℝ (key ∞₂) with right child leaf(∞₂), ℝ's left
// child 𝕊 (key ∞₁) with right child leaf(∞₁), and 𝕊's left child
// leaf(∞₀). All client activity happens in 𝕊's left subtree; ℝ and 𝕊
// and the three sentinel leaves are never removed and their edges
// toward other sentinels are never marked. No node stores a sentinel
// key; each is known by position instead. A leaf's sentinel rank is its
// address. ℝ and 𝕊 are known by address, and the only internal node
// keyed ∞₀, I(∞₀), made when an insert splits leaf(∞₀), is always an
// internal child of 𝕊 with leaf(∞₀) on its right. So a key descent
// goes left at ℝ, at 𝕊 and at an internal child of 𝕊 without reading a
// key, and compares bare client keys everywhere below.
//
// Coordination: a delete owns *edges*, not nodes. Each child word
// carries three stolen bits (common/tagged_word.hpp), so nodes are
// 8-byte aligned:
//   flag — head (a leaf) and tail both leave the tree,
//   tag  — only the tail leaves the tree,
//   leaf — the head is a leaf (set when the word is built, kept by
//          every mark change; it takes the place of the paper's
//          null-child leaf test).
// Marked words are frozen: their address part never changes again.
//
// Operations (paper §3.1–§3.2, Algorithms 1–4):
//   search: one seek, no atomics.
//   insert: seek; one CAS swings parent's child from the leaf to a new
//           internal node with {new leaf, old leaf} as children. On CAS
//           failure against a marked edge, help the conflicting delete
//           by running cleanup(), then re-seek.
//   delete: *injection* — CAS the flag bit onto the parent→leaf edge
//           (one CAS; after it succeeds the operation cannot be
//           aborted); *cleanup* — tag the sibling edge (BTS) and CAS the
//           ancestor's child from the successor to the flagged leaf's
//           sibling, copying the sibling edge's flag bit. Cleanup
//           re-seeks and retries until the leaf is out of the tree; one
//           ancestor CAS may excise a whole chain of logically deleted
//           nodes at once (multi-leaf removal, Fig. 2).
//
// Progress: lock-free (§3.3). Safety: linearizable; linearization points
// are the successful injection/removal CASes and, for searches, the end
// of the seek phase (hit) or points derived from overlapping deletes
// (miss) — see the paper's proof sketch, reproduced in tests by the
// lincheck suite.
//
// Template policies:
//   Key       — client key type. Must be copyable and, under the leaky
//               reclaimer, trivially destructible.
//   Compare   — strict weak order over Key.
//   Reclaimer — reclaim::leaky (paper regime, default) or reclaim::epoch.
//   Stats     — stats::none (default) or obs::recording (per-instance
//               counters whose deltas give Table 1's costs, latency/seek
//               histograms, event tracing — src/obs/).
//   Payload   — void (default: a set) or a mapped value type (a map —
//               see core/nm_map.hpp). With a payload, leaves carry the
//               value and three extra operations appear: get(),
//               insert(key, value), and insert_or_assign(), the last
//               implementing the paper's §6 "replace" direction as a
//               single CAS that swings the parent edge from the old
//               leaf to a fresh (key, new value) leaf.
//   Atomics   — atomics::native (default: raw std::atomic, zero
//               overhead) or dsched::sched_atomics, which interposes a
//               schedule point before every shared-memory step so the
//               deterministic scheduler (src/dsched/) can explore
//               interleavings of the flag/tag/CAS protocol.
//   Restart   — restart::from_anchor (default: retries re-validate the
//               recorded (ancestor → successor) edge and resume the
//               descent there — the full paper's local restart) or
//               restart::from_root (the conference paper's root-seek
//               retries; ablation/dsched reference). See
//               core/restart_policy.hpp and docs/PERF.md.
//
// Retry-path contention management (docs/PERF.md): with the native
// atomics policy, failed injection/cleanup CASes are followed by a
// bounded exponential backoff (common/backoff.hpp) before the re-seek.
// Backoff is compiled out under dsched::sched_atomics — the scheduler
// owns all timing there, and spinning between schedule points would
// only slow exploration without adding interleavings.
//
// Descent prefetch (common/prefetch.hpp) runs under every atomics
// policy and is never a schedule point: it is a hint with no effect on
// memory. The plain seek loads both child words of each internal node
// as one step (tagged_word::load_pair), prefetches both children and
// keeps the routed word; the hazard seek prefetches the routed child
// before announcing it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc/node_pool.hpp"
#include "common/assert.hpp"
#include "common/backoff.hpp"
#include "common/prefetch.hpp"
#include "common/tagged_word.hpp"
#include "core/ordered_scan.hpp"
#include "core/restart_policy.hpp"
#include "core/stats.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/leaky.hpp"

namespace lfbst {

struct nm_tree_test_access;  // white-box hooks for the test suite

template <typename Key, typename Compare = std::less<Key>,
          typename Reclaimer = reclaim::leaky, typename Stats = stats::none,
          typename Payload = void, typename Atomics = atomics::native,
          typename Restart = restart::from_anchor>
class nm_tree
    : public ordered_scan<nm_tree<Key, Compare, Reclaimer, Stats, Payload,
                                  Atomics, Restart>,
                          Key> {
  static constexpr bool is_map = !std::is_void_v<Payload>;
  // Contention management engages only under real concurrency: with
  // dsched's interposed atomics the scheduler serializes every shared
  // step, so spinning between them is pure waste.
  static constexpr bool use_backoff = std::is_same_v<Atomics, atomics::native>;
  struct empty_payload {};
  /// What a leaf actually stores: nothing for a set, the value for a map.
  using payload_t = std::conditional_t<is_map, Payload, empty_payload>;

  static_assert(Reclaimer::reclaims_eagerly ||
                    (std::is_trivially_destructible_v<Key> &&
                     std::is_trivially_destructible_v<payload_t>),
                "the leaky reclaimer never runs destructors of unreachable "
                "nodes (paper regime); use reclaim::epoch for keys or "
                "values that own resources");

 public:
  using key_type = Key;
  using mapped_type = Payload;  // void for sets
  using key_compare = Compare;
  using stats_policy = Stats;
  using reclaimer_type = Reclaimer;
  using restart_policy = Restart;
  using atomics_policy = Atomics;

  static constexpr const char* algorithm_name = "NM-BST";

  nm_tree()
      : leaf_pool_(sizeof(leaf_node), slab_arena::page_bytes,
                   alignof(leaf_node)),
        internal_pool_(sizeof(internal_node), slab_arena::page_bytes,
                       alignof(internal_node)) {
    // Build the empty tree of Figure 3. Every sentinel node holds a
    // default key; their ranks are their positions.
    for (leaf_node*& leaf : sentinel_leaves_) leaf = make_leaf(Key{});
    s_ = make_internal(Key{}, edge_to(sentinel_leaves_[0]),
                       edge_to(sentinel_leaves_[1]));
    r_ = make_internal(Key{}, edge_to(s_), edge_to(sentinel_leaves_[2]));
  }

  nm_tree(const nm_tree&) = delete;
  nm_tree& operator=(const nm_tree&) = delete;

  ~nm_tree() {
    destroy_reachable();
    reclaimer_.drain_all_unsafe();
    // The pools release all slabs on destruction.
  }

  /// True iff `key` is in the set. Wait-free given a quiescent tree;
  /// lock-free in general. Executes zero atomic RMWs (paper §3.2.2).
  [[nodiscard]] bool contains(const Key& key) const {
    stats_.on_op_begin(stats::op_kind::search);
    note_key(stats::op_kind::search, key);
    bool found;
    {
      [[maybe_unused]] auto guard = reclaimer_.pin();
      seek_record sr;
      seek(key, sr);
      found = holds(sr.leaf, key);
    }
    stats_.on_op_end(stats::op_kind::search, found);
    return found;
  }

  /// Adds `key`; returns true iff the set changed (paper §3.2.3,
  /// Alg. 2). Uncontended cost: one CAS, two allocations (Table 1).
  /// For maps, the mapped value is default-constructed.
  bool insert(const Key& key) {
    stats_.on_op_begin(stats::op_kind::insert);
    note_key(stats::op_kind::insert, key);
    const bool inserted =
        insert_impl(key, payload_t{}, /*assign_if_present=*/false);
    stats_.on_op_end(stats::op_kind::insert, inserted);
    return inserted;
  }

  // ------------------------------------------------------------------
  // Map operations — available only when a Payload type is given
  // (core/nm_map.hpp). Leaves are immutable once published, so a value
  // read never races a value write; assignment replaces the whole leaf
  // with one CAS.
  // ------------------------------------------------------------------

  /// Adds (key, value); returns true iff the key was absent. An existing
  /// key keeps its old value (like std::map::insert).
  bool insert(const Key& key, const payload_t& value)
    requires is_map
  {
    stats_.on_op_begin(stats::op_kind::insert);
    note_key(stats::op_kind::insert, key);
    const bool inserted =
        insert_impl(key, value, /*assign_if_present=*/false);
    stats_.on_op_end(stats::op_kind::insert, inserted);
    return inserted;
  }

  /// Adds (key, value) or replaces the value of an existing key; returns
  /// true iff the key was inserted (like std::map::insert_or_assign).
  /// The replace path is one CAS swinging the parent edge to a fresh
  /// leaf — the §6 "replace" operation, coordinated with concurrent
  /// deletes by the same marked-edge protocol as inserts.
  bool insert_or_assign(const Key& key, const payload_t& value)
    requires is_map
  {
    stats_.on_op_begin(stats::op_kind::insert);
    note_key(stats::op_kind::insert, key);
    const bool inserted = insert_impl(key, value, /*assign_if_present=*/true);
    stats_.on_op_end(stats::op_kind::insert, inserted);
    return inserted;
  }

  /// The value mapped to `key`, or nullopt. Linearizes at the end of the
  /// seek phase (hit) exactly like contains().
  [[nodiscard]] std::optional<payload_t> get(const Key& key) const
    requires is_map
  {
    stats_.on_op_begin(stats::op_kind::search);
    note_key(stats::op_kind::search, key);
    std::optional<payload_t> result;
    {
      [[maybe_unused]] auto guard = reclaimer_.pin();
      seek_record sr;
      seek(key, sr);
      if (holds(sr.leaf, key)) {
        result = sr.leaf->payload;  // leaves are immutable: safe to copy out
      }
    }
    stats_.on_op_end(stats::op_kind::search, result.has_value());
    return result;
  }

  /// Quiescent in-order walk over (key, value) pairs.
  template <typename F>
  void for_each_item_slow(F&& fn) const
    requires is_map
  {
    walk_leaves([&](const leaf_node* leaf) {
      if (!is_sentinel(leaf)) fn(leaf->key, leaf->payload);
    });
  }

  /// Removes `key`; returns true iff the set changed (paper §3.2.4,
  /// Alg. 3). Uncontended cost: three atomics (flag CAS, sibling BTS,
  /// ancestor CAS), zero allocations (Table 1).
  bool erase(const Key& key) {
    stats_.on_op_begin(stats::op_kind::erase);
    note_key(stats::op_kind::erase, key);
    const bool erased = erase_impl(key);
    stats_.on_op_end(stats::op_kind::erase, erased);
    return erased;
  }

  // Concurrent ordered scans — range_scan, range_scan_closed, the
  // bounded range_scan, for_each and scan_until — come from
  // ordered_scan (core/ordered_scan.hpp), under its
  // conservative-interval contract. Unlike the *_slow observers below
  // they are safe while writers run: the traversal is
  // reclaimer-protected (pinned under epoch/leaky; hazard-validated
  // under reclaim::hazard) and follows frozen marked edges, which by
  // the paper's invariant ("once an edge has been marked, it cannot be
  // changed") still lead to every node that was reachable when the
  // edge froze — so a scan never observes a torn excision.

  // ----------------------------------------------------------------
  // Quiescent observers — valid only while no concurrent operations
  // run. Tests and examples use these; they are not part of the
  // concurrent API.
  // ----------------------------------------------------------------

  /// Number of client keys. O(n) walk.
  [[nodiscard]] std::size_t size_slow() const {
    std::size_t n = 0;
    for_each_slow([&n](const Key&) { ++n; });
    return n;
  }

  [[nodiscard]] bool empty_slow() const { return size_slow() == 0; }

  /// In-order traversal over client keys.
  template <typename F>
  void for_each_slow(F&& fn) const {
    walk_leaves([&](const leaf_node* leaf) {
      if (!is_sentinel(leaf)) fn(leaf->key);
    });
  }

  /// Structural invariant check (quiescent): external shape, key order,
  /// sentinel anchoring, and — since every completed delete physically
  /// removes its marks from the reachable tree — no reachable marked
  /// edges. The anchoring is what routing by position relies on: 𝕊.left
  /// is leaf(∞₀) or I(∞₀), an internal node whose right edge addresses
  /// leaf(∞₀); no other reachable edge addresses leaf(∞₀); and no
  /// sentinel node, the only nodes keyed above every client key, is
  /// reachable below I(∞₀).left. Returns an empty string when healthy,
  /// else a diagnostic.
  [[nodiscard]] std::string validate() const {
    std::string err;
    // Sentinel anchoring (Fig. 3).
    if (r_->left.load() != edge_to(s_)) err += "S is not R.left; ";
    if (r_->right.load() != edge_to(sentinel_leaves_[2])) {
      err += "R.right is not leaf(inf2); ";
    }
    if (s_->right.load() != edge_to(sentinel_leaves_[1])) {
      err += "S.right is not leaf(inf1); ";
    }
    const ptr_t top = s_->left.load();
    if (top == edge_to(sentinel_leaves_[0])) return err;  // no client key
    if (top.marked() || top.leaf()) {
      err += "S.left is neither a clean leaf(inf0) nor I(inf0); ";
      return err;
    }
    const internal_node* inf0 = as_internal(top.address());
    if (inf0->right.load() != edge_to(sentinel_leaves_[0])) {
      err += "I(inf0).right is not leaf(inf0); ";
    }
    const ptr_t client = inf0->left.load();
    if (client.marked()) err += "reachable marked edge at quiescence; ";
    validate_subtree(client, err);
    return err;
  }

  /// Depth of the deepest leaf (diagnostics).
  [[nodiscard]] std::size_t height_slow() const { return height_of(); }

  /// Bytes currently held by the two node pools (includes unreclaimed
  /// nodes — under the leaky policy this is the paper's memory regime).
  [[nodiscard]] std::size_t footprint_bytes() const {
    return leaf_pool_.footprint_bytes() + internal_pool_.footprint_bytes();
  }

  /// Retired-but-unreclaimed node count of the reclaimer (0 for leaky).
  [[nodiscard]] std::size_t reclaimer_pending() const {
    return reclaimer_.pending();
  }

  /// The Stats policy instance this tree reports into. Stateless for
  /// stats::none; obs::recording exposes per-instance counters,
  /// latency/seek-depth histograms and trace attachment through here.
  [[nodiscard]] Stats& stats() const noexcept { return stats_; }

 private:
  friend struct nm_tree_test_access;
  friend class ordered_scan<nm_tree, Key>;

  /// The empty base both node kinds derive from, and the type child
  /// words address. A node does not know its kind: the leaf bit of the
  /// edge it was reached over does (tagged_ptr::leaf), set once when the
  /// word is built by edge_to() and kept by every mark change, so a
  /// descent stops on a leaf edge instead of loading a child word and
  /// testing for null (the paper's leaf test) — and never reads a byte
  /// of a node to learn what it is.
  struct node {};
  using ptr_t = tagged_ptr<node>;
  using word_t = tagged_word<node, Atomics>;

  /// A leaf: the bare client key and, for maps, the mapped value, set at
  /// construction and immutable while the leaf is published. Empty for
  /// sets ([[no_unique_address]] erases the member). 8-byte alignment
  /// keeps the three stolen bits of every leaf address free. The three
  /// sentinel leaves hold Key{}; their rank is their address.
  struct alignas(8) leaf_node : node {
    leaf_node(Key k, payload_t p) : key(std::move(k)), payload(std::move(p)) {}
    Key key;
    [[no_unique_address]] payload_t payload;
  };

  /// An internal node: the bare routing key and the two CAS-able child
  /// words. ℝ, 𝕊 and I(∞₀) hold keys no descent reads: they route by
  /// position.
  struct alignas(8) internal_node : node {
    internal_node(Key k, ptr_t l, ptr_t r) { rewire(std::move(k), l, r); }
    /// Re-keys and re-links a node that is not yet published (insert
    /// reuses its scratch node across retries).
    void rewire(Key k, ptr_t l, ptr_t r) {
      key = std::move(k);
      left.store_relaxed(l);
      right.store_relaxed(r);
    }
    Key key;
    word_t left;
    word_t right;
  };

  static_assert(alignof(leaf_node) >= 8 && alignof(internal_node) >= 8,
                "nodes must be 8-byte aligned to steal three pointer bits");
  static_assert(is_map || sizeof(leaf_node) < sizeof(Key) + alignof(leaf_node),
                "a set leaf is the key, padded to its alignment");
  static_assert(sizeof(internal_node) ==
                    (sizeof(Key) + alignof(word_t) - 1) / alignof(word_t) *
                            alignof(word_t) +
                        2 * sizeof(word_t),
                "an internal node is the key plus two child words");

  /// The word that publishes a node: the node kind goes into the leaf
  /// bit here and nowhere else.
  static ptr_t edge_to(leaf_node* leaf) noexcept {
    return ptr_t::clean_leaf(leaf);
  }
  static ptr_t edge_to(internal_node* in) noexcept { return ptr_t::clean(in); }

  static internal_node* as_internal(node* n) noexcept {
    return static_cast<internal_node*>(n);
  }
  static const internal_node* as_internal(const node* n) noexcept {
    return static_cast<const internal_node*>(n);
  }
  static leaf_node* as_leaf(node* n) noexcept {
    return static_cast<leaf_node*>(n);
  }
  static const leaf_node* as_leaf(const node* n) noexcept {
    return static_cast<const leaf_node*>(n);
  }

  /// The seek record of Alg. 1: the last two nodes of the access path
  /// plus the tail (ancestor) and head (successor) of the last untagged
  /// edge before the parent (Fig. 2). Only `leaf` is a leaf.
  struct seek_record {
    internal_node* ancestor = nullptr;
    internal_node* successor = nullptr;
    internal_node* parent = nullptr;
    leaf_node* leaf = nullptr;
    // The words the descent took: the (ancestor → successor) edge and
    // the (parent → leaf) edge. They name the side of every node an
    // operation CASes without reading its key, which sentinel nodes do
    // not hold. The validated descent also re-reads `anchor_edge` to
    // prove a region reached over marked edges was not yet excised.
    word_t* anchor_edge = nullptr;
    word_t* leaf_edge = nullptr;
    // Root-relative depth of the (ancestor → successor) edge: the value
    // the descent's depth counter held when `successor` was recorded.
    // A from_anchor resume seeds its counter from this so seek_depth
    // histograms report the depth actually traversed from the root,
    // not just the tail walked below the anchor. Maintained only when
    // Stats::enabled (it feeds nothing else).
    std::uint64_t anchor_depth = 0;
  };

  // --- the operation bodies ----------------------------------------------

  /// Alg. 3. The public erase() wraps this with the op begin/end hooks.
  bool erase_impl(const Key& key) {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    seek_record sr;
    bool injected = false;     // INJECTION vs CLEANUP mode
    leaf_node* leaf = nullptr;  // the leaf we flagged, once injected
    [[maybe_unused]] backoff delay;
    seek(key, sr);
    for (;;) {
      if (!injected) {
        // --- injection mode ---
        leaf = sr.leaf;
        if (!holds(leaf, key)) return false;  // key absent
        word_t& child_field = *sr.leaf_edge;
        ptr_t expected = edge_to(leaf);
        stats_.on_cas();
        if (child_field.compare_exchange(
                expected, expected.with_marks(/*flagged=*/true,
                                              /*tagged=*/false))) {
          // Flag planted (Alg. 3 line 73): from here the delete is
          // guaranteed to complete; switch to cleanup mode.
          injected = true;
          if constexpr (Reclaimer::requires_validated_traversal) {
            // Keep the flagged leaf protected across the cleanup-mode
            // re-seeks: the `sr.leaf != leaf` identity test below must
            // not be spoofed by a freed-and-recycled address.
            reclaimer_.domain().announce(Reclaimer::hp_flagged, leaf);
          }
          if (cleanup(sr)) return true;
          // Our own first cleanup lost its ancestor CAS: a cleanup-mode
          // retry, exactly like the ones below.
          stats_.on_seek_restart(stats::restart_kind::cleanup_mode);
        } else {
          stats_.on_cas_fail();
          // Injection failed; help the owning delete if the edge still
          // addresses our leaf and is marked (Alg. 3 lines 79-81).
          if (expected.address() == leaf && expected.marked()) {
            stats_.on_help(help_kind_of(expected));
            cleanup(sr);
          }
          stats_.on_seek_restart(stats::restart_kind::injection_fail);
        }
      } else {
        // --- cleanup mode (Alg. 3 lines 82-87) ---
        if (sr.leaf != leaf) return true;  // someone removed it for us
        if (cleanup(sr)) return true;
        stats_.on_seek_restart(stats::restart_kind::cleanup_mode);
      }
      // Every path here lost a CAS race: yield briefly (the winner
      // finishes faster, our next attempt is likelier to succeed), then
      // re-seek under the Restart policy.
      if constexpr (use_backoff) delay();
      seek_retry(key, sr);
    }
  }

  /// A marked edge we failed a CAS against tells us which kind of delete
  /// we are about to help: flagged — the leaf itself leaves; tagged — the
  /// parent leaves (its sibling edge carries the tag).
  static stats::help_kind help_kind_of(ptr_t observed) noexcept {
    return observed.flagged() ? stats::help_kind::flagged_edge
                              : stats::help_kind::tagged_edge;
  }

  // --- the shared insert/assign machinery --------------------------------

  /// Alg. 2 extended with the map replace path. Returns true iff the key
  /// was newly inserted; with assign_if_present, an existing key's leaf
  /// is replaced by a fresh (key, value) leaf via one CAS and false is
  /// returned.
  bool insert_impl(const Key& key, payload_t value, bool assign_if_present) {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    seek_record sr;
    // Scratch nodes, reused across retries; never published until a CAS
    // wins.
    leaf_node* new_leaf = nullptr;
    internal_node* new_internal = nullptr;
    [[maybe_unused]] backoff delay;
    seek(key, sr);
    for (;;) {
      leaf_node* leaf = sr.leaf;
      if (holds(leaf, key)) {
        if (!assign_if_present) {
          // Key already present. Return any speculatively allocated
          // nodes (never published, so the pool reuses them directly).
          if (new_leaf != nullptr) destroy_node(new_leaf);
          if (new_internal != nullptr) destroy_node(new_internal);
          return false;
        }
        // Replace path: swing the parent's edge from the old leaf to a
        // fresh leaf carrying the new value. A delete that flagged the
        // edge first wins (our CAS fails and we help); if we win, the
        // old leaf is unreachable and we are its only retirer.
        if (new_leaf == nullptr) new_leaf = make_leaf(key, value);
        word_t& child_field = *sr.leaf_edge;
        ptr_t expected = edge_to(leaf);
        stats_.on_cas();
        if (child_field.compare_exchange(expected, edge_to(new_leaf))) {
          if constexpr (Reclaimer::reclaims_eagerly) retire_node(leaf);
          if (new_internal != nullptr) destroy_node(new_internal);
          return false;  // assigned, not inserted
        }
        stats_.on_cas_fail();
        if (expected.address() == leaf && expected.marked()) {
          stats_.on_help(help_kind_of(expected));
          cleanup(sr);
        }
        stats_.on_seek_restart(stats::restart_kind::injection_fail);
        if constexpr (use_backoff) delay();
        seek_retry(key, sr);
        continue;
      }

      word_t& child_field = *sr.leaf_edge;
      if (new_leaf == nullptr) {
        new_leaf = make_leaf(key, value);
      }
      if (new_internal == nullptr) {
        new_internal = make_internal(Key{}, ptr_t{}, ptr_t{});
      }
      // (Re)wire the unpublished internal node for this attempt:
      // routing key = max(key, leaf's key); the new leaf sits on the side
      // its key belongs, the existing leaf on the other (paper §3.2.3).
      // The leaf is a client leaf or leaf(∞₀), which every client key is
      // below. Splitting leaf(∞₀) makes I(∞₀), whose copy of the
      // sentinel leaf's Key{} no descent reads: it routes by position.
      if (leaf == sentinel_leaves_[0] || less_(key, leaf->key)) {
        new_internal->rewire(leaf->key, edge_to(new_leaf), edge_to(leaf));
      } else {
        new_internal->rewire(key, edge_to(leaf), edge_to(new_leaf));
      }

      ptr_t expected = edge_to(leaf);
      stats_.on_cas();
      if (child_field.compare_exchange(expected, edge_to(new_internal))) {
        return true;  // Alg. 2 line 53 — linearization point
      }
      stats_.on_cas_fail();
      // CAS failed; `expected` now holds the observed word (the re-read
      // of Alg. 2 line 55). Help iff the edge still addresses our leaf
      // and is marked — i.e. a delete owns our injection point.
      if (expected.address() == leaf && expected.marked()) {
        stats_.on_help(help_kind_of(expected));
        cleanup(sr);
      }
      stats_.on_seek_restart(stats::restart_kind::injection_fail);
      if constexpr (use_backoff) delay();
      seek_retry(key, sr);
    }
  }

  // --- node lifecycle -------------------------------------------------

  leaf_node* make_leaf(Key k, payload_t payload = payload_t{}) {
    stats_.on_alloc();
    return new (leaf_pool_.allocate(sizeof(leaf_node)))
        leaf_node(std::move(k), std::move(payload));
  }

  internal_node* make_internal(Key k, ptr_t left, ptr_t right) {
    stats_.on_alloc();
    return new (internal_pool_.allocate(sizeof(internal_node)))
        internal_node(std::move(k), left, right);
  }

  node_pool& pool_of(leaf_node*) noexcept { return leaf_pool_; }
  node_pool& pool_of(internal_node*) noexcept { return internal_pool_; }

  /// Immediate destruction — only for unpublished nodes and, at tree
  /// destruction, for the reachable ones.
  template <typename Kind>
  void destroy_node(Kind* n) {
    node_deleter<Kind>(static_cast<node*>(n), &pool_of(n));
  }

  /// Hands an unlinked node to the reclaimer with the deleter and pool
  /// of its kind.
  template <typename Kind>
  void retire_node(Kind* n) {
    reclaimer_.retire(static_cast<node*>(n), &node_deleter<Kind>,
                      &pool_of(n));
  }

  /// `obj` is the node* that was retired; `ctx` the pool of its kind.
  template <typename Kind>
  static void node_deleter(void* obj, void* ctx) noexcept {
    auto* n = static_cast<Kind*>(static_cast<node*>(obj));
    n->~Kind();
    static_cast<node_pool*>(ctx)->deallocate(n);
  }

  // --- leaf keys ------------------------------------------------------

  /// Hit test of a key seek: true iff `leaf` carries client key `key`.
  /// A seek for a client key lands on a client leaf or on leaf(∞₀) —
  /// client keys go left at ℝ and 𝕊 — so one address compare rules out
  /// the sentinel.
  bool holds(const leaf_node* leaf, const Key& key) const {
    return leaf != sentinel_leaves_[0] && !less_(key, leaf->key) &&
           !less_(leaf->key, key);
  }

  /// True iff `leaf` is one of the three sentinel leaves.
  bool is_sentinel(const leaf_node* leaf) const noexcept {
    return leaf == sentinel_leaves_[0] || leaf == sentinel_leaves_[1] ||
           leaf == sentinel_leaves_[2];
  }

  // --- traversal ------------------------------------------------------

  /// Dispatches to the plain Alg. 1 seek, or — when the reclaimer needs
  /// per-node protection (reclaim::hazard) — to the validated seek that
  /// publishes hazard pointers as it descends.
  void seek(const Key& key, seek_record& sr) const {
    if constexpr (Reclaimer::requires_validated_traversal) {
      seek_protected(key, sr);
    } else {
      seek_plain(key, sr);
    }
  }

  /// Retry-path re-seek (docs/PERF.md). Under restart::from_anchor the
  /// recorded (ancestor → successor) edge is re-validated and, when it
  /// holds, the descent resumes from the successor instead of paying
  /// the full root-to-leaf path again; a failed validation falls back
  /// to a root seek. Under restart::from_root this is exactly seek().
  void seek_retry(const Key& key, seek_record& sr) const {
    if constexpr (Restart::resume_from_anchor) {
      if (try_seek_from_anchor(key, sr)) {
        stats_.on_seek_resume_local();
        return;
      }
      stats_.on_seek_anchor_fallback();
    }
    seek(key, sr);
  }

  /// Anchor validation + local resume (the full paper's local restart).
  /// Correctness hinges on two frozen-structure facts: (1) an internal
  /// node always has both child edges marked before the CAS that
  /// detaches it, and marked words never change again — so re-reading
  /// the anchor edge as *clean and still addressing the successor*
  /// proves the ancestor had not been excised at the moment of that
  /// load; (2) a reachable node's key-space interval only ever widens
  /// (cleanup replaces subtree(successor) by a subtree of it), so the
  /// key that once routed through the ancestor still does. A descent
  /// resumed from the validated edge is therefore indistinguishable
  /// from a root seek that arrived at that edge at the same instant.
  /// The successor recorded by any seek is an internal node (it was
  /// stepped *through*), so resuming the descent below it is
  /// well-formed. Returns false when the anchor no longer holds.
  bool try_seek_from_anchor(const Key& key, seek_record& sr) const {
    const ptr_t edge = sr.anchor_edge->load();
    if (edge.marked() || edge.address() != sr.successor) return false;
    // Seed the resumed descent's depth counter with the edge's recorded
    // root-relative depth (captured before seek_*_from resets sr), so
    // on_seek reports the full path length, not the post-anchor tail.
    const std::uint64_t base_depth = sr.anchor_depth;
    if constexpr (Reclaimer::requires_validated_traversal) {
      // anchor and successor are still announced in hp_ancestor /
      // hp_successor from the seek that recorded them (cleanup never
      // reassigns those slots), so the edge load above was safe and
      // the validated descent may resume under the same protection.
      sr.parent = sr.successor;
      return seek_protected_from(toward(key), sentinel_levels(sr.ancestor),
                                 sr, nullptr, base_depth)
                 .address() != nullptr;
    } else {
      seek_plain_from(key, sr, base_depth);
      return true;
    }
  }

  /// How many levels of a key descent that starts at the successor of
  /// the edge leaving `anchor` route by position: every client key goes
  /// left at 𝕊 (ℝ's child) and at I(∞₀) (the only internal node 𝕊 ever
  /// has as a child). A descent from 𝕊 meets both, the second only when
  /// 𝕊.left is internal; one from I(∞₀) meets one; any other, none.
  unsigned sentinel_levels(const internal_node* anchor) const noexcept {
    return anchor == r_ ? 2 : anchor == s_ ? 1 : 0;
  }

  /// Hazard-pointer seek: same traversal as Alg. 1, but every node is
  /// announced in a hazard slot and validated against the edge it was
  /// read from *before* it is dereferenced. Validation failure (the edge
  /// moved between the read and the announcement) restarts the seek.
  void seek_protected(const Key& key, seek_record& sr) const {
    do {
      sr = root_record();  // sentinels are never retired: always safe
    } while (!seek_protected_from(toward(key), sentinel_levels(r_), sr,
                                  nullptr, 0)
                  .address());
  }

  /// A descent's root entry: the never-marked ℝ → 𝕊 edge.
  seek_record root_record() const {
    return {.ancestor = r_, .successor = s_, .parent = s_,
            .anchor_edge = &r_->left};
  }

  /// Key routing below the sentinel levels: left iff key < node key.
  auto toward(const Key& key) const {
    return [this, &key](const internal_node* n) {
      return less_(key, n->key);
    };
  }

  /// One validated-descent attempt — the only one this tree has: key
  /// seeks, anchored retries and both descents of a scan round run it.
  /// Starts at sr.parent, an internal node at or below the recorded
  /// untagged edge (sr.ancestor → sr.successor) whose word is
  /// sr.anchor_edge, and steps left for its first `sentinels` internal
  /// nodes (see sentinel_levels), then in the direction `route(node)`
  /// picks (true = left), until a leaf is reached, maintaining sr
  /// exactly like Alg. 1.
  /// Returns the landed leaf's incoming edge (address = sr.leaf,
  /// protected in hp_leaf; its flag bit says whether the leaf is
  /// logically deleted), or a null edge when a validation fails.
  /// Slot shuffling is safe without re-validation because each announce
  /// copies a value that is still protected by its previous slot.
  ///
  /// Validation rules (the subtle part — ThreadSanitizer found the
  /// original version wanting):
  ///  * A *clean* edge is self-validating: a retired internal node
  ///    always has both child edges marked, so a node whose incoming
  ///    edge re-reads as clean-and-addressing-it has not been retired.
  ///  * A *marked* edge is frozen and proves nothing: it keeps pointing
  ///    into its region even after the region is excised and retired.
  ///    Excision happens exactly by swinging the last clean edge above
  ///    the region — the anchor edge this descent is already tracking —
  ///    so after announcing a node reached over a marked edge we
  ///    re-validate that anchor edge; if it no longer addresses the
  ///    successor cleanly, the region may already be retired and the
  ///    descent fails.
  ///
  /// With `turn`, records the deepest node stepped left from, with the
  /// anchor snapshot above it, in `turn->parent` and the anchor fields,
  /// protected in the dedicated scan slots so a follow-up descent may
  /// start there. A `base_depth` marks a key seek: the landed depth,
  /// counted from it, is reported to on_seek. Preconditions: sr's
  /// ancestor, successor and parent are safe to dereference (sentinels,
  /// or still announced by the descent that recorded them).
  template <typename Route>
  ptr_t seek_protected_from(
      Route&& route, unsigned sentinels, seek_record& sr,
      seek_record* turn = nullptr,
      std::optional<std::uint64_t> base_depth = std::nullopt) const {
    auto& dom = reclaimer_.domain();
    dom.announce(Reclaimer::hp_ancestor, sr.ancestor);
    dom.announce(Reclaimer::hp_successor, sr.successor);
    dom.announce(Reclaimer::hp_parent, sr.parent);
    [[maybe_unused]] std::uint64_t depth = base_depth.value_or(0);
    if constexpr (Stats::enabled) sr.anchor_depth = depth;
    // seq_cst: this load is itself the validator ordering after the
    // announcement of a node reached over a marked edge.
    const auto anchor_holds = [&sr] {
      const ptr_t a = sr.anchor_edge->load(std::memory_order_seq_cst);
      return !a.marked() && a.address() == sr.successor;
    };
    const auto note_turn = [&](internal_node* at) {
      // All three are announced in descent slots right now, so the
      // copy-announces are safe.
      turn->ancestor = sr.ancestor;
      turn->successor = sr.successor;
      turn->anchor_edge = sr.anchor_edge;
      turn->parent = at;
      dom.announce(Reclaimer::hp_scan_turn, at);
      dom.announce(Reclaimer::hp_scan_turn_anchor, sr.ancestor);
      dom.announce(Reclaimer::hp_scan_turn_successor, sr.successor);
    };

    internal_node* parent = sr.parent;  // protected by hp_parent
    const bool first_left = sentinels > 0 || route(parent);
    word_t* parent_source = first_left ? &parent->left : &parent->right;
    // Discovery load: acquire suffices — the candidate is not
    // dereferenced until the announce below is validated by the seq_cst
    // recheck, and it is that recheck (not this load) that must order
    // after the announcement store.
    ptr_t parent_field = parent_source->load(std::memory_order_acquire);
    node* at = parent_field.address();
    dom.announce(Reclaimer::hp_leaf, at);
    // Validating re-read: seq_cst so it cannot be reordered before the
    // seq_cst announce store above — the store-load pair guarantees any
    // concurrent retirer's scan sees the announcement.
    ptr_t recheck = parent_source->load(std::memory_order_seq_cst);
    if (recheck.address() != at) return ptr_t();  // edge moved
    parent_field = recheck;
    if (parent_field.marked() && !anchor_holds()) return ptr_t();
    if (first_left && turn != nullptr) note_turn(parent);

    // One validated step from `in` (= at, reached over parent_field) to
    // the child on the `step_left` side. False when a validation fails.
    const auto step = [&](internal_node* in, bool step_left) {
      word_t* current_source = step_left ? &in->left : &in->right;
      // Discovery load (validated by the recheck below): acquire.
      ptr_t current_field = current_source->load(std::memory_order_acquire);
      node* current = current_field.address();
      if constexpr (Stats::enabled) ++depth;
      // Overlap the next node's cache miss with this iteration's
      // announce/validate bookkeeping — the descent is a dependent-load
      // chain the hardware prefetcher cannot run ahead of. Safe even if
      // the recheck below rejects `current`: prefetch is only a hint.
      prefetch_ro(current);
      dom.announce(Reclaimer::hp_scratch, current);
      recheck = current_source->load(std::memory_order_seq_cst);
      if (recheck.address() != current) return false;
      current_field = recheck;
      if (!parent_field.tagged()) {
        sr.ancestor = parent;  // protected by hp_parent
        sr.successor = in;     // protected by hp_leaf
        sr.anchor_edge = parent_source;
        // `depth` has already counted the step below `in`, which is
        // exactly where a resume from this edge restarts its walk.
        if constexpr (Stats::enabled) sr.anchor_depth = depth;
        dom.announce(Reclaimer::hp_ancestor, sr.ancestor);
        dom.announce(Reclaimer::hp_successor, sr.successor);
      }
      if (current_field.marked() && !anchor_holds()) return false;
      if (step_left && turn != nullptr) note_turn(in);
      parent = in;  // protected by hp_leaf
      dom.announce(Reclaimer::hp_parent, parent);
      at = current;  // protected by hp_scratch
      dom.announce(Reclaimer::hp_leaf, at);
      parent_field = current_field;
      parent_source = current_source;
      return true;
    };

    // The validated word's leaf bit says whether `at` is a leaf. Below
    // 𝕊, an internal node is I(∞₀), the second sentinel level.
    if (sentinels > 1 && !parent_field.leaf() &&
        !step(as_internal(at), /*step_left=*/true)) {
      return ptr_t();
    }
    while (!parent_field.leaf()) {
      internal_node* in = as_internal(at);
      if (!step(in, route(in))) return ptr_t();
    }
    sr.parent = parent;
    sr.leaf = as_leaf(at);
    sr.leaf_edge = parent_source;
    if constexpr (Stats::enabled) {
      if (base_depth.has_value()) stats_.on_seek(depth);
    }
    return parent_field;
  }

  /// Alg. 1 — the seek phase. Traverses from ℝ to a leaf, maintaining
  /// (ancestor, successor) = the last untagged edge seen before the
  /// parent. All loads are acquire loads.
  void seek_plain(const Key& key, seek_record& sr) const {
    sr = root_record();
    seek_plain_from(key, sr);
  }

  /// A child word a descent loaded, and the word it came from.
  struct edge_step {
    ptr_t word;
    word_t* source;
  };

  /// One level of the plain descent: loads both child words of `in` as
  /// one shared-memory step, prefetches both children, and returns the
  /// word `key` routes to. The descent is a dependent-load chain the
  /// hardware prefetcher cannot run ahead of; loading both words lets
  /// the next node's miss start as soon as this node's line arrives,
  /// before the key compare resolves, and selecting between two loaded
  /// values (a cmov) leaves no branch on the compare to mispredict. The
  /// unrouted word only feeds its prefetch, a hint that is safe on any
  /// address.
  edge_step step_toward(internal_node* in, const Key& key) const {
    const auto [left, right] = word_t::load_pair(in->left, in->right);
    prefetch_ro(left.address());
    prefetch_ro(right.address());
    return less_(key, in->key) ? edge_step{left, &in->left}
                               : edge_step{right, &in->right};
  }

  /// One sentinel level of the plain descent (𝕊 or I(∞₀)): every client
  /// key goes left, and the right child is a sentinel leaf, so only the
  /// left word is loaded and prefetched — still one shared-memory step.
  edge_step step_left(internal_node* in) const {
    const ptr_t left = in->left.load();
    prefetch_ro(left.address());
    return {left, &in->left};
  }

  /// Alg. 1 generalized to start from any recorded (ancestor →
  /// successor) edge on the access path — the root seek passes
  /// root_record(); the anchored retry passes a just-validated recorded
  /// edge. The successor is an internal node (every recorded successor
  /// is: it was stepped through). The paper finds the leaf by loading
  /// its null child word (line 22); the descent here tests the leaf bit
  /// of the word it arrived on, and touches no byte of a leaf. Its
  /// first sentinel_levels() levels go left without a key compare.
  void seek_plain_from(const Key& key, seek_record& sr,
                       std::uint64_t base_depth = 0) const {
    internal_node* parent = sr.successor;  // lines 15-17
    if constexpr (Stats::enabled) sr.anchor_depth = base_depth;
    [[maybe_unused]] std::uint64_t depth = base_depth;
    const unsigned sentinels = sentinel_levels(sr.ancestor);
    // lines 18-19 (the edge successor → leaf)
    edge_step at = sentinels > 0 ? step_left(parent) : step_toward(parent, key);
    // Lines 20-28 for the internal node `in` that `at` addresses, whose
    // routed child word is `next`.
    const auto advance = [&](internal_node* in, edge_step next) {
      if constexpr (Stats::enabled) ++depth;
      if (!at.word.tagged()) {  // line 23
        sr.ancestor = parent;   // line 24
        sr.successor = in;      // line 25
        sr.anchor_edge = at.source;
        // Depth of the new anchor edge: a resume restarts exactly at
        // the step this iteration just counted.
        if constexpr (Stats::enabled) sr.anchor_depth = depth;
      }
      parent = in;  // line 26
      at = next;    // lines 27-28
    };
    // Below 𝕊, an internal node is I(∞₀), the second sentinel level.
    if (sentinels > 1 && !at.word.leaf()) {
      internal_node* in = as_internal(at.word.address());
      advance(in, step_left(in));
    }
    while (!at.word.leaf()) {  // line 22
      internal_node* in = as_internal(at.word.address());
      advance(in, step_toward(in, key));  // lines 20-21
    }
    sr.parent = parent;
    sr.leaf = as_leaf(at.word.address());
    sr.leaf_edge = at.source;
    if constexpr (Stats::enabled) stats_.on_seek(depth);
  }

  // --- cleanup (Alg. 4) -------------------------------------------------

  /// Physically removes the flagged leaf at the end of the access path
  /// `sr` records, together with its parent (and any frozen chain
  /// between successor and parent — the multi-leaf removal of Fig. 2).
  /// Invoked by the owning delete and by helpers (failed insert/delete
  /// injections). Returns true iff this call's ancestor CAS performed
  /// the removal.
  bool cleanup(const seek_record& sr) {
    stats_.on_cleanup();
    internal_node* successor = sr.successor;  // lines 90-93
    internal_node* parent = sr.parent;

    // The ancestor's child field to swing (lines 94-96): the word the
    // seek took at the ancestor.
    word_t& successor_field = *sr.anchor_edge;

    // Child and sibling fields of the parent (lines 97-102): the child
    // field is the word the seek took at the parent.
    word_t* child_field = sr.leaf_edge;
    word_t* sibling_field =
        child_field == &parent->left ? &parent->right : &parent->left;

    if (!child_field->load().flagged()) {  // lines 103-105
      // The leaf on our side is not the one being deleted, so the
      // delete owns the *sibling* leaf; the edge to tag is the one we
      // arrived on.
      sibling_field = child_field;
    }

    // Tag the sibling edge (line 106). Unconditional; freezes the edge
    // so parent can never again be an injection point.
    stats_.on_bts();
    sibling_field->bts_tag();

    // Re-read flag and address (line 107); both are now frozen (a tagged
    // edge can no longer be flagged, and marked edges never change
    // address), so this read is stable.
    ptr_t sibling = sibling_field->load();

    // Swing the ancestor's child from the successor to the sibling,
    // copying the sibling's flag bit onto the new edge (line 108): if a
    // concurrent delete already flagged the sibling leaf, the flag must
    // survive the move so that delete can still complete.
    // The sibling word's leaf bit rides along: the new edge addresses
    // the same node.
    ptr_t expected = edge_to(successor);
    const ptr_t desired =
        sibling.with_marks(sibling.flagged(), /*tagged=*/false);
    stats_.on_cas();
    const bool removed = successor_field.compare_exchange(expected, desired);

    if (removed) {
      if constexpr (Stats::enabled) {
        // Excision size: >2 means the single ancestor CAS removed a
        // frozen chain of logically deleted nodes (Fig. 2's multi-leaf
        // removal). The walk only happens for instrumented builds.
        stats_.on_excision(count_excised(expected, desired.address()));
      }
      if constexpr (Reclaimer::reclaims_eagerly) {
        // We excised the region subtree(successor) ∖ subtree(sibling
        // address). Every edge inside it is frozen, so walking it
        // unsynchronized is safe; only this thread (the CAS winner)
        // retires it, so nothing is retired twice.
        retire_excised(expected, desired.address());
      }
    } else {
      stats_.on_cas_fail();
    }
    return removed;
  }

  /// Node count of the detached region that edge `e` heads, excluding
  /// the re-attached subtree at `keep`. Same frozen-region walk as
  /// retire_excised; only runs when a Stats policy wants on_excision.
  std::uint64_t count_excised(ptr_t e, const node* keep) const {
    if (e.address() == keep) return 0;
    if (e.leaf()) return 1;
    const internal_node* in = as_internal(e.address());
    return 1 + count_excised(in->left.load(std::memory_order_acquire), keep) +
           count_excised(in->right.load(std::memory_order_acquire), keep);
  }

  /// Retires every node of the detached region that edge `e` heads,
  /// except the subtree rooted at `keep` (which was re-attached by the
  /// CAS). The region is a frozen chain: internal nodes with both edges
  /// marked, each carrying one flagged leaf, terminated by `keep`'s old
  /// parent.
  void retire_excised(ptr_t e, const node* keep) {
    if (e.address() == keep) return;
    if (e.leaf()) {
      retire_node(as_leaf(e.address()));
      return;
    }
    internal_node* in = as_internal(e.address());  // the frozen region
    retire_excised(in->left.load(std::memory_order_acquire), keep);
    retire_excised(in->right.load(std::memory_order_acquire), keep);
    retire_node(in);
  }

  // --- concurrent ordered scans ----------------------------------------
  //
  // Correctness sketch (full story in DESIGN.md):
  //
  //   Sorted / duplicate-free — routing keys are immutable and cleanup
  //   only ever replaces subtree(successor) by one of its own subtrees,
  //   so any node ever reachable through a node's left edge has a key
  //   below that node's key (and symmetrically right/≥). Both scan
  //   shapes emit leaves in left-to-right traversal order, which under
  //   that invariant is strictly increasing key order.
  //
  //   Completeness (a key present throughout the scan appears) — a leaf
  //   whose incoming edge is never flagged is never excised: cleanup
  //   only detaches regions whose internal nodes have both edges marked
  //   and whose leaving leaves are flagged, and an unflagged leaf hit by
  //   an excision is *reattached* by the ancestor CAS, on the side its
  //   key routes to. Following frozen marked edges therefore always
  //   leads the scan to the still-reachable part holding such a leaf.
  //
  //   Soundness (a key absent throughout does not appear) — a leaf is
  //   only emitted if its incoming edge was loaded unflagged; a key
  //   that was absent for the whole scan has no such leaf: its old leaf
  //   was flagged before the scan began (erase linearizes at the flag
  //   CAS), and flags survive reattachment (the ancestor CAS copies the
  //   sibling edge's flag bit).

  /// Epoch/leaky scan: one pinned in-order walk over the *current*
  /// edges, marked ones included. The pin keeps every node the walk can
  /// reach alive (epoch: grace period spans the pin; leaky: nothing is
  /// ever freed), and frozen edges keep addressing their targets, so no
  /// validation is needed — the walk simply never sees a torn excision.
  /// The stack holds edge values (not bare nodes) because a leaf's
  /// incoming flag bit decides whether the key is logically present.
  template <typename Emit>
  void scan_pinned(const Key* lo, const Key* hi, bool closed,
                   Emit& emit) const {
    std::vector<ptr_t> stack;
    // ℝ, 𝕊 and I(∞₀) send every key left, and their right children are
    // sentinel leaves: walk their left edges without a key compare.
    ptr_t edge = edge_to(r_);
    for (int level = 0; level < 3 && !edge.leaf(); ++level) {
      edge = as_internal(edge.address())->left.load();
    }
    for (;;) {
      if (edge.leaf()) {
        // A flagged incoming edge means a delete linearized against
        // this key (possibly before the scan began): it is logically
        // absent and must not appear.
        const leaf_node* leaf = as_leaf(edge.address());
        if (!edge.flagged() && !is_sentinel(leaf) &&
            this->in_range(leaf->key, lo, hi, closed) && !emit(leaf->key)) {
          return;  // visitor filled its budget
        }
      } else {
        // Internal: prune on the immutable routing key. The walk goes
        // on into the left subtree and stacks the right one, so the
        // left subtree drains first (leaf-only in-order).
        const internal_node* in = as_internal(edge.address());
        const Key& k = in->key;
        const ptr_t left = in->left.load();
        const bool go_left = lo == nullptr || less_(*lo, k);
        if (hi == nullptr || (closed ? !less_(*hi, k) : less_(k, *hi))) {
          const ptr_t right = in->right.load();
          if (!go_left) {
            edge = right;
            continue;
          }
          stack.push_back(right);
        }
        if (go_left) {
          edge = left;
          continue;
        }
      }
      if (stack.empty()) return;
      edge = stack.back();
      stack.pop_back();
    }
  }

  /// Hazard scan round: one successor query. A validated descent routed
  /// toward the cursor lands on the leftmost leaf at/past the cursor —
  /// the answer — or on the rightmost leaf below it; then the answer is
  /// the minimum leaf of the right subtree of the descent's deepest
  /// left turn, reached by a second validated descent started at the
  /// turn under its snapshotted anchor that steps right once and then
  /// always left. Emits the answer unless its edge is flagged (logically
  /// deleted); either way the next round starts strictly above it.
  template <typename Emit>
  scan_step<Key> scan_round(const Key* cursor, bool inclusive,
                            Emit& emit) const {
    // Leftmost leaf with key >= cursor routes exactly like a point seek
    // for `cursor`: left iff cursor < node key. (Strictness does not
    // change the routing, only the acceptance test below.)
    const auto toward_cursor = [&](const internal_node* n) {
      return cursor == nullptr || less_(*cursor, n->key);
    };
    seek_record sr = root_record();
    seek_record turn;
    ptr_t landed =
        seek_protected_from(toward_cursor, sentinel_levels(r_), sr, &turn);
    if (landed.address() == nullptr) return {};
    // Every sentinel is above every cursor.
    const bool satisfied =
        cursor == nullptr || is_sentinel(sr.leaf) ||
        (inclusive ? !less_(sr.leaf->key, *cursor)
                   : less_(*cursor, sr.leaf->key));
    if (!satisfied) {
      // Every left subtree skipped below the turn holds only keys <=
      // cursor. A turn always exists: every client cursor routes left
      // at the sentinels.
      LFBST_ASSERT(turn.parent != nullptr,
                   "cursor-routed descent took no left turn");
      bool at_turn = true;
      const auto min_right = [&at_turn](const internal_node*) {
        const bool left = !at_turn;
        at_turn = false;
        return left;
      };
      // min_right reads no key, so no level of it goes by position: a
      // turn at 𝕊 or I(∞₀) steps right onto a sentinel leaf.
      sr = turn;
      landed = seek_protected_from(min_right, /*sentinels=*/0, sr);
      if (landed.address() == nullptr) return {};
    }
    if (is_sentinel(sr.leaf)) return {.validated = true};  // past the last key
    const Key& found = sr.leaf->key;
    if (!landed.flagged()) emit(found);
    return {.validated = true, .next = found, .next_inclusive = false};
  }

  // --- quiescent helpers ----------------------------------------------

  /// In-order leaf visit with an explicit stack: sequentially inserted
  /// keys degenerate an (unbalanced) BST to O(n) depth, which would
  /// overflow the call stack if these walks recursed.
  template <typename F>
  void walk_leaves(F&& fn) const {
    std::vector<ptr_t> stack{edge_to(r_)};
    while (!stack.empty()) {
      const ptr_t e = stack.back();
      stack.pop_back();
      if (e.leaf()) {
        fn(as_leaf(e.address()));
        continue;
      }
      // Right below left, so the left subtree's leaves come first.
      const internal_node* in = as_internal(e.address());
      stack.push_back(in->right.load(std::memory_order_relaxed));
      stack.push_back(in->left.load(std::memory_order_relaxed));
    }
  }

  void destroy_reachable() {
    std::vector<ptr_t> stack{edge_to(r_)};
    while (!stack.empty()) {
      const ptr_t e = stack.back();
      stack.pop_back();
      if (e.leaf()) {
        destroy_node(as_leaf(e.address()));
        continue;
      }
      internal_node* in = as_internal(e.address());
      stack.push_back(in->left.load(std::memory_order_relaxed));
      stack.push_back(in->right.load(std::memory_order_relaxed));
      destroy_node(in);
    }
  }

  std::size_t height_of() const {
    std::size_t best = 0;
    std::vector<std::pair<ptr_t, std::size_t>> stack{{edge_to(r_), 1}};
    while (!stack.empty()) {
      auto [e, depth] = stack.back();
      stack.pop_back();
      best = std::max(best, depth);
      if (e.leaf()) continue;
      const internal_node* in = as_internal(e.address());
      stack.push_back({in->left.load(std::memory_order_relaxed), depth + 1});
      stack.push_back({in->right.load(std::memory_order_relaxed), depth + 1});
    }
    return best;
  }

  /// Checks the client region that edge `client` (I(∞₀).left) heads: order
  /// bounds, external shape, no marks, and no sentinel node.
  void validate_subtree(ptr_t client, std::string& err) const {
    struct frame {
      ptr_t e;
      const Key* low;
      const Key* high;
    };
    std::vector<frame> stack{{client, nullptr, nullptr}};
    while (!stack.empty()) {
      auto [e, low, high] = stack.back();
      stack.pop_back();
      const node* n = e.address();
      if (e.leaf() ? is_sentinel(as_leaf(n)) : n == r_ || n == s_) {
        err += "sentinel node in the client region; ";
        continue;
      }
      // Order bounds (paper §2 properties (a)/(b)): left subtree keys
      // strictly below the node key, right subtree keys at or above.
      const internal_node* in = e.leaf() ? nullptr : as_internal(n);
      const Key& key = in != nullptr ? in->key : as_leaf(n)->key;
      if (low != nullptr && less_(key, *low)) {
        err += "key below low bound; ";
      }
      if (high != nullptr && !less_(key, *high)) {
        err += "key not below high bound; ";
      }
      if (in == nullptr) continue;
      const ptr_t lw = in->left.load(std::memory_order_relaxed);
      const ptr_t rw = in->right.load(std::memory_order_relaxed);
      if (lw.marked() || rw.marked()) {
        err += "reachable marked edge at quiescence; ";
      }
      if (lw.address() == nullptr || rw.address() == nullptr) {
        err += "internal node with a null child (external shape "
               "violated); ";
        continue;
      }
      stack.push_back({lw, low, &in->key});
      stack.push_back({rw, &in->key, high});
    }
  }

  // Feeds the sampled key-hotness hook (obs::key_heatmap via
  // obs::recording::on_op_key) when the Stats policy has one and the
  // key maps onto the heatmap's int64 domain; compiles to nothing for
  // stats::none and non-numeric keys.
  void note_key(stats::op_kind kind, const Key& key) const noexcept {
    if constexpr (requires(std::int64_t k) { stats_.on_op_key(kind, k); } &&
                  std::is_convertible_v<Key, std::int64_t>) {
      stats_.on_op_key(kind, static_cast<std::int64_t>(key));
    }
  }

  // --- members ----------------------------------------------------------

  [[no_unique_address]] Compare less_{};
  // Hooks fire through the instance (stats_.on_cas()) so policies may
  // carry per-instance state; for the stateless stats::none policy
  // the member is empty and the calls resolve to the static no-ops.
  [[no_unique_address]] mutable Stats stats_{};
  node_pool leaf_pool_;
  node_pool internal_pool_;
  mutable Reclaimer reclaimer_{};
  // ℝ and 𝕊 are never removed, so their addresses give their keys.
  internal_node* r_ = nullptr;  // ℝ: root sentinel, key ∞₂
  internal_node* s_ = nullptr;  // 𝕊: ℝ's left child, key ∞₁
  // leaf(∞₀), leaf(∞₁), leaf(∞₂): never removed, so a leaf's address
  // tells whether, and which, sentinel key it carries.
  leaf_node* sentinel_leaves_[3] = {};
};

}  // namespace lfbst
