// lfbst: lock-free external k-ary search tree — the paper's §6 future
// work ("we plan to use the ideas in this work to develop more efficient
// lock-free algorithms for k-ary search trees"), in the lineage of
// Brown & Helga's non-blocking k-ST (OPODIS 2011) that the paper cites
// as [4]. A first-class contender: docs/MULTIWAY.md documents the node layout, the in-node search
// kernels, and the policy-parity matrix against the NM tree.
//
// Shape: external k-ary tree. Leaves hold up to K-1 client keys in a
// sorted inline array; internal nodes hold exactly K-1 routing keys and
// K children. Fat leaves amortize one cache line over several keys, so
// searches touch ~log_K(n) nodes instead of log_2(n) — the point of the
// k-ary generalization, and the cache-miss argument ELB-Trees and
// Spiegel & Reynolds' multiway search tree (PAPERS.md) both make.
//
// Cache-conscious layout: nodes are alignas(64) with the key array,
// key count and kind flags packed into the leading cache line (for the
// tuned default fanouts the whole routing scan reads exactly one line)
// and the update word plus child pointers on the following line(s).
// Keys are a *raw* `Key[K-1]` array — no sentinel wrapper — so the
// in-node search lowers to the branch-free reductions in
// multiway/node_search.hpp. The root's "all routing keys are +infinity"
// sentinel role moved into a `routes_infinite` flag: the root routes
// every client key to child 0 and its key array is never read.
//
// Operations (EFRB-style Info-record coordination, matching Brown &
// Helga's use of the Ellen et al. protocol):
//   search : traverse; branch-free scan of the leaf. No atomics.
//   insert : leaf has spare capacity → REPLACE: flag the parent's update
//            word with an Info record, CAS the child edge from the old
//            leaf to a new leaf containing the key, unflag (3 CAS,
//            2 allocations). Leaf full → SPROUT: the K keys (K-1 old +
//            1 new) become an internal node with K one-key leaf
//            children (3 CAS, K+2 allocations).
//   delete : leaf keeps ≥1 key, or its parent is the root, or siblings
//            are not all leaves → REPLACE with a smaller (possibly
//            empty) leaf. Otherwise → COALESCE (the pruning step):
//            DFLAG the grandparent, MARK the parent, swing the
//            grandparent's edge from the parent to one new leaf holding
//            the union of all the parent's children's keys minus the
//            deleted one (4 CAS, 2 allocations). Coalescing bounds the
//            garbage that the NM paper's related-work section criticizes
//            in remove-less relaxed trees: an internal node whose leaf
//            children jointly fit in one leaf is collapsed as soon as a
//            delete touches it.
//
// Policy axes (the NM tree's, minus hazard pointers):
//   Reclaimer — leaky or epoch. Hazard pointers are rejected at compile
//     time, as in EFRB, HJ and BCCO: k-ary edges are never marked (all
//     coordination lives in the update words), so the NM tree's
//     edge-recheck recipe cannot prove a just-announced child unretired
//     (DESIGN.md §8.4).
//   Stats — stats::none / obs::recording, via a
//     per-instance policy object (heatmap on_op_key, seek depth, scan
//     and restart attribution).
//   Atomics — atomics::native or dsched::sched_atomics; every
//     update-word and child-edge access is a tagged_word primitive, so
//     the deterministic scheduler can explore the IFLAG/DFLAG/MARK
//     protocol (tests/dsched/kary_scenarios_test.cpp).
//   Restart — restart::from_anchor resumes a failed modify from the
//     deepest still-unmarked node of the previous descent (internal
//     nodes leave the tree only via COALESCE, which marks them first
//     and marks are terminal; routing keys are immutable, so an
//     unmarked anchor still routes the key); restart::from_root is the
//     ablation baseline.
//
// Deviations from Brown & Helga, documented per DESIGN.md: (a) we
// coalesce eagerly whenever the parent's children are all leaves whose
// surviving keys fit in a single leaf (they prune only when exactly one
// non-empty child remains); (b) helping uses the same two-record scheme
// as our EFRB port rather than their four-state version records. Both
// preserve lock-freedom and linearizability; neither changes the
// operation count asymptotics.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc/node_pool.hpp"
#include "common/assert.hpp"
#include "common/atomics_policy.hpp"
#include "common/backoff.hpp"
#include "common/prefetch.hpp"
#include "common/tagged_word.hpp"
#include "core/ordered_scan.hpp"
#include "core/restart_policy.hpp"
#include "core/stats.hpp"
#include "multiway/node_search.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/leaky.hpp"

namespace lfbst {

template <typename Key, unsigned K = multiway::default_fanout<Key>,
          typename Compare = std::less<Key>,
          typename Reclaimer = reclaim::leaky, typename Stats = stats::none,
          typename Atomics = atomics::native,
          typename Restart = restart::from_anchor>
class kary_tree
    : public ordered_scan<
          kary_tree<Key, K, Compare, Reclaimer, Stats, Atomics, Restart>,
          Key> {
  static_assert(K >= 2, "a k-ary tree needs at least binary fanout");
  static_assert(Reclaimer::reclaims_eagerly ||
                    std::is_trivially_destructible_v<Key>,
                "leaky reclamation requires trivially destructible keys");
  static_assert(!Reclaimer::requires_validated_traversal,
                "this tree's traversal does not validate per-node; use the "
                "leaky or epoch reclaimer (hazard pointers need the NM "
                "tree's protected seek)");

 public:
  using key_type = Key;
  using key_compare = Compare;
  using stats_policy = Stats;
  using reclaimer_type = Reclaimer;
  using restart_policy = Restart;
  using atomics_policy = Atomics;

  static constexpr const char* algorithm_name = "KST";
  static constexpr unsigned fanout = K;
  static constexpr unsigned leaf_capacity = K - 1;
  /// Contended-path niceties (bounded backoff, descent prefetch) are
  /// disabled under an interposing atomics policy so dsched explores
  /// the bare protocol.
  static constexpr bool use_backoff = std::is_same_v<Atomics, atomics::native>;

  kary_tree()
      : node_pool_(sizeof(node), node_slab_bytes(), alignof(node)),
        info_pool_(sizeof(info_record)) {
    // Root: an internal sentinel routing every client key to child 0
    // (routes_infinite: all routing keys are conceptually +∞, the key
    // array itself is never read); children 1..K-1 are permanently
    // empty leaves. A client leaf therefore always has a parent, and
    // every coalescible parent (an internal node below the root) has a
    // grandparent. The root is never replaced, marked, or retired.
    root_ = make_internal_sentinel();
  }

  kary_tree(const kary_tree&) = delete;
  kary_tree& operator=(const kary_tree&) = delete;

  // Teardown ordering (audited against the PR 5 epoch-teardown UAF):
  // destroy the reachable tree first, then drain the retired backlog
  // while the pools are still alive — node/info deleters dereference
  // the pools, so the drain must precede member destruction (members
  // are destroyed in reverse declaration order: root pointer, then
  // reclaimer, then pools). The two sets are disjoint: every retire
  // happens only after the CAS that unlinked the object from the
  // reachable tree, so nothing is freed twice. Caller contract (same
  // as every tree here): all guards are destroyed and no concurrent
  // operation is in flight when the destructor runs —
  // tests/multiway/kary_teardown_test.cpp pins this with canary nodes
  // left pending at destruction.
  ~kary_tree() {
    destroy_reachable(root_);
    reclaimer_.drain_all_unsafe();
  }

  [[nodiscard]] bool contains(const Key& key) const {
    stats_.on_op_begin(stats::op_kind::search);
    note_key(stats::op_kind::search, key);
    bool found;
    {
      [[maybe_unused]] auto guard = reclaimer_.pin();
      search_result s;
      seek(key, s);
      found = leaf_contains(s.leaf, key);
    }
    stats_.on_op_end(stats::op_kind::search, found);
    return found;
  }

  bool insert(const Key& key) {
    stats_.on_op_begin(stats::op_kind::insert);
    note_key(stats::op_kind::insert, key);
    const bool inserted = insert_impl(key);
    stats_.on_op_end(stats::op_kind::insert, inserted);
    return inserted;
  }

  bool erase(const Key& key) {
    stats_.on_op_begin(stats::op_kind::erase);
    note_key(stats::op_kind::erase, key);
    const bool erased = erase_impl(key);
    stats_.on_op_end(stats::op_kind::erase, erased);
    return erased;
  }

  // Concurrent ordered scans — range_scan, range_scan_closed, the
  // bounded range_scan, for_each and scan_until — come from
  // ordered_scan (core/ordered_scan.hpp), under the same
  // conservative-interval contract as nm_tree. Routing keys are
  // immutable and each client key lives in exactly one leaf of one
  // routing slot at any moment, so a single atomic edge read per slot
  // yields a sorted, dedup-free walk.

  // ----------------------------------------------------------------
  // Quiescent observers — valid only while no concurrent operations
  // run. Tests and examples use these; they are not part of the
  // concurrent API.
  // ----------------------------------------------------------------

  [[nodiscard]] std::size_t size_slow() const {
    std::size_t n = 0;
    for_each_slow([&n](const Key&) { ++n; });
    return n;
  }

  [[nodiscard]] bool empty_slow() const { return size_slow() == 0; }

  /// In-order walk over client keys.
  template <typename F>
  void for_each_slow(F&& fn) const {
    walk(root_, fn);
  }

  [[nodiscard]] std::string validate() const {
    std::string err;
    if (root_->is_leaf()) err += "root must be the internal sentinel; ";
    if (!root_->routes_infinite) err += "root must route to child 0; ";
    validate_node(root_, nullptr, nullptr, /*is_root=*/true, err);
    return err;
  }

  [[nodiscard]] std::size_t height_slow() const {
    std::size_t best = 0;
    std::vector<std::pair<const node*, std::size_t>> stack{{root_, 1}};
    while (!stack.empty()) {
      auto [n, d] = stack.back();
      stack.pop_back();
      best = std::max(best, d);
      if (!n->is_leaf()) {
        for (unsigned i = 0; i < K; ++i) {
          if (const node* c = n->children[i].load().address()) {
            stack.push_back({c, d + 1});
          }
        }
      }
    }
    return best;
  }

  [[nodiscard]] std::size_t footprint_bytes() const {
    return node_pool_.footprint_bytes() + info_pool_.footprint_bytes();
  }

  [[nodiscard]] std::size_t reclaimer_pending() const {
    return reclaimer_.pending();
  }

  [[nodiscard]] Stats& stats() const noexcept { return stats_; }

 private:
  friend class ordered_scan<kary_tree, Key>;

  enum class state { clean, iflag, dflag, mark };

  struct node;
  struct info_record;
  using update_word = tagged_word<info_record, Atomics>;
  using child_word = tagged_word<node, Atomics>;
  using update_t = tagged_ptr<info_record>;
  using child_ptr = tagged_ptr<node>;

  /// One node type for both kinds, cache-line aligned. Leaves:
  /// key_count client keys in keys[0..key_count), children all null.
  /// Internal nodes: key_count == K-1 routing keys, K non-null
  /// children, internal flag set. The leading line carries the key
  /// array plus the count/kind bytes (one line covers the whole
  /// routing scan for the tuned fanouts); the update word and child
  /// edges follow on the next line(s).
  struct alignas(64) node {
    std::array<Key, K - 1> keys{};
    std::uint8_t key_count = 0;
    bool internal = false;
    /// Root only: every routing key is conceptually +∞, so all client
    /// keys route to child 0 and `keys` is never read (it holds
    /// value-initialized garbage — never use it for pruning or
    /// validation when this flag is set).
    bool routes_infinite = false;
    update_word update;  // meaningful on internal nodes
    std::array<child_word, K> children;

    [[nodiscard]] bool is_leaf() const noexcept { return !internal; }
  };

  struct replace_fields {
    node* parent;
    node* old_child;
    node* new_child;
    unsigned child_index;
  };
  struct coalesce_fields {
    node* grandparent;
    node* parent;
    node* union_leaf;
    update_t pupdate;
    unsigned parent_index;  // index of parent in grandparent's children
  };

  struct info_record {
    union {
      replace_fields replace;
      coalesce_fields coalesce;
    };
    std::atomic<std::uint32_t> refs{1};  // update words holding it
    info_record() : replace{} {}
  };

  struct search_result {
    node* grandparent = nullptr;
    node* parent = nullptr;
    node* leaf = nullptr;
    update_t gpupdate{};
    update_t pupdate{};
    unsigned parent_index = 0;  // parent's slot in grandparent
    unsigned child_index = 0;   // leaf's slot in parent
    // Root-relative count of internal nodes strictly above the node
    // try_resume would anchor on (grandparent when recorded, else
    // parent). A resumed descent seeds its depth counter from this so
    // seek_depth histograms report the full path traversed from the
    // root, not just the tail below the anchor. Maintained only when
    // Stats::enabled.
    std::uint64_t anchor_depth = 0;
  };

  static state update_state(update_t u) noexcept {
    const bool f = u.flagged(), t = u.tagged();
    if (f && t) return state::mark;
    if (f) return state::iflag;
    if (t) return state::dflag;
    return state::clean;
  }

  [[nodiscard]] bool key_eq(const Key& a, const Key& b) const {
    return !less_(a, b) && !less_(b, a);
  }

  /// Child slot for `key` at internal node `n`: the first routing key
  /// strictly greater than `key` decides (branch-free reduction).
  [[nodiscard]] unsigned child_index_for(const node* n,
                                         const Key& key) const {
    if (n->routes_infinite) return 0;
    return multiway::route_index(n->keys.data(), n->key_count, key, less_);
  }

  [[nodiscard]] bool leaf_contains(const node* n, const Key& key) const {
    return multiway::contains_key(n->keys.data(), n->key_count, key, less_);
  }

  // --- seek ---------------------------------------------------------------

  void seek(const Key& key, search_result& s) const {
    search_from(root_, key, s);
  }

  /// Retry seek after a failed CAS. Under restart::from_anchor, resume
  /// from the deepest still-unmarked node of the previous descent
  /// (grandparent when one was recorded, else the parent): internal
  /// nodes leave the tree only via COALESCE, which MARKs them first and
  /// marks are terminal, so an unmarked anchor is still reachable; its
  /// routing keys are immutable, so it still routes `key`. A resumed
  /// descent that finds the leaf directly under the anchor reports no
  /// grandparent, which just disables COALESCE for that attempt.
  void seek_retry(const Key& key, search_result& s) const {
    if constexpr (Restart::resume_from_anchor) {
      if (try_resume(key, s)) {
        stats_.on_seek_resume_local();
        return;
      }
      stats_.on_seek_anchor_fallback();
    }
    seek(key, s);
  }

  bool try_resume(const Key& key, search_result& s) const {
    node* anchor = s.grandparent != nullptr ? s.grandparent : s.parent;
    if (anchor == nullptr) return false;
    // The pin keeps the anchor dereferenceable. seq_cst so the mark
    // test orders after whatever CAS failure sent us here.
    if (update_state(anchor->update.load(std::memory_order_seq_cst)) ==
        state::mark) {
      return false;
    }
    // Seed the resumed descent's depth counter with the anchor's
    // root-relative depth (captured before seek resets `s`) so on_seek
    // reports the full path length, not the post-anchor tail.
    const std::uint64_t base_depth = s.anchor_depth;
    search_from(anchor, key, s, base_depth);
    return true;
  }

  /// Descent from `start` to a leaf: the pin keeps every node
  /// dereferenceable; stale results are caught by the CAS protocol.
  void search_from(node* start, const Key& key, search_result& s,
                   std::uint64_t base_depth = 0) const {
    s = search_result{};
    [[maybe_unused]] std::uint64_t depth = base_depth;
    node* current = start;
    while (current->internal) {
      if constexpr (Stats::enabled) ++depth;
      s.grandparent = s.parent;
      s.gpupdate = s.pupdate;
      s.parent_index = s.child_index;
      s.parent = current;
      s.pupdate = current->update.load();
      const unsigned index = child_index_for(current, key);
      s.child_index = index;
      node* next = current->children[index].load().address();
      if constexpr (use_backoff) {
        // Dependent-load chain: overlap the next node's miss with this
        // level's bookkeeping. Two lines: keys, then update+children.
        prefetch_ro(next);
        prefetch_ro(reinterpret_cast<const char*>(next) + 64);
      }
      current = next;
    }
    s.leaf = current;
    if constexpr (Stats::enabled) {
      stats_.on_seek(depth);
      // Depth above the node try_resume would anchor on: the parent was
      // counted at `depth`, the grandparent one step earlier.
      s.anchor_depth = s.grandparent != nullptr ? depth - 2
                       : s.parent != nullptr    ? depth - 1
                                                : base_depth;
    }
  }

  // --- helping ------------------------------------------------------------

  /// Help the operation recorded in update word value `u`.
  void help(update_t u) const {
    const state st = update_state(u);
    if (st == state::clean) return;
    stats_.on_help();
    switch (st) {
      case state::iflag:
        help_replace(u.address());
        break;
      case state::dflag:
        help_coalesce(u.address());
        break;
      case state::mark:
        help_marked(u.address());
        break;
      case state::clean:
        break;
    }
  }

  void help_replace(info_record* op) const {
    // Swing the parent's recorded child slot, then unflag.
    child_ptr expected = child_ptr::clean(op->replace.old_child);
    stats_.on_cas();
    op->replace.parent->children[op->replace.child_index].compare_exchange(
        expected, child_ptr::clean(op->replace.new_child));
    update_t uexp(op, /*iflag=*/true, /*dflag=*/false);
    stats_.on_cas();
    op->replace.parent->update.compare_exchange(uexp,
                                                update_t(op, false, false));
  }

  /// Returns true if the coalesce committed (parent marked), false if
  /// it aborted because the parent could not be marked.
  bool help_coalesce(info_record* op) const {
    node* parent = op->coalesce.parent;
    update_t expected = op->coalesce.pupdate;
    stats_.on_cas();
    const bool marked = parent->update.compare_exchange(
        expected, update_t(op, /*iflag=*/true, /*dflag=*/true));
    if (marked) release_info(op->coalesce.pupdate.address());
    if (marked || expected == update_t(op, true, true)) {
      help_marked(op);
      return true;
    }
    // The parent is busy with another operation. Help it, then abort
    // our coalesce by unflagging the grandparent.
    help(expected);
    update_t gexp(op, /*iflag=*/false, /*dflag=*/true);
    stats_.on_cas();
    op->coalesce.grandparent->update.compare_exchange(
        gexp, update_t(op, false, false));
    return false;
  }

  void help_marked(info_record* op) const {
    child_ptr expected = child_ptr::clean(op->coalesce.parent);
    stats_.on_cas();
    op->coalesce.grandparent->children[op->coalesce.parent_index]
        .compare_exchange(expected,
                          child_ptr::clean(op->coalesce.union_leaf));
    update_t gexp(op, /*iflag=*/false, /*dflag=*/true);
    stats_.on_cas();
    op->coalesce.grandparent->update.compare_exchange(
        gexp, update_t(op, false, false));
  }

  // --- modify operations ---------------------------------------------------

  bool insert_impl(const Key& key) {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    [[maybe_unused]] backoff delay;
    search_result s;
    seek(key, s);
    for (;;) {
      if (leaf_contains(s.leaf, key)) return false;
      if (update_state(s.pupdate) != state::clean) {
        help(s.pupdate);
        stats_.on_seek_restart(stats::restart_kind::cleanup_mode);
        if constexpr (use_backoff) delay();
        seek_retry(key, s);
        continue;
      }
      node* replacement = (s.leaf->key_count < leaf_capacity)
                              ? make_leaf_with(s.leaf, &key, nullptr)
                              : sprout(s.leaf, key);
      info_record* op = make_info();
      op->replace = {s.parent, s.leaf, replacement, s.child_index};
      op->refs.store(2, std::memory_order_relaxed);  // parent + our help

      update_t expected = s.pupdate;
      stats_.on_cas();
      if (s.parent->update.compare_exchange(
              expected, update_t(op, /*iflag=*/true, /*dflag=*/false))) {
        help_replace(op);
        release_info(op);
        release_info(s.pupdate.address());
        if constexpr (Reclaimer::reclaims_eagerly) {
          reclaimer_.retire(s.leaf, &node_deleter, &node_pool_);
        }
        return true;
      }
      destroy_replacement(replacement);
      destroy_info(op);
      help(expected);
      stats_.on_seek_restart(stats::restart_kind::injection_fail);
      if constexpr (use_backoff) delay();
      seek_retry(key, s);
    }
  }

  bool erase_impl(const Key& key) {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    [[maybe_unused]] backoff delay;
    search_result s;
    seek(key, s);
    for (;;) {
      if (!leaf_contains(s.leaf, key)) return false;
      if (update_state(s.pupdate) != state::clean) {
        help(s.pupdate);
        stats_.on_seek_restart(stats::restart_kind::cleanup_mode);
        if constexpr (use_backoff) delay();
        seek_retry(key, s);
        continue;
      }

      // Decide between REPLACE and COALESCE. Coalescing needs a
      // grandparent with a clean update word and all of the parent's
      // children to be leaves whose surviving keys fit in one leaf. A
      // busy grandparent does not block the erase: fall back to
      // REPLACE and let collapse_upward prune later; the fallback is
      // simpler than helping and retrying.
      std::array<node*, K> siblings{};
      std::array<Key, K> union_keys{};
      unsigned union_count = 0;
      const bool coalesce =
          s.grandparent != nullptr &&
          update_state(s.gpupdate) == state::clean &&
          gather_children(s, &key, siblings, union_keys, union_count);

      if (!coalesce) {
        node* replacement = make_leaf_with(s.leaf, nullptr, &key);
        // Read while the leaf is still private: once published, another
        // thread may replace and retire it.
        const bool emptied = (replacement->key_count == 0);
        info_record* op = make_info();
        op->replace = {s.parent, s.leaf, replacement, s.child_index};
        op->refs.store(2, std::memory_order_relaxed);  // parent + our help
        update_t expected = s.pupdate;
        stats_.on_cas();
        if (s.parent->update.compare_exchange(
                expected, update_t(op, /*iflag=*/true, /*dflag=*/false))) {
          help_replace(op);
          release_info(op);
          release_info(s.pupdate.address());
          if constexpr (Reclaimer::reclaims_eagerly) {
            reclaimer_.retire(s.leaf, &node_deleter, &node_pool_);
          }
          if (emptied) collapse_upward(key);
          return true;
        }
        destroy_node(replacement);
        destroy_info(op);
        help(expected);
        stats_.on_seek_restart(stats::restart_kind::injection_fail);
        if constexpr (use_backoff) delay();
        seek_retry(key, s);
        continue;
      }

      // COALESCE path (EFRB delete shape: DFLAG gp, MARK p, swing gp).
      node* union_leaf = make_leaf_from(union_keys, union_count);
      info_record* op = make_info();
      op->coalesce = {s.grandparent, s.parent, union_leaf, s.pupdate,
                      s.parent_index};
      op->refs.store(2, std::memory_order_relaxed);  // grandparent + MARK
      update_t expected = s.gpupdate;
      stats_.on_cas();
      if (s.grandparent->update.compare_exchange(
              expected, update_t(op, /*iflag=*/false, /*dflag=*/true))) {
        release_info(s.gpupdate.address());
        const bool committed = help_coalesce(op);
        release_info(op);  // the MARK reference: spliced out, or unused
        if (committed) {
          if constexpr (Reclaimer::reclaims_eagerly) {
            // The winner retires the parent and all its leaf children.
            reclaimer_.retire(s.parent, &node_deleter, &node_pool_);
            for (node* sib : siblings) {
              reclaimer_.retire(sib, &node_deleter, &node_pool_);
            }
          }
          collapse_upward(key);  // cascade: gp may now be collapsible
          return true;
        }
        destroy_node(union_leaf);
      } else {
        destroy_node(union_leaf);
        destroy_info(op);
        help(expected);
      }
      stats_.on_seek_restart(stats::restart_kind::injection_fail);
      if constexpr (use_backoff) delay();
      seek_retry(key, s);
    }
  }

  /// Read the parent's K children and collect their keys (minus
  /// `removed` when non-null) into `buf`, bounded by leaf_capacity.
  /// Returns false when the parent is not coalescible: a non-leaf or
  /// null child, too many surviving keys, or (when `removed` is set)
  /// the searched leaf no longer being child s.child_index — a
  /// concurrent replace swapped it, making the union size wrong; the
  /// caller's REPLACE/retry covers that case. Logical staleness of the
  /// whole read is caught by the MARK CAS, whose expected value is the
  /// full pupdate word from the descent.
  bool gather_children(const search_result& s, const Key* removed,
                       std::array<node*, K>& siblings,
                       std::array<Key, K>& buf, unsigned& count) const {
    count = 0;
    [[maybe_unused]] unsigned total = 0;
    for (unsigned i = 0; i < K; ++i) {
      node* sib =
          s.parent->children[i].load(std::memory_order_acquire).address();
      if (sib == nullptr || sib->internal) return false;
      for (unsigned j = 0; j < sib->key_count; ++j) {
        const Key& k = sib->keys[j];
        if (removed != nullptr && key_eq(*removed, k)) continue;
        if (count >= leaf_capacity) return false;  // union would overflow
        buf[count++] = k;
      }
      siblings[i] = sib;
    }
    if (removed != nullptr && siblings[s.child_index] != s.leaf) return false;
    return true;
  }

  /// Best-effort maintenance: while the parent on `key`'s access path
  /// is an internal node whose children are all leaves jointly holding
  /// at most one leaf's worth of keys, collapse it into a single leaf.
  /// Runs after erases that emptied a leaf so fully drained subtrees
  /// cascade back to (sentinel root + one leaf) instead of leaving
  /// chains of empty internal nodes. One failed CAS stops the pass —
  /// it is pure maintenance, another operation's progress covers ours.
  void collapse_upward(const Key& key) {
    for (;;) {
      search_result s;
      seek(key, s);
      if (s.grandparent == nullptr) return;
      if (update_state(s.gpupdate) != state::clean ||
          update_state(s.pupdate) != state::clean) {
        return;
      }
      std::array<node*, K> siblings{};
      std::array<Key, K> union_keys{};
      unsigned union_count = 0;
      if (!gather_children(s, nullptr, siblings, union_keys, union_count)) {
        return;
      }
      node* union_leaf = make_leaf_from(union_keys, union_count);
      info_record* op = make_info();
      op->coalesce = {s.grandparent, s.parent, union_leaf, s.pupdate,
                      s.parent_index};
      op->refs.store(2, std::memory_order_relaxed);  // grandparent + MARK
      update_t expected = s.gpupdate;
      stats_.on_cas();
      if (!s.grandparent->update.compare_exchange(
              expected, update_t(op, /*iflag=*/false, /*dflag=*/true))) {
        destroy_node(union_leaf);
        destroy_info(op);
        return;
      }
      release_info(s.gpupdate.address());
      const bool committed = help_coalesce(op);
      release_info(op);  // the MARK reference: spliced out, or unused
      if (!committed) {
        destroy_node(union_leaf);
        return;
      }
      stats_.on_cleanup();
      if constexpr (Reclaimer::reclaims_eagerly) {
        reclaimer_.retire(s.parent, &node_deleter, &node_pool_);
        for (node* sib : siblings) {
          reclaimer_.retire(sib, &node_deleter, &node_pool_);
        }
      }
      // Collapsed one level; the new union leaf's parent may now be
      // collapsible too.
    }
  }

  // --- ordered scans -------------------------------------------------------

  /// Pinned scan (epoch/leaky): explicit-stack DFS over the current
  /// edges with routing-key pruning. Child i of an internal node
  /// covers [keys[i-1], keys[i]); children pushed high-to-low so pops
  /// run ascending. Each edge is read once — a concurrent REPLACE,
  /// SPROUT, or COALESCE swings whole subtrees, so whichever side of
  /// the swing the single read observes yields a sorted, dedup-free
  /// interval-contract result.
  template <typename Emit>
  void scan_pinned(const Key* lo, const Key* hi, bool closed,
                   Emit& emit) const {
    std::vector<const node*> stack{root_};
    while (!stack.empty()) {
      const node* n = stack.back();
      stack.pop_back();
      if (n->is_leaf()) {
        for (unsigned i = 0; i < n->key_count; ++i) {
          const Key& k = n->keys[i];
          if (this->in_range(k, lo, hi, closed) && !emit(k)) return;
        }
        continue;
      }
      for (unsigned i = K; i-- > 0;) {
        const node* c = n->children[i].load().address();
        if (c == nullptr) continue;
        if (!n->routes_infinite) {
          if (i > 0 && hi != nullptr) {
            const Key& lbound = n->keys[i - 1];  // child keys >= lbound
            if (closed ? less_(*hi, lbound) : !less_(lbound, *hi)) continue;
          }
          if (i + 1 < K && lo != nullptr && !less_(*lo, n->keys[i])) {
            continue;  // child keys < keys[i] <= lo
          }
        }
        stack.push_back(c);
      }
    }
  }

  // --- node construction ---------------------------------------------------

  static constexpr std::size_t node_slab_bytes() noexcept {
    // Slabs sized to the fat node: at least 256 nodes per refill so
    // wide fanouts do not thrash the global slab lock.
    constexpr std::size_t want = sizeof(node) * 256;
    return want > (std::size_t{1} << 16) ? want : (std::size_t{1} << 16);
  }

  node* alloc_node() const {
    stats_.on_alloc();
    return new (node_pool_.allocate(sizeof(node))) node{};
  }

  /// New leaf = `base`'s keys, plus `added` (if non-null), minus
  /// `removed` (if non-null). Keeps the array sorted.
  node* make_leaf_with(const node* base, const Key* added,
                       const Key* removed) const {
    node* n = alloc_node();
    unsigned count = 0;
    bool added_done = (added == nullptr);
    for (unsigned i = 0; i < base->key_count; ++i) {
      const Key& k = base->keys[i];
      if (removed != nullptr && key_eq(*removed, k)) continue;
      if (!added_done && less_(*added, k)) {
        n->keys[count++] = *added;
        added_done = true;
      }
      n->keys[count++] = k;
    }
    if (!added_done) n->keys[count++] = *added;
    n->key_count = static_cast<std::uint8_t>(count);
    LFBST_ASSERT(count <= leaf_capacity, "leaf overflow in make_leaf_with");
    return n;
  }

  /// SPROUT: distribute the full leaf's K-1 keys plus `key` over K
  /// fresh one-key leaves under a new internal node whose routing keys
  /// are the upper K-1 of the K sorted keys.
  node* sprout(const node* full_leaf, const Key& key) const {
    std::array<Key, K> all{};
    unsigned count = 0;
    bool placed = false;
    for (unsigned i = 0; i < full_leaf->key_count; ++i) {
      const Key& k = full_leaf->keys[i];
      if (!placed && less_(key, k)) {
        all[count++] = key;
        placed = true;
      }
      all[count++] = k;
    }
    if (!placed) all[count++] = key;
    LFBST_ASSERT(count == K, "sprout expects exactly K keys");

    node* internal = alloc_node();
    internal->internal = true;
    internal->key_count = K - 1;
    for (unsigned i = 0; i < K - 1; ++i) internal->keys[i] = all[i + 1];
    for (unsigned i = 0; i < K; ++i) {
      node* leaf = alloc_node();
      leaf->keys[0] = all[i];
      leaf->key_count = 1;
      internal->children[i].store_relaxed(child_ptr::clean(leaf));
    }
    return internal;
  }

  /// Leaf from a gathered, already-sorted key buffer (children are
  /// ordered by the routing keys, so slot-order concatenation sorts).
  node* make_leaf_from(const std::array<Key, K>& buf, unsigned count) const {
    node* n = alloc_node();
    for (unsigned i = 0; i < count; ++i) n->keys[i] = buf[i];
    n->key_count = static_cast<std::uint8_t>(count);
    LFBST_ASSERT(count <= leaf_capacity, "union leaf overflow");
    return n;
  }

  node* make_internal_sentinel() {
    node* n = alloc_node();
    n->internal = true;
    n->routes_infinite = true;
    n->key_count = K - 1;
    for (unsigned i = 0; i < K; ++i) {
      node* leaf = alloc_node();  // empty leaf
      n->children[i].store_relaxed(child_ptr::clean(leaf));
    }
    return n;
  }

  info_record* make_info() const {
    stats_.on_alloc();
    return new (info_pool_.allocate(sizeof(info_record))) info_record();
  }

  void destroy_node(node* n) const {
    n->~node();
    node_pool_.deallocate(n);
  }
  /// Destroys an unpublished replacement (a leaf, or a sprouted
  /// internal node together with its fresh children).
  void destroy_replacement(node* n) const {
    if (n->internal) {
      for (unsigned i = 0; i < K; ++i) {
        destroy_node(n->children[i].load().address());
      }
    }
    destroy_node(n);
  }
  void destroy_info(info_record* op) const {
    op->~info_record();
    info_pool_.deallocate(op);
  }
  static void node_deleter(void* obj, void* ctx) noexcept {
    static_cast<node*>(obj)->~node();
    static_cast<node_pool*>(ctx)->deallocate(obj);
  }
  static void info_deleter(void* obj, void* ctx) noexcept {
    static_cast<info_record*>(obj)->~info_record();
    static_cast<node_pool*>(ctx)->deallocate(obj);
  }
  /// Drops one update-word reference to `op`; the last one retires it.
  /// A CLEAN word keeps the address of the record that last flagged it,
  /// and a descent that read the word may still CAS against that value.
  /// Retiring the record when its operation ends would let the address
  /// come back on the same word (ABA) and validate a stale CAS. So each
  /// record is released by the CAS that moves a word off it (flag or
  /// MARK), and a COALESCE's MARK reference by the end of its attempt.
  /// The initiator also holds a reference while it helps its own
  /// record. (A COALESCE's MARK reference already covers its
  /// initiator.)
  void release_info(info_record* op) const {
    if constexpr (Reclaimer::reclaims_eagerly) {
      if (op != nullptr &&
          op->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        reclaimer_.retire(op, &info_deleter, &info_pool_);
      }
    }
  }

  // --- quiescent helpers ---------------------------------------------------

  template <typename F>
  void walk(const node* n, F& fn) const {
    if (n->is_leaf()) {
      for (unsigned i = 0; i < n->key_count; ++i) fn(n->keys[i]);
      return;
    }
    for (unsigned i = 0; i < K; ++i) {
      walk(n->children[i].load(std::memory_order_relaxed).address(), fn);
    }
  }

  void validate_node(const node* n, const Key* low, const Key* high,
                     bool is_root, std::string& err) const {
    if (!is_root && n->routes_infinite) {
      err += "routes_infinite below the root; ";
    }
    if (n->is_leaf()) {
      for (unsigned i = 0; i < n->key_count; ++i) {
        if (i + 1 < n->key_count && !less_(n->keys[i], n->keys[i + 1])) {
          err += "leaf keys not strictly sorted; ";
        }
        if (low != nullptr && less_(n->keys[i], *low)) {
          err += "leaf key below bound; ";
        }
        if (high != nullptr && !less_(n->keys[i], *high)) {
          err += "leaf key not below bound; ";
        }
      }
      return;
    }
    if (n->key_count != K - 1) err += "internal node without K-1 routes; ";
    if (update_state(n->update.load(std::memory_order_relaxed)) !=
        state::clean) {
      err += "reachable non-CLEAN update word at quiescence; ";
    }
    if (!n->routes_infinite) {
      for (unsigned i = 0; i + 1 < K - 1; ++i) {
        if (less_(n->keys[i + 1], n->keys[i])) {
          err += "routing keys out of order; ";
        }
      }
    }
    for (unsigned i = 0; i < K; ++i) {
      const node* child =
          n->children[i].load(std::memory_order_relaxed).address();
      if (child == nullptr) {
        err += "internal node with missing child; ";
        continue;
      }
      // The root's key array is garbage: its children get no bounds
      // (children 1..K-1 are permanently empty leaves anyway).
      const Key* lo =
          (i == 0 || n->routes_infinite) ? low : &n->keys[i - 1];
      const Key* hi =
          (i == K - 1 || n->routes_infinite) ? high : &n->keys[i];
      validate_node(child, lo, hi, /*is_root=*/false, err);
    }
  }

  void destroy_reachable(node* root) {
    std::vector<node*> stack{root};
    while (!stack.empty()) {
      node* n = stack.back();
      stack.pop_back();
      if (n->internal) {
        for (unsigned i = 0; i < K; ++i) {
          if (node* c =
                  n->children[i].load(std::memory_order_relaxed).address()) {
            stack.push_back(c);
          }
        }
      }
      destroy_node(n);
    }
  }

  /// Key-hotness hook for the obs heatmap; vanishes unless the stats
  /// policy implements on_op_key and the key converts to an integer.
  void note_key(stats::op_kind kind, const Key& key) const noexcept {
    if constexpr (requires(std::int64_t k) { stats_.on_op_key(kind, k); } &&
                  std::is_convertible_v<Key, std::int64_t>) {
      stats_.on_op_key(kind, static_cast<std::int64_t>(key));
    }
  }

  [[no_unique_address]] Compare less_{};
  [[no_unique_address]] mutable Stats stats_{};
  mutable node_pool node_pool_;
  mutable node_pool info_pool_;
  mutable Reclaimer reclaimer_{};
  node* root_ = nullptr;
};

}  // namespace lfbst
