// White-box hooks into nm_tree for deterministic tests of the marking
// and helping machinery. Declared a friend by the tree; everything here
// is test-only and assumes single-threaded use unless stated otherwise.
//
// The key capability: simulating a *stalled* delete. A real delete that
// crashed (or was preempted forever) right after its injection CAS
// leaves a flagged edge in the tree; lock-freedom demands that other
// operations complete it. These hooks plant exactly that state.
#pragma once

#include "core/natarajan_tree.hpp"

namespace lfbst {

struct nm_tree_test_access {
  /// Runs a seek and reports the four access-path nodes as opaque
  /// pointers plus their keys' client values where applicable.
  template <typename Tree>
  static auto seek(const Tree& t, const typename Tree::key_type& key) {
    typename Tree::seek_record sr;
    t.seek(key, sr);
    return sr;
  }

  template <typename Tree>
  static bool leaf_key_matches(const Tree& t,
                               const typename Tree::key_type& key) {
    auto sr = seek(t, key);
    return t.holds(sr.leaf, key);
  }

  /// Plants the flag a delete's injection CAS would plant, then stops —
  /// the signature of a delete that stalled before cleanup. Returns
  /// false if the key is absent or the edge was already marked.
  template <typename Tree>
  static bool inject_stalled_delete(Tree& t,
                                    const typename Tree::key_type& key) {
    typename Tree::seek_record sr;
    t.seek(key, sr);
    if (!t.holds(sr.leaf, key)) return false;
    auto& child_field = *sr.leaf_edge;
    auto expected = Tree::edge_to(sr.leaf);
    return child_field.compare_exchange(
        expected, expected.with_marks(/*flagged=*/true, /*tagged=*/false));
  }

  /// Plants flag + sibling tag — a delete stalled between its BTS and
  /// its ancestor CAS. Returns false if the key is absent.
  template <typename Tree>
  static bool inject_stalled_delete_tagged(
      Tree& t, const typename Tree::key_type& key) {
    if (!inject_stalled_delete(t, key)) return false;
    typename Tree::seek_record sr;
    t.seek(key, sr);
    auto& sibling_field = sr.leaf_edge == &sr.parent->left ? sr.parent->right
                                                           : sr.parent->left;
    sibling_field.bts_tag();
    return true;
  }

  /// Runs the retry-path seek (seek_retry) against a caller-held seek
  /// record — the exact call a failed CAS makes. Under
  /// restart::from_anchor this exercises anchor validation + local
  /// resume / root fallback; under restart::from_root it is a root seek.
  template <typename Tree>
  static void retry_seek(const Tree& t, const typename Tree::key_type& key,
                         typename Tree::seek_record& sr) {
    t.seek_retry(key, sr);
  }

  /// Directly probes anchor validation for a record. On success the
  /// record has been resumed from the anchor (sr is updated); on
  /// failure sr is untouched and the caller would root-seek.
  template <typename Tree>
  static bool anchor_holds(const Tree& t, const typename Tree::key_type& key,
                           typename Tree::seek_record& sr) {
    return t.try_seek_from_anchor(key, sr);
  }

  /// Runs one cleanup pass for `key` using a fresh seek record; returns
  /// whether this call's CAS performed the physical removal.
  template <typename Tree>
  static bool run_cleanup(Tree& t, const typename Tree::key_type& key) {
    typename Tree::seek_record sr;
    t.seek(key, sr);
    return t.cleanup(sr);
  }

  /// True iff two seek records name the same four access-path nodes.
  template <typename Record>
  static bool records_equal(const Record& a, const Record& b) {
    return a.ancestor == b.ancestor && a.successor == b.successor &&
           a.parent == b.parent && a.leaf == b.leaf;
  }

  /// True iff a held record's leaf carries `key`.
  template <typename Tree>
  static bool record_leaf_matches(const Tree& t,
                                  const typename Tree::key_type& key,
                                  const typename Tree::seek_record& sr) {
    return t.holds(sr.leaf, key);
  }

  /// Whether a held record skipped a tagged region (successor ≠ parent).
  template <typename Record>
  static bool record_skipped_tagged_region(const Record& sr) {
    return sr.successor != sr.parent;
  }

  /// True iff the edge from the seek parent to the seek leaf for `key`
  /// is flagged / tagged right now.
  template <typename Tree>
  static std::pair<bool, bool> edge_marks(const Tree& t,
                                          const typename Tree::key_type& key) {
    typename Tree::seek_record sr;
    t.seek(key, sr);
    auto word = sr.leaf_edge->load();
    return {word.flagged(), word.tagged()};
  }

  /// Depth of the leaf on the access path for `key` (root ℝ = depth 0).
  /// ℝ, 𝕊 and I(∞₀) route every client key left by position.
  template <typename Tree>
  static std::size_t access_path_depth(const Tree& t,
                                       const typename Tree::key_type& key) {
    std::size_t depth = 0;
    auto e = Tree::edge_to(t.r_);
    while (!e.leaf()) {
      const auto* in = Tree::as_internal(e.address());
      const bool left = depth < 3 || t.less_(key, in->key);
      e = left ? in->left.load(std::memory_order_relaxed)
               : in->right.load(std::memory_order_relaxed);
      ++depth;
    }
    return depth;
  }

  /// Whether the seek's (ancestor,successor) differ from
  /// (grandparent,parent) — i.e. the seek skipped a tagged region.
  template <typename Tree>
  static bool seek_skipped_tagged_region(const Tree& t,
                                         const typename Tree::key_type& key) {
    auto sr = seek(t, key);
    return sr.successor != sr.parent;
  }

  /// Object sizes of the two node kinds.
  template <typename Tree>
  static constexpr std::size_t leaf_bytes() {
    return sizeof(typename Tree::leaf_node);
  }
  template <typename Tree>
  static constexpr std::size_t internal_bytes() {
    return sizeof(typename Tree::internal_node);
  }

  /// Block sizes of the leaf pool and the internal-node pool.
  template <typename Tree>
  static std::pair<std::size_t, std::size_t> pool_block_bytes(const Tree& t) {
    return {t.leaf_pool_.block_size(), t.internal_pool_.block_size()};
  }

  /// The leaf pool and the internal-node pool.
  template <typename Tree>
  static std::pair<const node_pool*, const node_pool*> pools(const Tree& t) {
    return {&t.leaf_pool_, &t.internal_pool_};
  }

  /// Frees every retired node now. Caller guarantees quiescence.
  template <typename Tree>
  static void drain_reclaimer(Tree& t) {
    t.reclaimer_.drain_all_unsafe();
  }

  /// Sum over threads of each thread's most retired-but-unfreed nodes
  /// (an epoch-reclaimed tree's backlog bound).
  template <typename Tree>
  static std::size_t reclaimer_high_water(const Tree& t) {
    return t.reclaimer_.pending_high_water();
  }

  /// Count of reachable nodes (internal + leaves, sentinels included).
  template <typename Tree>
  static std::size_t reachable_node_count(const Tree& t) {
    std::size_t n = 0;
    std::vector<typename Tree::ptr_t> stack{Tree::edge_to(t.r_)};
    while (!stack.empty()) {
      const auto e = stack.back();
      stack.pop_back();
      ++n;
      if (e.leaf()) continue;
      const auto* in = Tree::as_internal(e.address());
      stack.push_back(in->left.load(std::memory_order_relaxed));
      stack.push_back(in->right.load(std::memory_order_relaxed));
    }
    return n;
  }
};

}  // namespace lfbst
