// lfbst: EFRB-BST baseline — the lock-free external BST of Ellen,
// Fatourou, Ruppert & van Breugel (PODC 2010), the primary comparison
// point of the paper (§4, "EFRB-BST").
//
// Same external shape as the NM tree, but coordination is *node-level*:
// every internal node carries an `update` word = (state, Info*) with
// state ∈ {CLEAN, IFLAG, DFLAG, MARK}. A modify operation "locks" nodes
// by flagging their update words with a freshly allocated Info record
// describing the operation, so any thread that encounters the flag can
// complete (help) the operation from the record:
//
//   insert: allocate leaf(k), a *copy* of the existing leaf, a new
//           internal node, and an IInfo record (4 objects — Table 1);
//           IFLAG the parent, swing its child edge, unflag. 3 CAS.
//   delete: allocate a DInfo record (1 object); DFLAG the grandparent,
//           MARK the parent (permanent), swing the grandparent's child
//           edge to the sibling, unflag the grandparent. 4 CAS. If the
//           MARK fails, the delete *aborts*: it unflags the grandparent
//           (backtrack CAS) and retries from scratch — the behaviour the
//           NM paper's §5 contrasts with its own non-aborting deletes.
//
// The update word reuses tagged_word: flag bit = IFLAG, tag bit = DFLAG,
// both = MARK, neither = CLEAN, with the Info record address in the
// pointer bits.
//
// Sentinels: root key ∞₂ with children leaf(∞₁), leaf(∞₂); client keys
// all live in the left subtree of the root, so a client leaf always has
// a parent and grandparent.
#pragma once

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
#include "common/tagged_word.hpp"
#include "core/sentinel_key.hpp"
#include "core/stats.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/leaky.hpp"

namespace lfbst {

// The Atomics policy (common/atomics_policy.hpp) interposes on every
// load/CAS of the child and update words, exactly as in nm_tree — the
// dsched scheduler explores this baseline's Info-record helping protocol
// with the same machinery.
template <typename Key, typename Compare = std::less<Key>,
          typename Reclaimer = reclaim::leaky, typename Stats = stats::none,
          typename Atomics = atomics::native>
class efrb_tree {
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

  static constexpr const char* algorithm_name = "EFRB-BST";

  efrb_tree()
      : node_pool_(sizeof(node)), info_pool_(sizeof(info_record)) {
    node* left = make_leaf(skey::inf1());
    node* right = make_leaf(skey::inf2());
    root_ = make_internal(skey::inf2(), left, right);
  }

  efrb_tree(const efrb_tree&) = delete;
  efrb_tree& operator=(const efrb_tree&) = delete;

  ~efrb_tree() {
    destroy_reachable(root_);
    reclaimer_.drain_all_unsafe();
  }

  [[nodiscard]] bool contains(const Key& key) const {
    stats_.on_op_begin(stats::op_kind::search);
    bool found;
    {
      [[maybe_unused]] auto guard = reclaimer_.pin();
      search_result s = search(key);
      found = less_.equal(key, s.leaf->key);
    }
    stats_.on_op_end(stats::op_kind::search, found);
    return found;
  }

  bool insert(const Key& key) {
    stats_.on_op_begin(stats::op_kind::insert);
    const bool inserted = insert_impl(key);
    stats_.on_op_end(stats::op_kind::insert, inserted);
    return inserted;
  }

  bool erase(const Key& key) {
    stats_.on_op_begin(stats::op_kind::erase);
    const bool erased = erase_impl(key);
    stats_.on_op_end(stats::op_kind::erase, erased);
    return erased;
  }

 private:
  bool insert_impl(const Key& key) {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    for (;;) {
      search_result s = search(key);
      if (less_.equal(key, s.leaf->key)) return false;
      if (update_state(s.pupdate) != state::clean) {
        help(s.pupdate);
        stats_.on_seek_restart();
        continue;
      }
      // Four allocations, matching the original algorithm (and Table 1):
      // the new leaf, a copy of the existing leaf, the new internal
      // node, and the IInfo coordination record.
      node* new_leaf = make_leaf(skey(key));
      node* sibling = make_leaf(s.leaf->key);
      node* new_internal;
      if (less_(key, s.leaf->key)) {
        new_internal = make_internal(s.leaf->key, new_leaf, sibling);
      } else {
        new_internal = make_internal(skey(key), sibling, new_leaf);
      }
      info_record* op = make_info();
      op->iinfo = {s.parent, s.leaf, new_internal};

      update_t expected = s.pupdate;
      stats_.on_cas();
      if (s.parent->update.compare_exchange(
              expected, update_t(op, /*iflag=*/true, /*dflag=*/false))) {
        help_insert(op);  // completes the insert (child CAS + unflag)
        release_info(s.pupdate.address());
        if constexpr (Reclaimer::reclaims_eagerly) {
          // The displaced leaf was replaced by its copy; only the
          // winning inserter retires it (helpers never do).
          reclaimer_.retire(s.leaf, &node_deleter, &node_pool_);
        }
        return true;
      }
      // Flag lost: the nodes we built were never published; recycle them
      // immediately and help whoever beat us.
      stats_.on_cas_fail();
      destroy_node(new_leaf);
      destroy_node(sibling);
      destroy_node(new_internal);
      destroy_info(op);
      help(expected);
      stats_.on_seek_restart();
    }
  }

  bool erase_impl(const Key& key) {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    for (;;) {
      search_result s = search(key);
      if (!less_.equal(key, s.leaf->key)) return false;
      if (update_state(s.gpupdate) != state::clean) {
        help(s.gpupdate);
        stats_.on_seek_restart();
        continue;
      }
      if (update_state(s.pupdate) != state::clean) {
        help(s.pupdate);
        stats_.on_seek_restart();
        continue;
      }
      info_record* op = make_info();
      op->dinfo = {s.grandparent, s.parent, s.leaf, s.pupdate};
      op->refs.store(2, std::memory_order_relaxed);  // grandparent + MARK

      update_t expected = s.gpupdate;
      stats_.on_cas();
      if (s.grandparent->update.compare_exchange(
              expected, update_t(op, /*iflag=*/false, /*dflag=*/true))) {
        release_info(s.gpupdate.address());
        const bool committed = help_delete(op);
        // Committed: the parent's MARK reference leaves with the spliced
        // parent. Aborted: the MARK can no longer land (the parent's word
        // moved past `pupdate`), so its reference is dropped unused.
        release_info(op);
        if (committed) {
          if constexpr (Reclaimer::reclaims_eagerly) {
            // The delete owner retires the two removed nodes.
            reclaimer_.retire(s.parent, &node_deleter, &node_pool_);
            reclaimer_.retire(s.leaf, &node_deleter, &node_pool_);
          }
          return true;
        }
      } else {
        stats_.on_cas_fail();
        destroy_info(op);
        help(expected);
      }
      stats_.on_seek_restart();
    }
  }

 public:
  // --- quiescent observers (same contract as nm_tree) -----------------

  [[nodiscard]] std::size_t size_slow() const {
    std::size_t n = 0;
    for_each_slow([&n](const Key&) { ++n; });
    return n;
  }

  template <typename F>
  void for_each_slow(F&& fn) const {
    // In-order via explicit stack (left-spine push).
    std::vector<const node*> spine;
    const node* n = root_;
    while (n != nullptr || !spine.empty()) {
      while (n != nullptr) {
        spine.push_back(n);
        n = n->left.load(std::memory_order_relaxed).address();
      }
      const node* top = spine.back();
      spine.pop_back();
      if (top->left.load(std::memory_order_relaxed).address() == nullptr &&
          !top->key.is_sentinel()) {
        fn(top->key.key);
      }
      n = top->right.load(std::memory_order_relaxed).address();
    }
  }

  [[nodiscard]] std::string validate() const {
    std::string err;
    if (root_->key.rank != skey::inf2().rank) err += "root key is not inf2; ";
    struct frame {
      const node* n;
      const skey* low;
      const skey* high;
    };
    std::vector<frame> stack{{root_, nullptr, nullptr}};
    while (!stack.empty()) {
      auto [n, low, high] = stack.back();
      stack.pop_back();
      const node* l = n->left.load(std::memory_order_relaxed).address();
      const node* r = n->right.load(std::memory_order_relaxed).address();
      if ((l == nullptr) != (r == nullptr)) {
        err += "external shape violated; ";
        continue;
      }
      if (l != nullptr &&
          update_state(n->update.load(std::memory_order_relaxed)) !=
              state::clean) {
        err += "reachable non-CLEAN update word at quiescence; ";
      }
      if (low != nullptr && less_(n->key, *low)) err += "key below bound; ";
      if (high != nullptr && !less_(n->key, *high)) {
        err += "key not below bound; ";
      }
      if (l != nullptr) {
        stack.push_back({l, low, &n->key});
        stack.push_back({r, &n->key, high});
      }
    }
    return err;
  }

  [[nodiscard]] std::size_t reclaimer_pending() const {
    return reclaimer_.pending();
  }

  /// The Stats policy instance this tree reports into (see nm_tree).
  [[nodiscard]] Stats& stats() const noexcept { return stats_; }

 private:
  using skey = sentinel_key<Key>;

  enum class state { clean, iflag, dflag, mark };

  struct node;
  struct info_record;

  /// (state, Info*) packed via tagged_word: flag bit = IFLAG,
  /// tag bit = DFLAG, both = MARK.
  using update_t = tagged_ptr<info_record>;

  struct node {
    skey key;
    // coordination word (internal only)
    tagged_word<info_record, Atomics> update;
    tagged_word<node, Atomics> left;
    tagged_word<node, Atomics> right;
  };
  using word_t = tagged_word<node, Atomics>;

  struct iinfo_fields {
    node* parent;
    node* leaf;
    node* new_internal;
  };
  struct dinfo_fields {
    node* grandparent;
    node* parent;
    node* leaf;
    update_t pupdate;  // parent's update word as seen by the search
  };

  /// One allocation type for both record kinds; the kind is implied by
  /// the state bits of the update word that points at the record.
  struct info_record {
    union {
      iinfo_fields iinfo;
      dinfo_fields dinfo;
    };
    std::atomic<std::uint32_t> refs{1};  // update words holding it
    info_record() : iinfo{} {}
  };

  struct search_result {
    node* grandparent = nullptr;
    node* parent = nullptr;
    node* leaf = nullptr;
    update_t gpupdate{};
    update_t pupdate{};
  };

  static state update_state(update_t u) noexcept {
    const bool f = u.flagged(), t = u.tagged();
    if (f && t) return state::mark;
    if (f) return state::iflag;
    if (t) return state::dflag;
    return state::clean;
  }

  // --- node/info lifecycle ---------------------------------------------

  node* make_leaf(skey k) {
    stats_.on_alloc();
    node* n = new (node_pool_.allocate(sizeof(node))) node{std::move(k),
                                                           {}, {}, {}};
    return n;
  }

  node* make_internal(skey k, node* l, node* r) {
    stats_.on_alloc();
    node* n = new (node_pool_.allocate(sizeof(node))) node{std::move(k),
                                                           {}, {}, {}};
    n->left.store_relaxed(tagged_ptr<node>::clean(l));
    n->right.store_relaxed(tagged_ptr<node>::clean(r));
    return n;
  }

  info_record* make_info() {
    stats_.on_alloc();
    return new (info_pool_.allocate(sizeof(info_record))) info_record();
  }

  void destroy_node(node* n) {
    n->~node();
    node_pool_.deallocate(n);
  }
  void destroy_info(info_record* op) {
    op->~info_record();
    info_pool_.deallocate(op);
  }

  static void node_deleter(void* obj, void* ctx) noexcept {
    auto* n = static_cast<node*>(obj);
    n->~node();
    static_cast<node_pool*>(ctx)->deallocate(obj);
  }
  static void info_deleter(void* obj, void* ctx) noexcept {
    auto* op = static_cast<info_record*>(obj);
    op->~info_record();
    static_cast<node_pool*>(ctx)->deallocate(obj);
  }

  /// Drops one update-word reference to `op`; the last one retires it.
  /// A CLEAN word keeps the address of the record that last flagged it,
  /// and a search that read the word may still CAS against that value.
  /// Retiring the record when its operation ends would let the address
  /// come back on the same word (ABA) and validate a stale CAS. So each
  /// record is released by the CAS that moves a word off it (flag or
  /// MARK), and a DInfo's MARK reference by the end of its delete; the
  /// grace period then covers every thread that read the old word.
  void release_info(info_record* op) {
    if constexpr (Reclaimer::reclaims_eagerly) {
      if (op != nullptr &&
          op->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        reclaimer_.retire(op, &info_deleter, &info_pool_);
      }
    }
  }

  // --- search (Ellen et al. Search) --------------------------------------

  search_result search(const Key& key) const {
    search_result s;
    s.leaf = root_;
    node* current = root_;
    [[maybe_unused]] std::uint64_t depth = 0;
    while (current->left.load(std::memory_order_acquire).address() !=
           nullptr) {
      if constexpr (Stats::enabled) ++depth;
      s.grandparent = s.parent;
      s.gpupdate = s.pupdate;
      s.parent = current;
      s.pupdate = current->update.load();
      current = less_(key, current->key)
                    ? current->left.load().address()
                    : current->right.load().address();
      s.leaf = current;
    }
    if constexpr (Stats::enabled) stats_.on_seek(depth);
    return s;
  }

  // --- helping ----------------------------------------------------------

  void help(update_t u) {
    // Info-record helping is node-level, not edge-marked: no flagged/
    // tagged distinction to attribute.
    stats_.on_help(stats::help_kind::unattributed);
    switch (update_state(u)) {
      case state::iflag:
        help_insert(u.address());
        break;
      case state::mark:
        help_marked(u.address());
        break;
      case state::dflag:
        help_delete(u.address());
        break;
      case state::clean:
        break;
    }
  }

  void help_insert(info_record* op) {
    // Swing the parent's child edge from the old leaf to the new
    // internal node, then unflag.
    cas_child(op->iinfo.parent, op->iinfo.leaf, op->iinfo.new_internal);
    update_t expected(op, /*iflag=*/true, /*dflag=*/false);
    stats_.on_cas();
    if (!op->iinfo.parent->update.compare_exchange(
            expected, update_t(op, false, false))) {  // CLEAN, record kept
      stats_.on_cas_fail();
    }
  }

  /// Returns true if the delete committed, false if it must abort
  /// (backtrack) because the parent could not be marked.
  bool help_delete(info_record* op) {
    update_t expected = op->dinfo.pupdate;
    stats_.on_cas();
    const bool marked = op->dinfo.parent->update.compare_exchange(
        expected, update_t(op, /*iflag=*/true, /*dflag=*/true));  // MARK
    if (!marked) stats_.on_cas_fail();
    if (marked) release_info(op->dinfo.pupdate.address());
    if (marked || expected == update_t(op, true, true)) {
      help_marked(op);
      return true;
    }
    // Someone else owns the parent: help them, then backtrack our DFLAG
    // so the grandparent becomes CLEAN again and we can retry.
    help(expected);
    update_t gp_expected(op, /*iflag=*/false, /*dflag=*/true);
    stats_.on_cas();
    if (!op->dinfo.grandparent->update.compare_exchange(
            gp_expected, update_t(op, false, false))) {
      stats_.on_cas_fail();
    }
    return false;
  }

  void help_marked(info_record* op) {
    // Identify the sibling of the deleted leaf, splice the parent out,
    // then unflag the grandparent.
    node* parent = op->dinfo.parent;
    node* sibling;
    if (parent->right.load().address() == op->dinfo.leaf) {
      sibling = parent->left.load().address();
    } else {
      sibling = parent->right.load().address();
    }
    cas_child(op->dinfo.grandparent, parent, sibling);
    update_t expected(op, /*iflag=*/false, /*dflag=*/true);
    stats_.on_cas();
    if (!op->dinfo.grandparent->update.compare_exchange(
            expected, update_t(op, false, false))) {
      stats_.on_cas_fail();
    }
  }

  /// CAS the child edge of `parent` that currently addresses `old_child`
  /// toward `new_child` (direction chosen by new_child's key — both old
  /// and new cover the same key interval).
  void cas_child(node* parent, node* old_child, node* new_child) {
    word_t& field = less_(new_child->key, parent->key)
                        ? parent->left
                        : parent->right;
    tagged_ptr<node> expected = tagged_ptr<node>::clean(old_child);
    stats_.on_cas();
    if (!field.compare_exchange(expected, tagged_ptr<node>::clean(new_child))) {
      stats_.on_cas_fail();
    }
  }

  void destroy_reachable(node* root) {
    std::vector<node*> stack{root};
    while (!stack.empty()) {
      node* n = stack.back();
      stack.pop_back();
      if (node* l = n->left.load(std::memory_order_relaxed).address()) {
        stack.push_back(l);
      }
      if (node* r = n->right.load(std::memory_order_relaxed).address()) {
        stack.push_back(r);
      }
      destroy_node(n);
    }
    // Info records are not reachable from the tree: leaky mode leaves
    // them in the pool, epoch mode retired the released ones, and those
    // still held by live update words go with the pool's slabs.
  }

  [[no_unique_address]] sentinel_less<Key, Compare> less_{};
  [[no_unique_address]] mutable Stats stats_{};
  node_pool node_pool_;
  node_pool info_pool_;
  mutable Reclaimer reclaimer_{};
  node* root_ = nullptr;
};

}  // namespace lfbst
