// lfbst: BCCO-BST baseline — the lock-based concurrent relaxed-balance
// AVL tree of Bronson, Casper, Chafi & Olukotun (PPoPP 2010), the
// lock-based comparison point of the paper's evaluation (§4).
//
// Three ideas define the algorithm:
//
//   1. *Optimistic hand-over-hand traversal.* Readers take no locks.
//      Every node carries a version word; a rotation ("shrink") sets a
//      Shrinking bit for its duration and bumps a counter when done, and
//      unlinking sets a permanent Unlinked bit. A traversal captures a
//      node's version, reads the child pointer, re-validates the
//      version, and descends; if validation fails the search retries
//      from the parent (or propagates RETRY upward when the parent
//      itself changed).
//
//   2. *Partially external deletion.* Removing a key held by a node with
//      two children does not restructure the tree: the node's `present`
//      flag is cleared and it stays as a routing node (re-usable by a
//      later insert of the same key). Nodes with at most one child are
//      physically unlinked under the locks of node and parent. Routing
//      nodes left with fewer than two children are unlinked
//      opportunistically during rebalancing.
//
//   3. *Relaxed AVL balancing.* Heights may be stale; writers repair
//      height and balance bottom-up after each structural change
//      (fixHeightAndRebalance), performing single or double rotations
//      under the locks of the affected nodes only. Balance is restored
//      eventually rather than instantly, so rebalancing never blocks
//      readers and rarely blocks disjoint writers.
//
// The paper benchmarks Wicht's C++ port of this algorithm; this is a
// from-scratch port of the same design (DESIGN.md substitution table).
// Progress: blocking (deadlock-free: locks are acquired parent-before-
// child along tree edges). Unlinked-node memory follows the same
// Reclaimer policies as the lock-free trees.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "alloc/node_pool.hpp"
#include "common/assert.hpp"
#include "common/backoff.hpp"
#include "common/spinlock.hpp"
#include "core/stats.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/leaky.hpp"

namespace lfbst {

template <typename Key, typename Compare = std::less<Key>,
          typename Reclaimer = reclaim::leaky>
class bcco_tree {
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
  using stats_policy = stats::none;
  using reclaimer_type = Reclaimer;

  static constexpr const char* algorithm_name = "BCCO-BST";

  bcco_tree() : pool_(sizeof(node)) {
    // rootHolder: an unkeyed pseudo-node whose right child is the tree.
    // Its version never changes and it is never unlinked, so top-level
    // retries simply re-enter the loop.
    root_holder_ = make_node(Key{}, /*present=*/false);
  }

  bcco_tree(const bcco_tree&) = delete;
  bcco_tree& operator=(const bcco_tree&) = delete;

  ~bcco_tree() {
    destroy_reachable(root_holder_);
    reclaimer_.drain_all_unsafe();
  }

  [[nodiscard]] bool contains(const Key& key) const {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    for (;;) {
      node* right = root_holder_->right.load(std::memory_order_acquire);
      if (right == nullptr) return false;
      const std::uint64_t ovl = right->version.load(std::memory_order_acquire);
      if (is_shrinking_or_unlinked(ovl)) {
        wait_until_not_changing(right);
        continue;
      }
      if (root_holder_->right.load(std::memory_order_acquire) != right) {
        continue;  // the root was swapped while we read its version
      }
      const tri result = attempt_get(key, right, ovl);
      if (result != tri::retry) return result == tri::yes;
    }
  }

  bool insert(const Key& key) {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    return update(key, /*is_insert=*/true);
  }

  bool erase(const Key& key) {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    return update(key, /*is_insert=*/false);
  }

  // --- quiescent observers ----------------------------------------------

  [[nodiscard]] std::size_t size_slow() const {
    std::size_t n = 0;
    for_each_slow([&n](const Key&) { ++n; });
    return n;
  }

  /// In-order walk over present keys; routing nodes are skipped.
  template <typename F>
  void for_each_slow(F&& fn) const {
    std::vector<const node*> spine;
    const node* n = root_holder_->right.load(std::memory_order_relaxed);
    while (n != nullptr || !spine.empty()) {
      while (n != nullptr) {
        spine.push_back(n);
        n = n->left.load(std::memory_order_relaxed);
      }
      const node* top = spine.back();
      spine.pop_back();
      if (top->present.load(std::memory_order_relaxed)) fn(top->key);
      n = top->right.load(std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::string validate() const {
    std::string err;
    struct frame {
      const node* n;
      const node* parent;
      bool has_low = false, has_high = false;
      Key low{}, high{};  // exclusive bounds, by value
    };
    const node* top = root_holder_->right.load(std::memory_order_relaxed);
    if (top == nullptr) return err;
    std::vector<frame> stack{frame{top, root_holder_}};
    while (!stack.empty()) {
      const frame f = stack.back();
      stack.pop_back();
      const node* n = f.n;
      if (n->version.load(std::memory_order_relaxed) & unlinked_bit) {
        err += "reachable unlinked node; ";
      }
      if (n->parent.load(std::memory_order_relaxed) != f.parent) {
        err += "parent pointer mismatch; ";
      }
      if (f.has_low && !less_(f.low, n->key)) err += "key <= low bound; ";
      if (f.has_high && !less_(n->key, f.high)) err += "key >= high bound; ";
      const node* l = n->left.load(std::memory_order_relaxed);
      const node* r = n->right.load(std::memory_order_relaxed);
      if (!n->present.load(std::memory_order_relaxed) && l == nullptr &&
          r == nullptr) {
        // Routing nodes with exactly one child are legal transients of
        // the relaxed scheme, but a *childless* routing node must always
        // be cleaned by fixHeightAndRebalance before quiescence.
        err += "childless routing node at quiescence; ";
      }
      if (l != nullptr) {
        stack.push_back(frame{l, n, f.has_low, true, f.low, n->key});
      }
      if (r != nullptr) {
        stack.push_back(frame{r, n, true, f.has_high, n->key, f.high});
      }
    }
    return err;
  }

  [[nodiscard]] std::size_t reclaimer_pending() const {
    return reclaimer_.pending();
  }

  /// Deepest node depth (diagnostics; relaxed AVL keeps this O(log n)).
  [[nodiscard]] std::size_t height_slow() const {
    std::size_t best = 0;
    std::vector<std::pair<const node*, std::size_t>> stack{
        {root_holder_->right.load(std::memory_order_relaxed), 1}};
    while (!stack.empty()) {
      auto [n, d] = stack.back();
      stack.pop_back();
      if (n == nullptr) continue;
      best = std::max(best, d);
      stack.push_back({n->left.load(std::memory_order_relaxed), d + 1});
      stack.push_back({n->right.load(std::memory_order_relaxed), d + 1});
    }
    return best;
  }

 private:
  // --- version word ------------------------------------------------------
  // bit 0: unlinked (permanent); bit 1: shrinking (held during a
  // rotation); bits 2..63: shrink counter, bumped once per rotation.
  static constexpr std::uint64_t unlinked_bit = 0x1;
  static constexpr std::uint64_t shrinking_bit = 0x2;
  static constexpr std::uint64_t version_incr = 0x4;

  static bool is_shrinking_or_unlinked(std::uint64_t v) noexcept {
    return (v & (unlinked_bit | shrinking_bit)) != 0;
  }

  struct node {
    explicit node(const Key& k) : key(k) {}

    Key key;
    std::atomic<bool> present{false};
    std::atomic<std::uint64_t> version{0};
    std::atomic<int> height{1};
    std::atomic<node*> parent{nullptr};
    std::atomic<node*> left{nullptr};
    std::atomic<node*> right{nullptr};
    spinlock lock;
  };

  enum class tri { retry, yes, no };

  // --- read path ----------------------------------------------------------

  tri attempt_get(const Key& key, node* n, std::uint64_t n_ovl) const {
    for (;;) {
      if (eq(key, n->key)) {
        // Keys are immutable; arriving at the node is enough — the
        // present flag is the linearizable answer (reading false on a
        // just-unlinked node linearizes at the unlink, which cleared it).
        return n->present.load(std::memory_order_acquire) ? tri::yes
                                                          : tri::no;
      }
      std::atomic<node*>& child_ref =
          less_(key, n->key) ? n->left : n->right;
      node* child = child_ref.load(std::memory_order_acquire);
      if (n->version.load(std::memory_order_acquire) != n_ovl) {
        return tri::retry;
      }
      if (child == nullptr) return tri::no;  // validated absent
      const std::uint64_t c_ovl =
          child->version.load(std::memory_order_acquire);
      if (c_ovl & shrinking_bit) {
        wait_until_not_changing(child);
        if (n->version.load(std::memory_order_acquire) != n_ovl) {
          return tri::retry;
        }
        continue;  // re-read the child pointer
      }
      if ((c_ovl & unlinked_bit) != 0 ||
          child_ref.load(std::memory_order_acquire) != child) {
        if (n->version.load(std::memory_order_acquire) != n_ovl) {
          return tri::retry;
        }
        continue;
      }
      // Hand-over-hand validation: n unchanged after c_ovl was read means
      // that, at that instant, the key was in n's range and child was
      // on its path, so the recursion only has to validate child.
      if (n->version.load(std::memory_order_acquire) != n_ovl) {
        return tri::retry;
      }
      const tri result = attempt_get(key, child, c_ovl);
      if (result != tri::retry) return result;
      if (n->version.load(std::memory_order_acquire) != n_ovl) {
        return tri::retry;
      }
      // Child-level retry with our own version intact: re-descend.
    }
  }

  // --- write path ----------------------------------------------------------

  bool update(const Key& key, bool is_insert) {
    for (;;) {
      // rootHolder's version is immutable, so this call only returns
      // retry on internal races; loop until it resolves.
      const tri result =
          attempt_update(key, is_insert, root_holder_, root_version_);
      if (result != tri::retry) return result == tri::yes;
    }
  }

  static constexpr std::uint64_t root_version_ = 0;

  /// Descend from validated `parent` toward `key`; perform the
  /// insert/remove when the key's node (or its null slot) is found.
  tri attempt_update(const Key& key, bool is_insert, node* parent,
                     std::uint64_t parent_ovl) {
    std::atomic<node*>& child_ref = (parent == root_holder_)
                                        ? parent->right
                                        : (less_(key, parent->key)
                                               ? parent->left
                                               : parent->right);
    for (;;) {
      node* child = child_ref.load(std::memory_order_acquire);
      if (parent->version.load(std::memory_order_acquire) != parent_ovl) {
        return tri::retry;
      }
      if (child == nullptr) {
        if (!is_insert) return tri::no;  // validated absent
        const tri r = attempt_insert_at(key, parent, parent_ovl, child_ref);
        if (r != tri::retry) return r;
        continue;  // local retry: the slot changed under the lock attempt
      }
      if (eq(key, child->key)) {
        return is_insert ? attempt_node_add(child)
                         : attempt_rm_node(parent, child);
      }
      const std::uint64_t c_ovl =
          child->version.load(std::memory_order_acquire);
      if (c_ovl & shrinking_bit) {
        wait_until_not_changing(child);
        if (parent->version.load(std::memory_order_acquire) != parent_ovl) {
          return tri::retry;
        }
        continue;
      }
      if ((c_ovl & unlinked_bit) != 0 ||
          child_ref.load(std::memory_order_acquire) != child) {
        if (parent->version.load(std::memory_order_acquire) != parent_ovl) {
          return tri::retry;
        }
        continue;
      }
      // Same hand-over-hand step as attempt_get: without it the parent
      // can shrink between its last check and the c_ovl read, and the
      // update lands in a subtree that no longer covers the key.
      if (parent->version.load(std::memory_order_acquire) != parent_ovl) {
        return tri::retry;
      }
      const tri result = attempt_update(key, is_insert, child, c_ovl);
      if (result != tri::retry) return result;
      if (parent->version.load(std::memory_order_acquire) != parent_ovl) {
        return tri::retry;
      }
    }
  }

  /// Install a fresh leaf in a validated-null child slot of `parent`.
  tri attempt_insert_at(const Key& key, node* parent,
                        std::uint64_t parent_ovl,
                        std::atomic<node*>& child_ref) {
    node* fresh;
    {
      std::lock_guard<spinlock> g(parent->lock);
      if (parent->version.load(std::memory_order_relaxed) != parent_ovl) {
        return tri::retry;
      }
      if (child_ref.load(std::memory_order_relaxed) != nullptr) {
        // Someone inserted here first. The caller's loop re-reads the
        // slot (its own version check decides whether to propagate).
        return tri::retry;
      }
      fresh = make_node(key, /*present=*/true);
      fresh->parent.store(parent, std::memory_order_relaxed);
      child_ref.store(fresh, std::memory_order_release);
    }
    fix_height_and_rebalance(parent);
    return tri::yes;
  }

  /// Re-arm a routing node that already carries the key.
  tri attempt_node_add(node* n) {
    std::lock_guard<spinlock> g(n->lock);
    if (n->version.load(std::memory_order_relaxed) & unlinked_bit) {
      return tri::retry;
    }
    if (n->present.load(std::memory_order_relaxed)) return tri::no;
    n->present.store(true, std::memory_order_release);
    return tri::yes;
  }

  /// Remove the key at `n` (child of validated `parent`): unlink if n
  /// has at most one child, else demote to a routing node.
  tri attempt_rm_node(node* parent, node* n) {
    if (!n->present.load(std::memory_order_acquire)) return tri::no;
    if (n->left.load(std::memory_order_acquire) != nullptr &&
        n->right.load(std::memory_order_acquire) != nullptr) {
      // Two children: partially external removal — demote in place.
      std::lock_guard<spinlock> g(n->lock);
      if (n->version.load(std::memory_order_relaxed) & unlinked_bit) {
        return tri::retry;
      }
      if (!n->present.load(std::memory_order_relaxed)) return tri::no;
      if (n->left.load(std::memory_order_relaxed) == nullptr ||
          n->right.load(std::memory_order_relaxed) == nullptr) {
        // Lost a child since we looked: take the unlink path instead so
        // we never create a one-child routing node.
        return tri::retry;
      }
      n->present.store(false, std::memory_order_release);
      return tri::yes;
    }
    // At most one child: physically unlink under parent+node locks.
    {
      std::lock_guard<spinlock> gp(parent->lock);
      if ((parent->version.load(std::memory_order_relaxed) & unlinked_bit) ||
          n->parent.load(std::memory_order_relaxed) != parent) {
        return tri::retry;
      }
      std::lock_guard<spinlock> gn(n->lock);
      if (!n->present.load(std::memory_order_relaxed)) return tri::no;
      node* left = n->left.load(std::memory_order_relaxed);
      node* right = n->right.load(std::memory_order_relaxed);
      if (left != nullptr && right != nullptr) {
        // Grew a second child since we looked: demote instead.
        n->present.store(false, std::memory_order_release);
        return tri::yes;
      }
      node* splice = (left != nullptr) ? left : right;
      n->present.store(false, std::memory_order_relaxed);
      n->version.store(
          n->version.load(std::memory_order_relaxed) | unlinked_bit,
          std::memory_order_release);
      if (parent->left.load(std::memory_order_relaxed) == n) {
        parent->left.store(splice, std::memory_order_release);
      } else {
        parent->right.store(splice, std::memory_order_release);
      }
      if (splice != nullptr) {
        splice->parent.store(parent, std::memory_order_release);
      }
      if constexpr (Reclaimer::reclaims_eagerly) {
        reclaimer_.retire(n, &node_deleter, &pool_);
      }
    }
    fix_height_and_rebalance(parent);
    return tri::yes;
  }

  // --- relaxed AVL repair --------------------------------------------------

  static int height_of(node* n) noexcept {
    return n == nullptr ? 0 : n->height.load(std::memory_order_acquire);
  }

  enum class condition { nothing, unlink, rebalance, fix_height };

  condition node_condition(node* n, int& new_height) const {
    node* l = n->left.load(std::memory_order_acquire);
    node* r = n->right.load(std::memory_order_acquire);
    if ((l == nullptr || r == nullptr) &&
        !n->present.load(std::memory_order_acquire)) {
      return condition::unlink;
    }
    const int hl = height_of(l), hr = height_of(r);
    new_height = 1 + std::max(hl, hr);
    const int bal = hl - hr;
    if (bal < -1 || bal > 1) return condition::rebalance;
    return new_height != n->height.load(std::memory_order_acquire)
               ? condition::fix_height
               : condition::nothing;
  }

  void fix_height_and_rebalance(node* n) {
    backoff delay;
    while (n != nullptr && n != root_holder_) {
      int new_height = 0;
      const condition c = node_condition(n, new_height);
      if (c == condition::nothing ||
          (n->version.load(std::memory_order_acquire) & unlinked_bit)) {
        return;
      }
      if (c == condition::fix_height) {
        std::lock_guard<spinlock> g(n->lock);
        n = fix_height_nl(n);
      } else {
        node* parent = n->parent.load(std::memory_order_acquire);
        if (parent == nullptr) return;
        std::lock_guard<spinlock> gp(parent->lock);
        if ((parent->version.load(std::memory_order_relaxed) &
             unlinked_bit) ||
            n->parent.load(std::memory_order_acquire) != parent) {
          delay();
          continue;  // parent moved; re-evaluate
        }
        std::lock_guard<spinlock> gn(n->lock);
        n = rebalance_nl(parent, n);
      }
    }
  }

  /// Caller holds n's lock. Repairs the height if that is all n needs;
  /// returns the next node to examine (parent on change, n itself if a
  /// structural fix is now needed, null when done).
  node* fix_height_nl(node* n) {
    int new_height = 0;
    switch (node_condition(n, new_height)) {
      case condition::nothing:
        return nullptr;
      case condition::unlink:
      case condition::rebalance:
        return n;  // needs the two-lock path
      case condition::fix_height:
        n->height.store(new_height, std::memory_order_release);
        return n->parent.load(std::memory_order_acquire);
    }
    return nullptr;
  }

  /// Caller holds parent's and n's locks.
  node* rebalance_nl(node* parent, node* n) {
    node* l = n->left.load(std::memory_order_relaxed);
    node* r = n->right.load(std::memory_order_relaxed);
    if ((l == nullptr || r == nullptr) &&
        !n->present.load(std::memory_order_relaxed)) {
      if (attempt_unlink_nl(parent, n)) {
        // n is gone; repair the parent (we still hold its lock).
        return fix_height_nl(parent);
      }
      return n;  // couldn't unlink right now; re-examine
    }
    const int hn = n->height.load(std::memory_order_relaxed);
    const int hl0 = height_of(l), hr0 = height_of(r);
    const int new_height = 1 + std::max(hl0, hr0);
    const int bal = hl0 - hr0;
    if (bal > 1) return rebalance_to_right_nl(parent, n, l, hr0);
    if (bal < -1) return rebalance_to_left_nl(parent, n, r, hl0);
    if (new_height != hn) {
      n->height.store(new_height, std::memory_order_release);
      return parent;
    }
    return nullptr;
  }

  /// Caller holds parent's and n's locks; n is left-heavy.
  node* rebalance_to_right_nl(node* parent, node* n, node* nl, int hr0) {
    std::lock_guard<spinlock> gl(nl->lock);
    const int hl = nl->height.load(std::memory_order_relaxed);
    if (hl - hr0 <= 1) return n;  // balance repaired itself meanwhile
    node* nlr = nl->right.load(std::memory_order_relaxed);
    const int hll0 = height_of(nl->left.load(std::memory_order_relaxed));
    const int hlr0 = height_of(nlr);
    if (hll0 >= hlr0) {
      return rotate_right_nl(parent, n, nl, hr0, hll0, nlr, hlr0);
    }
    {
      std::lock_guard<spinlock> glr(nlr->lock);
      const int hlr = nlr->height.load(std::memory_order_relaxed);
      if (hll0 >= hlr) {
        return rotate_right_nl(parent, n, nl, hr0, hll0, nlr, hlr);
      }
      const int hlrl =
          height_of(nlr->left.load(std::memory_order_relaxed));
      const int b = hll0 - hlrl;
      if (b >= -1 && b <= 1 &&
          !((hll0 == 0 || hlrl == 0) &&
            !nl->present.load(std::memory_order_relaxed))) {
        return rotate_right_over_left_nl(parent, n, nl, hr0, hll0, nlr,
                                         hlrl);
      }
    }
    // nl needs a left rotation first; recurse with the locks we hold.
    return rebalance_to_left_nl(n, nl, nlr, hll0);
  }

  /// Mirror image of rebalance_to_right_nl.
  node* rebalance_to_left_nl(node* parent, node* n, node* nr, int hl0) {
    std::lock_guard<spinlock> gr(nr->lock);
    const int hr = nr->height.load(std::memory_order_relaxed);
    if (hl0 - hr >= -1) return n;
    node* nrl = nr->left.load(std::memory_order_relaxed);
    const int hrl0 = height_of(nrl);
    const int hrr0 = height_of(nr->right.load(std::memory_order_relaxed));
    if (hrr0 >= hrl0) {
      return rotate_left_nl(parent, n, hl0, nr, nrl, hrl0, hrr0);
    }
    {
      std::lock_guard<spinlock> grl(nrl->lock);
      const int hrl = nrl->height.load(std::memory_order_relaxed);
      if (hrr0 >= hrl) {
        return rotate_left_nl(parent, n, hl0, nr, nrl, hrl, hrr0);
      }
      const int hrlr =
          height_of(nrl->right.load(std::memory_order_relaxed));
      const int b = hrr0 - hrlr;
      if (b >= -1 && b <= 1 &&
          !((hrr0 == 0 || hrlr == 0) &&
            !nr->present.load(std::memory_order_relaxed))) {
        return rotate_left_over_right_nl(parent, n, hl0, nr, nrl, hrlr);
      }
    }
    return rebalance_to_right_nl(n, nr, nrl, hrr0);
  }

  /// Caller holds parent's and n's locks; n is a routing node with at
  /// most one child. Returns false when n cannot be unlinked (gained a
  /// second child or became present).
  bool attempt_unlink_nl(node* parent, node* n) {
    node* l = n->left.load(std::memory_order_relaxed);
    node* r = n->right.load(std::memory_order_relaxed);
    if (l != nullptr && r != nullptr) return false;
    if (n->present.load(std::memory_order_relaxed)) return false;
    node* splice = (l != nullptr) ? l : r;
    if (parent->left.load(std::memory_order_relaxed) == n) {
      parent->left.store(splice, std::memory_order_release);
    } else if (parent->right.load(std::memory_order_relaxed) == n) {
      parent->right.store(splice, std::memory_order_release);
    } else {
      return false;  // n is no longer parent's child
    }
    n->version.store(
        n->version.load(std::memory_order_relaxed) | unlinked_bit,
        std::memory_order_release);
    if (splice != nullptr) {
      splice->parent.store(parent, std::memory_order_release);
    }
    if constexpr (Reclaimer::reclaims_eagerly) {
      reclaimer_.retire(n, &node_deleter, &pool_);
    }
    return true;
  }

  // --- rotations ------------------------------------------------------------
  // All rotation functions are called with the locks of every named node
  // already held (parent, n, nl/nr, and for doubles nlr/nrl).

  node* rotate_right_nl(node* parent, node* n, node* nl, int hr, int hll,
                        node* nlr, int hlr) {
    const std::uint64_t n_ovl = n->version.load(std::memory_order_relaxed);
    node* pl = parent->left.load(std::memory_order_relaxed);
    n->version.store(n_ovl | shrinking_bit, std::memory_order_release);

    n->left.store(nlr, std::memory_order_release);
    nl->right.store(n, std::memory_order_release);
    if (pl == n) {
      parent->left.store(nl, std::memory_order_release);
    } else {
      parent->right.store(nl, std::memory_order_release);
    }
    nl->parent.store(parent, std::memory_order_release);
    n->parent.store(nl, std::memory_order_release);
    if (nlr != nullptr) nlr->parent.store(n, std::memory_order_release);

    const int h_n = 1 + std::max(hlr, hr);
    n->height.store(h_n, std::memory_order_release);
    nl->height.store(1 + std::max(hll, h_n), std::memory_order_release);

    n->version.store(n_ovl + version_incr, std::memory_order_release);

    // Decide which node is still damaged (original rotateRight_nl tail).
    const int bal_n = hlr - hr;
    if (bal_n < -1 || bal_n > 1) return n;
    if ((nlr == nullptr || hr == 0) &&
        !n->present.load(std::memory_order_relaxed)) {
      return n;  // n became an unlinkable routing node
    }
    const int bal_l = hll - h_n;
    if (bal_l < -1 || bal_l > 1) return nl;
    if (hll == 0 && !nl->present.load(std::memory_order_relaxed)) return nl;
    return fix_height_nl(parent);
  }

  node* rotate_left_nl(node* parent, node* n, int hl, node* nr, node* nrl,
                       int hrl, int hrr) {
    const std::uint64_t n_ovl = n->version.load(std::memory_order_relaxed);
    node* pl = parent->left.load(std::memory_order_relaxed);
    n->version.store(n_ovl | shrinking_bit, std::memory_order_release);

    n->right.store(nrl, std::memory_order_release);
    nr->left.store(n, std::memory_order_release);
    if (pl == n) {
      parent->left.store(nr, std::memory_order_release);
    } else {
      parent->right.store(nr, std::memory_order_release);
    }
    nr->parent.store(parent, std::memory_order_release);
    n->parent.store(nr, std::memory_order_release);
    if (nrl != nullptr) nrl->parent.store(n, std::memory_order_release);

    const int h_n = 1 + std::max(hl, hrl);
    n->height.store(h_n, std::memory_order_release);
    nr->height.store(1 + std::max(h_n, hrr), std::memory_order_release);

    n->version.store(n_ovl + version_incr, std::memory_order_release);

    const int bal_n = hrl - hl;
    if (bal_n < -1 || bal_n > 1) return n;
    if ((nrl == nullptr || hl == 0) &&
        !n->present.load(std::memory_order_relaxed)) {
      return n;
    }
    const int bal_r = hrr - h_n;
    if (bal_r < -1 || bal_r > 1) return nr;
    if (hrr == 0 && !nr->present.load(std::memory_order_relaxed)) return nr;
    return fix_height_nl(parent);
  }

  node* rotate_right_over_left_nl(node* parent, node* n, node* nl, int hr,
                                  int hll, node* nlr, int hlrl) {
    const std::uint64_t n_ovl = n->version.load(std::memory_order_relaxed);
    const std::uint64_t l_ovl = nl->version.load(std::memory_order_relaxed);
    node* pl = parent->left.load(std::memory_order_relaxed);
    node* nlrl = nlr->left.load(std::memory_order_relaxed);
    node* nlrr = nlr->right.load(std::memory_order_relaxed);
    const int hlrr = height_of(nlrr);

    n->version.store(n_ovl | shrinking_bit, std::memory_order_release);
    nl->version.store(l_ovl | shrinking_bit, std::memory_order_release);

    n->left.store(nlrr, std::memory_order_release);
    nl->right.store(nlrl, std::memory_order_release);
    nlr->left.store(nl, std::memory_order_release);
    nlr->right.store(n, std::memory_order_release);
    if (pl == n) {
      parent->left.store(nlr, std::memory_order_release);
    } else {
      parent->right.store(nlr, std::memory_order_release);
    }
    nlr->parent.store(parent, std::memory_order_release);
    nl->parent.store(nlr, std::memory_order_release);
    n->parent.store(nlr, std::memory_order_release);
    if (nlrr != nullptr) nlrr->parent.store(n, std::memory_order_release);
    if (nlrl != nullptr) nlrl->parent.store(nl, std::memory_order_release);

    const int h_n = 1 + std::max(hlrr, hr);
    n->height.store(h_n, std::memory_order_release);
    const int h_l = 1 + std::max(hll, hlrl);
    nl->height.store(h_l, std::memory_order_release);
    nlr->height.store(1 + std::max(h_l, h_n), std::memory_order_release);

    n->version.store(n_ovl + version_incr, std::memory_order_release);
    nl->version.store(l_ovl + version_incr, std::memory_order_release);

    const int bal_n = hlrr - hr;
    if (bal_n < -1 || bal_n > 1) return n;
    if ((nlrr == nullptr || hr == 0) &&
        !n->present.load(std::memory_order_relaxed)) {
      return n;
    }
    const int bal_lr = h_l - h_n;
    if (bal_lr < -1 || bal_lr > 1) return nlr;
    return fix_height_nl(parent);
  }

  node* rotate_left_over_right_nl(node* parent, node* n, int hl, node* nr,
                                  node* nrl, int hrlr) {
    const std::uint64_t n_ovl = n->version.load(std::memory_order_relaxed);
    const std::uint64_t r_ovl = nr->version.load(std::memory_order_relaxed);
    node* pl = parent->left.load(std::memory_order_relaxed);
    node* nrll = nrl->left.load(std::memory_order_relaxed);
    node* nrlr = nrl->right.load(std::memory_order_relaxed);
    const int hrll = height_of(nrll);
    const int hrr = height_of(nr->right.load(std::memory_order_relaxed));

    n->version.store(n_ovl | shrinking_bit, std::memory_order_release);
    nr->version.store(r_ovl | shrinking_bit, std::memory_order_release);

    n->right.store(nrll, std::memory_order_release);
    nr->left.store(nrlr, std::memory_order_release);
    nrl->right.store(nr, std::memory_order_release);
    nrl->left.store(n, std::memory_order_release);
    if (pl == n) {
      parent->left.store(nrl, std::memory_order_release);
    } else {
      parent->right.store(nrl, std::memory_order_release);
    }
    nrl->parent.store(parent, std::memory_order_release);
    nr->parent.store(nrl, std::memory_order_release);
    n->parent.store(nrl, std::memory_order_release);
    if (nrll != nullptr) nrll->parent.store(n, std::memory_order_release);
    if (nrlr != nullptr) nrlr->parent.store(nr, std::memory_order_release);

    const int h_n = 1 + std::max(hl, hrll);
    n->height.store(h_n, std::memory_order_release);
    const int h_r = 1 + std::max(hrlr, hrr);
    nr->height.store(h_r, std::memory_order_release);
    nrl->height.store(1 + std::max(h_n, h_r), std::memory_order_release);

    n->version.store(n_ovl + version_incr, std::memory_order_release);
    nr->version.store(r_ovl + version_incr, std::memory_order_release);

    const int bal_n = hrll - hl;
    if (bal_n < -1 || bal_n > 1) return n;
    if ((nrll == nullptr || hl == 0) &&
        !n->present.load(std::memory_order_relaxed)) {
      return n;
    }
    const int bal_rl = h_r - h_n;
    if (bal_rl < -1 || bal_rl > 1) return nrl;
    return fix_height_nl(parent);
  }

  // --- misc ------------------------------------------------------------------

  void wait_until_not_changing(node* n) const {
    backoff delay;
    while (n->version.load(std::memory_order_acquire) & shrinking_bit) {
      delay();
    }
  }

  bool eq(const Key& a, const Key& b) const {
    return !less_(a, b) && !less_(b, a);
  }

  node* make_node(const Key& key, bool present) const {
    node* n = new (pool_.allocate(sizeof(node))) node(key);
    n->present.store(present, std::memory_order_relaxed);
    return n;
  }

  static void node_deleter(void* obj, void* ctx) noexcept {
    static_cast<node*>(obj)->~node();
    static_cast<node_pool*>(ctx)->deallocate(obj);
  }

  void destroy_reachable(node* root) {
    std::vector<node*> stack{root};
    while (!stack.empty()) {
      node* n = stack.back();
      stack.pop_back();
      if (node* l = n->left.load(std::memory_order_relaxed)) {
        stack.push_back(l);
      }
      if (node* r = n->right.load(std::memory_order_relaxed)) {
        stack.push_back(r);
      }
      n->~node();
      pool_.deallocate(n);
    }
  }

  [[no_unique_address]] Compare less_{};
  mutable node_pool pool_;
  mutable Reclaimer reclaimer_{};
  node* root_holder_ = nullptr;
};

}  // namespace lfbst
