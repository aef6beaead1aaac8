// lfbst: DVY-BST — the lock-based internal BST with *logical ordering*
// of Drachsler, Vechev & Yahav ("Practical Concurrent Binary Search
// Trees via Logical Ordering", PPoPP 2014), the contemporaneous
// related-work design the NM paper describes in §1: every node keeps
// pred/succ pointers ordered by key in addition to its tree edges, and
// a search that misses in the tree consults the logical chain, because
// the key may have "moved" (structurally) during the traversal.
//
// Synchronization discipline of this port (equivalent to the original's
// intent, stated here because the code depends on it):
//
//   * Each node has two locks. `succ_lock` protects the node's `succ`
//     pointer and the `pred` pointer of its successor; `tree_lock`
//     protects the node's child pointers, its `unlinked` flag, and the
//     `parent` pointers of its children.
//   * List membership and tree membership change together: a remove
//     acquires the succ locks (in list order: predecessor first), marks
//     the node (the linearization point), and performs both the list
//     unlink and the physical tree unlink before releasing. Hence a key
//     is in the tree iff it is in the list, which gives the insert-window
//     invariant (either pred.right or succ.left is free).
//   * Multi-node tree-lock sets are acquired in address order; succ
//     locks strictly precede tree locks. Both rules together make the
//     locking deadlock-free.
//
// Reads (contains, the traversal phase of updates) take no locks at
// all: they walk the tree unsynchronized and then settle on the logical
// chain — the design's whole point. Memory safety for those unsynchronized
// readers comes from the usual Reclaimer policies.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "alloc/node_pool.hpp"
#include "common/assert.hpp"
#include "common/spinlock.hpp"
#include "core/sentinel_key.hpp"
#include "core/stats.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/leaky.hpp"

namespace lfbst {

template <typename Key, typename Compare = std::less<Key>,
          typename Reclaimer = reclaim::leaky>
class dvy_tree {
  static_assert(Reclaimer::reclaims_eagerly ||
                    std::is_trivially_destructible_v<Key>,
                "leaky reclamation requires trivially destructible keys");
  static_assert(!Reclaimer::requires_validated_traversal,
                "dvy_tree's traversal does not validate per-node; use the "
                "leaky or epoch reclaimer");

 public:
  using key_type = Key;
  using key_compare = Compare;
  using stats_policy = stats::none;
  using reclaimer_type = Reclaimer;

  static constexpr const char* algorithm_name = "DVY-BST";

  dvy_tree() : pool_(sizeof(node)) {
    head_ = make_node(skey::neg_inf());
    tail_ = make_node(skey::inf2());
    head_->succ.store(tail_, std::memory_order_relaxed);
    tail_->pred.store(head_, std::memory_order_relaxed);
    // Tree shape: head is the root; tail is its right child. All client
    // keys end up in tail's left subtree... no: keys < +inf go left of
    // tail, but tree search from head goes right first. Keep it simple:
    // the client tree hangs off head.right, with tail as the initial
    // right child.
    head_->right.store(tail_, std::memory_order_relaxed);
    tail_->parent.store(head_, std::memory_order_relaxed);
  }

  dvy_tree(const dvy_tree&) = delete;
  dvy_tree& operator=(const dvy_tree&) = delete;

  ~dvy_tree() {
    destroy_reachable(head_);
    reclaimer_.drain_all_unsafe();
  }

  [[nodiscard]] bool contains(const Key& key) const {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    node* n = settle(key);
    return less_.equal(key, n->key) && !n->marked.load(std::memory_order_acquire);
  }

  bool insert(const Key& key) {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    for (;;) {
      node* n = settle(key);
      // Candidate predecessor of the insertion window (settle returned
      // the first node at-or-after the key).
      node* pred = adjust_pred(n->pred.load(std::memory_order_acquire), key);
      std::unique_lock<spinlock> pl(pred->succ_lock);
      node* succ = pred->succ.load(std::memory_order_relaxed);
      // Validate the window under the lock.
      if (pred->marked.load(std::memory_order_relaxed) ||
          !window_holds(pred, succ, key)) {
        continue;  // lock released by unique_lock destructor
      }
      if (less_.equal(key, succ->key)) return false;  // already present

      node* fresh = make_node(skey(key));
      fresh->pred.store(pred, std::memory_order_relaxed);
      fresh->succ.store(succ, std::memory_order_relaxed);

      // Tree attachment: with list == tree membership, exactly one of
      // pred.right / succ.left is free inside a locked window. The locked
      // window freezes succ.left, but not pred.right: removing pred's list
      // predecessor relocates pred and hands it a right subtree. So the
      // choice is made under pred's tree lock; once pred.right is taken
      // it holds succ, and succ.left is the free slot.
      pred->tree_lock.lock();
      if (pred->right.load(std::memory_order_relaxed) == nullptr) {
        fresh->parent.store(pred, std::memory_order_relaxed);
        pred->right.store(fresh, std::memory_order_release);
        pred->tree_lock.unlock();
      } else {
        pred->tree_lock.unlock();
        std::lock_guard<spinlock> tl(succ->tree_lock);
        LFBST_ASSERT(succ->left.load(std::memory_order_relaxed) == nullptr,
                     "insert window invariant violated");
        fresh->parent.store(succ, std::memory_order_relaxed);
        succ->left.store(fresh, std::memory_order_release);
      }
      // Publish in the list (readers settle via these pointers).
      succ->pred.store(fresh, std::memory_order_release);
      pred->succ.store(fresh, std::memory_order_release);
      return true;
    }
  }

  bool erase(const Key& key) {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    for (;;) {
      node* n = settle(key);
      if (!less_.equal(key, n->key)) return false;  // no such key
      node* pred = adjust_pred(n->pred.load(std::memory_order_acquire), key);
      std::unique_lock<spinlock> pl(pred->succ_lock);
      if (pred->marked.load(std::memory_order_relaxed) ||
          pred->succ.load(std::memory_order_relaxed) != n) {
        continue;
      }
      std::unique_lock<spinlock> nl(n->succ_lock);
      if (n->marked.load(std::memory_order_relaxed)) {
        return false;  // another remove linearized first
      }

      // Linearization point of the delete.
      n->marked.store(true, std::memory_order_release);

      // Physically remove from the tree while still holding both succ
      // locks (this is what keeps list and tree membership identical).
      remove_from_tree(n);

      // List unlink (readers may still traverse n; its pointers stay).
      node* succ = n->succ.load(std::memory_order_relaxed);
      succ->pred.store(pred, std::memory_order_release);
      pred->succ.store(succ, std::memory_order_release);

      nl.unlock();
      pl.unlock();
      if constexpr (Reclaimer::reclaims_eagerly) {
        reclaimer_.retire(n, &node_deleter, &pool_);
      }
      return true;
    }
  }

  // --- quiescent observers ---------------------------------------------

  [[nodiscard]] std::size_t size_slow() const {
    std::size_t n = 0;
    for_each_slow([&n](const Key&) { ++n; });
    return n;
  }

  /// In-order walk — simply the logical chain.
  template <typename F>
  void for_each_slow(F&& fn) const {
    for (node* n = head_->succ.load(std::memory_order_relaxed); n != tail_;
         n = n->succ.load(std::memory_order_relaxed)) {
      fn(n->key.key);
    }
  }

  [[nodiscard]] std::string validate() const {
    std::string err;
    // (1) The logical chain is strictly sorted and pred mirrors succ.
    std::size_t list_count = 0;
    for (node* n = head_; n != tail_;
         n = n->succ.load(std::memory_order_relaxed)) {
      node* s = n->succ.load(std::memory_order_relaxed);
      if (s == nullptr) return err + "broken succ chain; ";
      if (!less_(n->key, s->key)) err += "list keys not increasing; ";
      if (s->pred.load(std::memory_order_relaxed) != n) {
        err += "pred does not mirror succ; ";
      }
      if (n != head_) ++list_count;
    }
    // (2) The tree is a BST over exactly the list's members.
    std::size_t tree_count = 0;
    struct frame {
      const node* n;
      bool has_low = false, has_high = false;
      Key low{}, high{};
    };
    std::vector<frame> stack;
    if (node* root = head_->right.load(std::memory_order_relaxed)) {
      stack.push_back(frame{root});
    }
    while (!stack.empty()) {
      const frame f = stack.back();
      stack.pop_back();
      const node* n = f.n;
      if (n != tail_) {
        ++tree_count;
        if (n->marked.load(std::memory_order_relaxed)) {
          err += "marked node still in tree at quiescence; ";
        }
        if (n->unlinked.load(std::memory_order_relaxed)) {
          err += "unlinked node reachable; ";
        }
        if (f.has_low && !less_.cmp(f.low, n->key.key)) {
          err += "tree key <= low bound; ";
        }
        if (f.has_high && !less_.cmp(n->key.key, f.high)) {
          err += "tree key >= high bound; ";
        }
      }
      const node* l = n->left.load(std::memory_order_relaxed);
      const node* r = n->right.load(std::memory_order_relaxed);
      if (l != nullptr) {
        if (l->parent.load(std::memory_order_relaxed) != n) {
          err += "parent pointer mismatch; ";
        }
        frame child{l, f.has_low, true, f.low, n->key.key};
        if (n == tail_) child.has_high = f.has_high, child.high = f.high;
        stack.push_back(child);
      }
      if (r != nullptr) {
        if (r->parent.load(std::memory_order_relaxed) != n) {
          err += "parent pointer mismatch; ";
        }
        frame child{r, true, f.has_high, n->key.key, f.high};
        if (n == tail_) {
          err += "tail grew a right child; ";
        } else {
          stack.push_back(child);
        }
      }
    }
    if (tree_count != list_count) {
      err += "tree and list member counts differ (" +
             std::to_string(tree_count) + " vs " +
             std::to_string(list_count) + "); ";
    }
    return err;
  }

  [[nodiscard]] std::size_t reclaimer_pending() const {
    return reclaimer_.pending();
  }

 private:
  using skey = sentinel_key<Key>;

  struct node {
    explicit node(skey k) : key(std::move(k)) {}

    skey key;
    std::atomic<bool> marked{false};    // logical deletion
    std::atomic<bool> unlinked{false};  // physically out of the tree
    std::atomic<node*> parent{nullptr};
    std::atomic<node*> left{nullptr};
    std::atomic<node*> right{nullptr};
    std::atomic<node*> pred{nullptr};
    std::atomic<node*> succ{nullptr};
    spinlock tree_lock;
    spinlock succ_lock;
  };

  // --- search -----------------------------------------------------------

  /// Unsynchronized tree descent followed by the logical-chain settle:
  /// returns the first node (by the chain) whose key is >= `key`
  /// (possibly tail). This is the paper's "the key may have moved"
  /// mechanism: the tree gets us close, the list tells the truth.
  node* settle(const Key& key) const {
    node* n = head_;
    // Tree phase (no locks, no validation).
    for (;;) {
      node* next = nullptr;
      if (n == head_ || less_(n->key, key)) {
        next = n->right.load(std::memory_order_acquire);
      } else if (less_(key, n->key)) {
        next = n->left.load(std::memory_order_acquire);
      } else {
        break;  // exact key position
      }
      if (next == nullptr) break;
      n = next;
    }
    // List phase: walk to the unique window.
    while (n != head_ && less_(key, n->key)) {
      n = n->pred.load(std::memory_order_acquire);
    }
    while (n == head_ || less_(n->key, key)) {
      n = n->succ.load(std::memory_order_acquire);
    }
    return n;  // first node with key >= `key` (by chain order)
  }

  /// `settle` returns the node at-or-after `key`; updates need the
  /// predecessor: walk left until strictly below the key (head stops the
  /// walk, so the result is always valid).
  node* adjust_pred(node* pred, const Key& key) const {
    // Walk left until pred.key < key (crossing freshly inserted or
    // marked nodes).
    while (pred != head_ && !less_(pred->key, key)) {
      pred = pred->pred.load(std::memory_order_acquire);
    }
    return pred;
  }

  bool window_holds(node* pred, node* succ, const Key& key) const {
    if (succ == nullptr) return false;
    const bool pred_ok = pred == head_ || less_(pred->key, key);
    const bool succ_ok = succ == tail_ || !less_(succ->key, key);
    return pred_ok && succ_ok;
  }

  // --- physical tree removal --------------------------------------------
  // Caller holds the node's (and its list-predecessor's) succ locks and
  // has marked the node, so its window is frozen: no inserts can slip
  // under it and its logical successor cannot be removed.

  void remove_from_tree(node* n) {
    backoff delay;
    for (;;) {
      node* parent = n->parent.load(std::memory_order_acquire);
      node* left = n->left.load(std::memory_order_acquire);
      node* right = n->right.load(std::memory_order_acquire);

      if (left == nullptr || right == nullptr) {
        // Splice: locks = {parent, n, child?} in address order.
        node* child = left != nullptr ? left : right;
        std::vector<spinlock*> locks{&parent->tree_lock, &n->tree_lock};
        if (child != nullptr) locks.push_back(&child->tree_lock);
        if (!lock_all(locks)) {
          delay();
          continue;
        }
        const bool valid =
            n->parent.load(std::memory_order_relaxed) == parent &&
            !parent->unlinked.load(std::memory_order_relaxed) &&
            n->left.load(std::memory_order_relaxed) == left &&
            n->right.load(std::memory_order_relaxed) == right;
        if (!valid) {
          unlock_all(locks);
          delay();
          continue;
        }
        replace_child(parent, n, child);
        if (child != nullptr) {
          child->parent.store(parent, std::memory_order_release);
        }
        n->unlinked.store(true, std::memory_order_release);
        unlock_all(locks);
        return;
      }

      // Two children: relocate the logical successor (which, by the BST
      // property plus list==tree membership, is the leftmost node of
      // n's right subtree and has no left child; our succ locks keep it
      // alive and childless on the left).
      node* s = n->succ.load(std::memory_order_acquire);
      node* s_parent = s->parent.load(std::memory_order_acquire);
      node* s_right = s->right.load(std::memory_order_acquire);
      std::vector<spinlock*> locks{&parent->tree_lock, &n->tree_lock,
                                   &s->tree_lock};
      if (s_parent != n) locks.push_back(&s_parent->tree_lock);
      if (s_right != nullptr) locks.push_back(&s_right->tree_lock);
      if (left != nullptr) locks.push_back(&left->tree_lock);
      if (right != nullptr && right != s) locks.push_back(&right->tree_lock);
      if (!lock_all(locks)) {
        delay();
        continue;
      }
      const bool valid =
          n->parent.load(std::memory_order_relaxed) == parent &&
          !parent->unlinked.load(std::memory_order_relaxed) &&
          n->left.load(std::memory_order_relaxed) == left &&
          n->right.load(std::memory_order_relaxed) == right &&
          s->parent.load(std::memory_order_relaxed) == s_parent &&
          s->right.load(std::memory_order_relaxed) == s_right &&
          s->left.load(std::memory_order_relaxed) == nullptr &&
          !s->unlinked.load(std::memory_order_relaxed);
      if (!valid) {
        unlock_all(locks);
        delay();
        continue;
      }

      // Detach s from its old position...
      if (s_parent == n) {
        // s is n's right child: s keeps its right subtree.
      } else {
        replace_child(s_parent, s, s_right);
        if (s_right != nullptr) {
          s_right->parent.store(s_parent, std::memory_order_release);
        }
        s->right.store(right, std::memory_order_release);
        right->parent.store(s, std::memory_order_release);
      }
      // ... and put it where n was.
      s->left.store(left, std::memory_order_release);
      left->parent.store(s, std::memory_order_release);
      replace_child(parent, n, s);
      s->parent.store(parent, std::memory_order_release);
      n->unlinked.store(true, std::memory_order_release);
      unlock_all(locks);
      return;
    }
  }

  /// Address-ordered try-lock of a set; all-or-nothing.
  static bool lock_all(std::vector<spinlock*>& locks) {
    std::sort(locks.begin(), locks.end());
    locks.erase(std::unique(locks.begin(), locks.end()), locks.end());
    for (std::size_t i = 0; i < locks.size(); ++i) {
      if (!locks[i]->try_lock()) {
        for (std::size_t j = 0; j < i; ++j) locks[j]->unlock();
        return false;
      }
    }
    return true;
  }
  static void unlock_all(std::vector<spinlock*>& locks) {
    for (spinlock* l : locks) l->unlock();
  }

  void replace_child(node* parent, node* old_child, node* new_child) {
    if (parent->left.load(std::memory_order_relaxed) == old_child) {
      parent->left.store(new_child, std::memory_order_release);
    } else {
      LFBST_ASSERT(parent->right.load(std::memory_order_relaxed) ==
                       old_child,
                   "replace_child: not a child of parent");
      parent->right.store(new_child, std::memory_order_release);
    }
  }

  // --- lifecycle ----------------------------------------------------------

  node* make_node(skey k) const {
    return new (pool_.allocate(sizeof(node))) node(std::move(k));
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

  [[no_unique_address]] sentinel_less<Key, Compare> less_{};
  mutable node_pool pool_;
  mutable Reclaimer reclaimer_{};
  node* head_ = nullptr;  // key -∞: list head and tree root
  node* tail_ = nullptr;  // key +∞: list tail, head's initial right child
};

}  // namespace lfbst
