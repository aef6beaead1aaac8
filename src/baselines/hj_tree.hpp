// lfbst: HJ-BST baseline — the lock-free *internal* BST of Howley &
// Jones (SPAA 2012), the paper's strongest competitor on read-dominated
// large-key-range workloads (§4).
//
// Internal representation: every node stores a client key; there are no
// routing-only nodes (the single unkeyed root sentinel anchors the tree
// from below — searches always start by going right from it, so its key
// is never compared). Searches therefore traverse shorter paths than in
// the external NM/EFRB trees, which is exactly the trade-off the paper's
// evaluation discusses.
//
// Coordination is via per-node operation records, pointed to by an `op`
// word with two stolen bits: NONE(00) / CHILDCAS(01) / RELOCATE(10) /
// MARK(11).
//
//   add:    allocate the node + a ChildCASOp (2 objects — Table 1);
//           flag the parent's op word, CAS the child edge in, unflag.
//           3 CAS uncontended.
//   remove, node with < 2 children: MARK the node's op word, then splice
//           it out under the parent's CHILDCAS protocol. 4 CAS.
//   remove, node with 2 children: find the successor (leftmost node of
//           the right subtree), install a RelocateOp on it, CAS the
//           RelocateOp onto the victim, CAS the victim's *key* from the
//           removed key to the successor key, then MARK and splice the
//           successor. Up to 9 CAS — the "up to 9" of Table 1. Because
//           keys move between nodes, an unsuccessful search must
//           re-validate the op word of the last node where it turned
//           right before reporting NOT-FOUND.
//
// The mutable key field forces Key to be lock-free atomically CASable
// (the relocation step CASes the victim's key); this is an inherent
// property of the algorithm, not of this port.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "alloc/node_pool.hpp"
#include "common/assert.hpp"
#include "common/tagged_word.hpp"
#include "core/stats.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/leaky.hpp"

namespace lfbst {

template <typename Key, typename Compare = std::less<Key>,
          typename Reclaimer = reclaim::leaky, typename Stats = stats::none>
class hj_tree {
  static_assert(std::is_trivially_copyable_v<Key> &&
                    std::atomic<Key>::is_always_lock_free,
                "HJ relocation CASes node keys; Key must be an atomic "
                "lock-free trivially copyable type");
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

  static constexpr const char* algorithm_name = "HJ-BST";

  hj_tree() : node_pool_(sizeof(node)), op_pool_(sizeof(operation)) {
    root_ = make_node(Key{});  // key never compared: searches go right
  }

  hj_tree(const hj_tree&) = delete;
  hj_tree& operator=(const hj_tree&) = delete;

  ~hj_tree() {
    destroy_reachable(root_);
    reclaimer_.drain_all_unsafe();
  }

  [[nodiscard]] bool contains(const Key& key) const {
    stats_.on_op_begin(stats::op_kind::search);
    bool found;
    {
      [[maybe_unused]] auto guard = reclaimer_.pin();
      find_ctx c;
      found = find(key, c, root_) == find_result::found;
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
      find_ctx c;
      const find_result result = find(key, c, root_);
      if (result == find_result::found) return false;
      // Two allocations: the node and the ChildCASOp (Table 1).
      node* new_node = make_node(key);
      const bool is_left = (result == find_result::not_found_l);
      node* old_child = is_left ? c.curr->left.load(std::memory_order_acquire)
                                : c.curr->right.load(std::memory_order_acquire);
      operation* cas_op = make_op();
      cas_op->child_cas = {is_left, old_child, new_node};

      op_t expected = c.curr_op;
      stats_.on_cas();
      if (c.curr->op.compare_exchange(
              expected, op_t(cas_op, /*childcas=*/true, /*relocate=*/false))) {
        release_op(c.curr_op.address());
        help_child_cas(cas_op, c.curr);
        return true;
      }
      // Never published: recycle immediately.
      stats_.on_cas_fail();
      destroy_node(new_node);
      destroy_op(cas_op);
      stats_.on_seek_restart();
    }
  }

  bool erase_impl(const Key& key) {
    [[maybe_unused]] auto guard = reclaimer_.pin();
    for (;;) {
      find_ctx c;
      if (find(key, c, root_) != find_result::found) return false;

      if (deref(c.curr->right.load(std::memory_order_acquire)) == nullptr ||
          deref(c.curr->left.load(std::memory_order_acquire)) == nullptr) {
        // Node has at most one child: MARK it (the linearization point),
        // then splice it out.
        op_t expected = c.curr_op;
        stats_.on_cas();
        if (c.curr->op.compare_exchange(
                expected, c.curr_op.with_marks(true, true))) {  // MARK
          help_marked(c.pred, c.pred_op, c.curr);
          return true;
        }
        stats_.on_cas_fail();
      } else {
        // Node has two children: relocate the successor's key into it.
        find_ctx sc;
        const find_result r2 = find(key, sc, c.curr);
        if (r2 == find_result::abort ||
            c.curr->op.load().raw() != c.curr_op.raw()) {
          stats_.on_seek_restart();
          continue;
        }
        // sc.curr is the successor: leftmost node of c.curr's right
        // subtree (the search for `key` from c.curr goes right once,
        // then left at every node, ending NOT_FOUND_L there).
        if (r2 != find_result::not_found_l) {
          stats_.on_seek_restart();
          continue;  // right child vanished meanwhile; retry
        }
        operation* reloc_op = make_op();
        reloc_op->refs.store(2, std::memory_order_relaxed);  // succ + dest
        reloc_op->relocate.state.store(relocate_state::ongoing,
                                       std::memory_order_relaxed);
        reloc_op->relocate.dest = c.curr;
        reloc_op->relocate.dest_op = c.curr_op;
        reloc_op->relocate.remove_key = key;
        reloc_op->relocate.replace_key =
            sc.curr->key.load(std::memory_order_acquire);

        op_t expected = sc.curr_op;
        stats_.on_cas();
        if (sc.curr->op.compare_exchange(
                expected,
                op_t(reloc_op, /*childcas=*/false, /*relocate=*/true))) {
          release_op(sc.curr_op.address());
          if (help_relocate(reloc_op, sc.pred, sc.pred_op, sc.curr,
                            /*owner=*/true)) {
            return true;
          }
        } else {
          stats_.on_cas_fail();
          destroy_op(reloc_op);  // never published
        }
      }
      stats_.on_seek_restart();
    }
  }

 public:
  // --- quiescent observers ---------------------------------------------

  [[nodiscard]] std::size_t size_slow() const {
    std::size_t n = 0;
    for_each_slow([&n](const Key&) { ++n; });
    return n;
  }

  /// In-order walk over *live* keys: marked nodes are logically deleted
  /// tombstones awaiting a helping splice and are skipped.
  template <typename F>
  void for_each_slow(F&& fn) const {
    std::vector<const node*> spine;
    const node* n = deref(root_->right.load(std::memory_order_relaxed));
    while (n != nullptr || !spine.empty()) {
      while (n != nullptr) {
        spine.push_back(n);
        n = deref(n->left.load(std::memory_order_relaxed));
      }
      const node* top = spine.back();
      spine.pop_back();
      if (!is_marked(top->op.load(std::memory_order_relaxed))) {
        fn(top->key.load(std::memory_order_relaxed));
      }
      n = deref(top->right.load(std::memory_order_relaxed));
    }
  }

  [[nodiscard]] std::string validate() const {
    std::string err;
    if (deref(root_->left.load(std::memory_order_relaxed)) != nullptr) {
      err += "root sentinel grew a left child; ";
    }
    struct frame {
      const node* n;
      bool has_low = false, has_high = false;
      Key low{}, high{};  // exclusive bounds, by value (keys are cheap)
    };
    const node* top = deref(root_->right.load(std::memory_order_relaxed));
    if (top == nullptr) return err;
    std::vector<frame> stack{frame{top}};
    while (!stack.empty()) {
      const frame f = stack.back();
      stack.pop_back();
      const Key k = f.n->key.load(std::memory_order_relaxed);
      if (f.has_low && !less_(f.low, k)) err += "key <= low bound; ";
      if (f.has_high && !less_(k, f.high)) err += "key >= high bound; ";
      const node* l = deref(f.n->left.load(std::memory_order_relaxed));
      const node* r = deref(f.n->right.load(std::memory_order_relaxed));
      if (l != nullptr) {
        frame child{l, f.has_low, true, f.low, k};
        stack.push_back(child);
      }
      if (r != nullptr) {
        frame child{r, true, f.has_high, k, f.high};
        stack.push_back(child);
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
  struct operation;
  using op_t = tagged_ptr<operation>;

  struct node {
    std::atomic<Key> key;
    tagged_word<operation> op;
    std::atomic<node*> left{nullptr};
    std::atomic<node*> right{nullptr};
  };

  struct child_cas_fields {
    bool is_left;
    node* expected;
    node* update;
  };

  struct relocate_state {
    static constexpr int ongoing = 0;
    static constexpr int successful = 1;  // installed on the destination
    static constexpr int failed = 2;
    static constexpr int keyed = 3;  // successful, destination key replaced
  };

  struct relocate_fields {
    std::atomic<int> state{relocate_state::ongoing};
    node* dest;
    op_t dest_op;
    Key remove_key;
    Key replace_key;
  };

  /// One pooled record type for both operation kinds. A union would save
  /// a few bytes but cannot legally host the RelocateOp's std::atomic
  /// state without placement-new gymnastics; records are pooled and
  /// short-lived, so the extra bytes are irrelevant.
  struct operation {
    child_cas_fields child_cas{};
    relocate_fields relocate{};
    std::atomic<std::uint32_t> refs{1};  // op words holding it
  };

  enum class find_result { found, not_found_l, not_found_r, abort };

  struct find_ctx {
    node* pred = nullptr;
    op_t pred_op{};
    node* curr = nullptr;
    op_t curr_op{};
  };

  // --- null child references (Howley & Jones `SETNULL`) -----------------
  // Splicing out a leaf stores a null that names the leaf, not nullptr,
  // so each emptying of a child slot leaves a distinct value. With plain
  // nullptr a stale helper re-running an insert's child CAS succeeds
  // after the slot was filled and emptied again: it resurrects the
  // removed node, and a concurrent insert whose record expects the
  // empty slot then fails its child CAS although it reports success.
  // The value stays distinct only while the named leaf's address is not
  // reused, so under eager reclamation the leaf is retired when the null
  // naming it leaves its slot, not when the leaf is spliced out.

  static constexpr std::uintptr_t null_bit = 1;

  static node* null_ref(node* leaf) noexcept {
    return reinterpret_cast<node*>(reinterpret_cast<std::uintptr_t>(leaf) |
                                   null_bit);
  }
  /// The child a reference points to; nullptr for either kind of null.
  static node* deref(node* ref) noexcept {
    return (reinterpret_cast<std::uintptr_t>(ref) & null_bit) != 0 ? nullptr
                                                                  : ref;
  }
  /// The spliced leaf a null reference names; nullptr for a child or
  /// for plain nullptr.
  static node* named_leaf(node* ref) noexcept {
    const auto bits = reinterpret_cast<std::uintptr_t>(ref);
    return (bits & null_bit) != 0 ? reinterpret_cast<node*>(bits & ~null_bit)
                                  : nullptr;
  }

  static bool is_marked(op_t o) noexcept { return o.flagged() && o.tagged(); }
  static int op_state(op_t o) noexcept {
    return (o.flagged() ? 1 : 0) | (o.tagged() ? 2 : 0);  // matches bits
  }
  static constexpr int state_none = 0, state_childcas = 1,
                       state_relocate = 2, state_mark = 3;

  // --- find (Howley & Jones `find`) --------------------------------------

  find_result find(const Key& key, find_ctx& c, node* aux_root) const {
    [[maybe_unused]] std::uint64_t depth = 0;
  retry:
    if constexpr (Stats::enabled) depth = 0;
    find_result result = find_result::not_found_r;
    c.curr = aux_root;
    c.curr_op = c.curr->op.load();
    if (op_state(c.curr_op) != state_none) {
      if (aux_root == root_) {
        // The root can only carry a CHILDCAS (it is never marked or
        // relocated): complete it and retry.
        help_child_cas(c.curr_op.address(), c.curr);
        goto retry;
      }
      return find_result::abort;  // successor search under a dirty root
    }
    {
      node* next = deref(c.curr->right.load(std::memory_order_acquire));
      node* last_right = c.curr;
      op_t last_right_op = c.curr_op;
      while (next != nullptr) {
        if constexpr (Stats::enabled) ++depth;
        c.pred = c.curr;
        c.pred_op = c.curr_op;
        c.curr = next;
        c.curr_op = c.curr->op.load();
        if (op_state(c.curr_op) != state_none) {
          help(c.pred, c.pred_op, c.curr, c.curr_op);
          goto retry;
        }
        const Key curr_key = c.curr->key.load(std::memory_order_acquire);
        if (less_(key, curr_key)) {
          result = find_result::not_found_l;
          next = deref(c.curr->left.load(std::memory_order_acquire));
        } else if (less_(curr_key, key)) {
          result = find_result::not_found_r;
          next = deref(c.curr->right.load(std::memory_order_acquire));
          last_right = c.curr;
          last_right_op = c.curr_op;
        } else {
          if constexpr (Stats::enabled) stats_.on_seek(depth);
          return find_result::found;
        }
      }
      // A NOT-FOUND result is valid only if the last right-turn node has
      // not been touched since: a concurrent relocation could otherwise
      // have moved `key` past our traversal.
      if (last_right_op.raw() != last_right->op.load().raw()) goto retry;
    }
    if constexpr (Stats::enabled) stats_.on_seek(depth);
    return result;
  }

  // --- helping ----------------------------------------------------------

  void help(node* pred, op_t pred_op, node* curr, op_t curr_op) const {
    // Operation-record helping is node-level, not edge-marked: no
    // flagged/tagged distinction to attribute.
    stats_.on_help(stats::help_kind::unattributed);
    switch (op_state(curr_op)) {
      case state_childcas:
        help_child_cas(curr_op.address(), curr);
        break;
      case state_relocate:
        help_relocate(curr_op.address(), pred, pred_op, curr);
        break;
      case state_mark:
        help_marked(pred, pred_op, curr);
        break;
      default:
        break;
    }
  }

  void help_child_cas(operation* op, node* dest) const {
    std::atomic<node*>& addr =
        op->child_cas.is_left ? dest->left : dest->right;
    node* expected = op->child_cas.expected;
    stats_.on_cas();
    const bool swung = addr.compare_exchange_strong(
        expected, op->child_cas.update, std::memory_order_acq_rel);
    if (!swung) stats_.on_cas_fail();
    op_t op_expected(op, /*childcas=*/true, /*relocate=*/false);
    stats_.on_cas();
    if (!dest->op.compare_exchange(op_expected, op_t(op, false, false))) {
      stats_.on_cas_fail();
    }
    if constexpr (Reclaimer::reclaims_eagerly) {
      // The victim of a splice is retired by whichever thread's child
      // CAS physically detached it — the only globally unique event.
      // (A record's *publisher* is not a safe retirer: a marked node's
      // parent can change while stale helpers still hold old
      // (pred, predOp) pairs, letting a published record's child CAS
      // fail harmlessly after another record already spliced the node —
      // retiring there double-frees, as ThreadSanitizer demonstrated.)
      // The retire sits *after* the unflag attempt: the one successful
      // unflag happens no later than our attempt returns, so any thread
      // that can still re-execute this record's child CAS read the
      // CHILDCAS word — and therefore pinned — before this retire, and
      // the grace period shields it from the freed node's address being
      // reused (ABA on the child slot). The same holds for a leaf whose
      // null an insert record overwrote: that record expects the null.
      if (swung) {
        node* old = op->child_cas.expected;
        if (node* spliced = deref(old)) {
          // A marked word never changes again, so the record it names is
          // released with the node. Its slots are frozen too, so the
          // leaves their nulls name can no longer be expected by a
          // child CAS.
          release_op(spliced->op.load().address());
          retire_named_leaf(spliced->left.load(std::memory_order_acquire));
          retire_named_leaf(spliced->right.load(std::memory_order_acquire));
          // A spliced leaf lives on in the null that now names it.
          if (op->child_cas.update != null_ref(spliced)) {
            reclaimer_.retire(spliced, &node_deleter, &node_pool_);
          }
        } else {
          retire_named_leaf(old);
        }
      }
    }
  }

  void retire_named_leaf(node* ref) const {
    if (node* leaf = named_leaf(ref)) {
      reclaimer_.retire(leaf, &node_deleter, &node_pool_);
    }
  }

  // A RelocateOp names two things outside itself: its destination node
  // and `dest_op`, the destination's word as the erase's find read it.
  // The original algorithm relies on Java's garbage collector to keep
  // both alive for every helper. Under epoch reclamation a helper that
  // reaches the record through the successor's word may have pinned
  // after the destination was spliced and retired, or after the record
  // in `dest_op` was released and its address reused on the same word
  // (ABA). Such a helper would CAS a freed node's key, or install the
  // record again and release a record it does not hold. So:
  //   * Only the erase that published the record (the owner, pinned
  //     since its find read the destination and `dest_op`) installs it
  //     on the destination. A helper that meets an ongoing relocation on
  //     the successor fails it instead.
  //   * The destination's reference on the record in `dest_op` is kept
  //     until the state is decided, so a relocation that fails after it
  //     was installed can put that word back.
  //   * Through the successor, the destination is touched only while
  //     the state reads `successful`: the destination is still flagged
  //     then, so it is in the tree and was not retired before the helper
  //     pinned. `keyed` is stored once the key is replaced, before the
  //     destination is unflagged and can be removed.
  // A helper that reaches the record through the destination found that
  // node in the tree, and finishes or undoes the relocation there.

  bool help_relocate(operation* op, node* pred, op_t pred_op, node* curr,
                     bool owner = false) const {
    relocate_fields& r = op->relocate;
    if (r.dest == curr) return settle_dest(op) == relocate_state::keyed;
    int seen = r.state.load(std::memory_order_acquire);
    if (owner) {
      bool installed = false;
      if (seen == relocate_state::ongoing) {
        op_t dest_expected = r.dest_op;
        stats_.on_cas();
        installed = r.dest->op.compare_exchange(
            dest_expected, op_t(op, /*childcas=*/false, /*relocate=*/true));
        if (!installed) {
          stats_.on_cas_fail();
          stats_.on_cas();
          r.state.compare_exchange_strong(seen, relocate_state::failed,
                                          std::memory_order_acq_rel);
          seen = relocate_state::failed;
        }
      }
      if (installed) {
        seen = settle_dest(op);
      } else {
        release_op(op);  // the destination's reference never landed
      }
    } else if (seen == relocate_state::ongoing) {
      stats_.on_cas();
      if (r.state.compare_exchange_strong(seen, relocate_state::failed,
                                          std::memory_order_acq_rel)) {
        seen = relocate_state::failed;
      } else {
        stats_.on_cas_fail();
      }
    }
    if (seen == relocate_state::successful) seen = settle_dest(op);
    const bool result = (seen == relocate_state::keyed);
    // Release (or mark for removal) the successor node that carried the
    // RelocateOp.
    op_t curr_expected(op, false, true);
    stats_.on_cas();
    curr->op.compare_exchange(
        curr_expected,
        result ? op_t(op, true, true)     // MARK: splice the successor out
               : op_t(op, false, false)); // failed: back to NONE
    if (result) {
      op_t effective_pred_op = pred_op;
      if (r.dest == pred) {
        // The destination is the successor's parent; once released its
        // op word is (op, NONE).
        effective_pred_op = op_t(op, false, false);
      }
      help_marked(pred, effective_pred_op, curr);
    }
    return result;
  }

  /// Decides a relocation that was installed on its destination, then
  /// replaces the destination's key and releases the destination, or
  /// puts the destination's old word back if the relocation failed.
  /// Returns the final state (`keyed` or `failed`). The caller holds the
  /// destination protected (see above).
  int settle_dest(operation* op) const {
    relocate_fields& r = op->relocate;
    int seen = relocate_state::ongoing;
    stats_.on_cas();
    if (r.state.compare_exchange_strong(seen, relocate_state::successful,
                                        std::memory_order_acq_rel)) {
      seen = relocate_state::successful;
      release_op(r.dest_op.address());  // the destination left it for good
    }
    if (seen == relocate_state::successful) {
      Key expected_key = r.remove_key;
      stats_.on_cas();
      r.dest->key.compare_exchange_strong(expected_key, r.replace_key,
                                          std::memory_order_acq_rel);
      r.state.store(relocate_state::keyed, std::memory_order_release);
      seen = relocate_state::keyed;
    }
    op_t dest_expected(op, /*childcas=*/false, /*relocate=*/true);
    stats_.on_cas();
    if (seen == relocate_state::keyed) {
      r.dest->op.compare_exchange(dest_expected, op_t(op, false, false));
    } else if (r.dest->op.compare_exchange(dest_expected, r.dest_op)) {
      release_op(op);  // the destination holds its old record again
    }
    return seen;
  }

  void help_marked(node* pred, op_t pred_op, node* curr) const {
    // Splice the marked single-child (or childless) node out from under
    // its parent via the parent's CHILDCAS protocol.
    node* new_ref = curr->left.load(std::memory_order_acquire);
    if (deref(new_ref) == nullptr) {
      new_ref = curr->right.load(std::memory_order_acquire);
      if (deref(new_ref) == nullptr) new_ref = null_ref(curr);  // leaf
    }
    operation* cas_op = make_op();
    cas_op->child_cas = {curr == pred->left.load(std::memory_order_acquire),
                         curr, new_ref};
    op_t expected = pred_op;
    stats_.on_cas();
    if (pred->op.compare_exchange(
            expected, op_t(cas_op, /*childcas=*/true, /*relocate=*/false))) {
      // The spliced node itself is retired inside help_child_cas by the
      // thread whose child CAS detaches it (see the comment there).
      release_op(pred_op.address());
      help_child_cas(cas_op, pred);
    } else {
      stats_.on_cas_fail();
      destroy_op(cas_op);  // never published
    }
  }

  // --- lifecycle ----------------------------------------------------------

  node* make_node(const Key& key) const {
    stats_.on_alloc();
    node* n = new (node_pool_.allocate(sizeof(node))) node{};
    n->key.store(key, std::memory_order_relaxed);
    return n;
  }

  operation* make_op() const {
    stats_.on_alloc();
    return new (op_pool_.allocate(sizeof(operation))) operation();
  }

  /// Drops one op-word reference to `op`; the last one retires it.
  /// A word in state NONE keeps the address of the record that last
  /// held it, and a find that read the word may still CAS against that
  /// value. Retiring the record when its operation ends would let the
  /// address come back on the same word (ABA) and validate a stale CAS.
  /// So a record is released by the CAS that moves a word off it, or
  /// with the node whose marked word holds it; a RelocateOp's reference
  /// on its destination is reserved up front and dropped if the
  /// relocation fails, and the record it displaces there is released
  /// only once the relocation has succeeded. The grace period then
  /// covers every thread that read the old word.
  void release_op(operation* op) const {
    if constexpr (Reclaimer::reclaims_eagerly) {
      if (op != nullptr &&
          op->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        reclaimer_.retire(op, &op_deleter, &op_pool_);
      }
    }
  }

  void destroy_node(node* n) const {
    n->~node();
    node_pool_.deallocate(n);
  }
  void destroy_op(operation* op) const {
    op->~operation();
    op_pool_.deallocate(op);
  }

  static void node_deleter(void* obj, void* ctx) noexcept {
    static_cast<node*>(obj)->~node();
    static_cast<node_pool*>(ctx)->deallocate(obj);
  }
  static void op_deleter(void* obj, void* ctx) noexcept {
    static_cast<operation*>(obj)->~operation();
    static_cast<node_pool*>(ctx)->deallocate(obj);
  }

  void destroy_reachable(node* root) {
    std::vector<node*> stack{root};
    while (!stack.empty()) {
      node* n = stack.back();
      stack.pop_back();
      if (node* l = deref(n->left.load(std::memory_order_relaxed))) {
        stack.push_back(l);
      }
      if (node* r = deref(n->right.load(std::memory_order_relaxed))) {
        stack.push_back(r);
      }
      for (node* ref : {n->left.load(std::memory_order_relaxed),
                        n->right.load(std::memory_order_relaxed)}) {
        if (node* leaf = named_leaf(ref)) destroy_node(leaf);
      }
      destroy_node(n);
    }
  }

  [[no_unique_address]] Compare less_{};
  [[no_unique_address]] mutable Stats stats_{};
  mutable node_pool node_pool_;
  mutable node_pool op_pool_;
  mutable Reclaimer reclaimer_{};
  node* root_ = nullptr;
};

}  // namespace lfbst
