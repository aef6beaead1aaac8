// lfbst: hazard-pointer reclaimer policy for the NM-BST.
//
// The paper (§3.2) points to Michael's hazard pointers as the way to add
// memory reclamation to the algorithm. Unlike epochs, hazard pointers
// protect *individual nodes*, so the tree's seek phase must cooperate:
// every node is announced in a hazard slot and re-validated against the
// edge it was read from before it is dereferenced (the recipe at the
// bottom of reclaim/hazard_pointers.hpp, implemented by
// nm_tree::seek_protected).
//
// Slot layout (8 per thread): the four seek-record nodes — ancestor,
// successor, parent, leaf — each own a slot so they stay protected for
// the whole operation (cleanup dereferences all four), one scratch slot
// guards the node currently being stepped onto, and one slot pins the
// leaf a delete flagged for the duration of its cleanup phase. NM
// ordered scans add two slots for the successor-query anchor snapshot
// and reuse the flagged-leaf slot — a thread runs one operation at a
// time and only erase uses hp_flagged — for the scan's deepest-left-turn
// node.
//
// Trade-off vs epoch: bounded garbage (at most slots x threads retired
// nodes are ever held back) at the price of one seq_cst store + one
// validating re-read per traversal step. bench_ablation --study=reclaim
// quantifies it.
//
// `requires_validated_traversal = true` makes non-cooperating trees
// (EFRB/HJ/BCCO and the k-ary tree, whose traversals do not validate)
// reject this policy at compile time.
#pragma once

#include <cstddef>

#include "reclaim/hazard_pointers.hpp"
#include "reclaim/leaky.hpp"

namespace lfbst::reclaim {

class hazard {
 public:
  static constexpr bool reclaims_eagerly = true;
  static constexpr bool requires_validated_traversal = true;

  /// Seek-record slot assignments, shared between this policy and
  /// nm_tree::seek_protected.
  static constexpr unsigned hp_ancestor = 0;
  static constexpr unsigned hp_successor = 1;
  static constexpr unsigned hp_parent = 2;
  static constexpr unsigned hp_leaf = 3;
  static constexpr unsigned hp_scratch = 4;
  /// Held by erase() across its cleanup-mode re-seeks: the flagged leaf
  /// must stay protected so the `sr.leaf != leaf` identity test cannot
  /// be fooled by address reuse (ABA on a freed-and-recycled node).
  static constexpr unsigned hp_flagged = 5;
  /// Ordered-scan slots (nm_tree::scan_round). The deepest left turn of
  /// the current successor descent reuses hp_flagged: scans never run
  /// inside an erase, so the slot is guaranteed free. Its anchor edge
  /// snapshot (the last untagged edge above the turn, used to resume
  /// validation after the turn is reached) needs two slots of its own so
  /// the pair stays protected across the phase-2 min-leaf descent.
  static constexpr unsigned hp_scan_turn = hp_flagged;
  static constexpr unsigned hp_scan_turn_anchor = 6;
  static constexpr unsigned hp_scan_turn_successor = 7;
  static constexpr unsigned slot_count = 8;

  using domain_type = hazard_domain<slot_count>;

  hazard() = default;
  hazard(const hazard&) = delete;
  hazard& operator=(const hazard&) = delete;

  /// RAII pin: clears the calling thread's slots when the operation
  /// finishes, releasing every node it was holding back.
  class guard {
   public:
    explicit guard(hazard& h) noexcept : h_(&h) {}
    ~guard() { h_->domain_.clear_all(); }
    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

   private:
    hazard* h_;
  };

  [[nodiscard]] guard pin() noexcept { return guard(*this); }

  void retire(void* object, deleter_fn deleter, void* context) {
    domain_.retire(object, deleter, context);
  }

  void drain_all_unsafe() { domain_.drain_all_unsafe(); }

  [[nodiscard]] std::size_t pending() const noexcept {
    return domain_.pending();
  }

  [[nodiscard]] domain_type& domain() noexcept { return domain_; }

 private:
  domain_type domain_;
};

}  // namespace lfbst::reclaim
