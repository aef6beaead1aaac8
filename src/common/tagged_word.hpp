// lfbst: tagged pointer words — the central substrate of the NM-BST.
//
// The Natarajan–Mittal algorithm coordinates conflicting operations by
// stealing two low-order bits from every child pointer stored in a tree
// node (paper §3.2):
//
//   bit 0: flag  — the edge's head node (a leaf) is being deleted; both
//                  the edge's tail and head will leave the tree.
//   bit 1: tag   — only the edge's tail node will leave the tree.
//
// Once either bit is set, the address part of that word never changes
// again ("once an edge has been marked, it cannot be changed"). That
// freeze is what lets a helper walk marked regions without validation.
//
// A third stolen bit carries no coordination:
//
//   bit 2: leaf  — the edge's head is a leaf. Set when the word is
//                  built and kept by every mark change, so a descent
//                  learns a node's kind from the edge it arrived on and
//                  the node itself need not store it.
//
// Three stolen bits need 8-byte-aligned nodes. The two mark bits are the
// "marks" below; the leaf bit is neither a mark nor part of the address.
//
// This header provides:
//   * tagged_ptr<Node>  — an immutable value: (address, flag, tag, leaf).
//   * tagged_word<Node> — an atomic cell holding a tagged_ptr, with the
//     three primitives the algorithm needs: load, CAS, and BTS
//     (bit-test-and-set on the tag bit, realized as fetch_or — the exact
//     lowering x86-64 uses for LOCK BTS) — plus load_pair, which reads
//     two words as one step for a descent that routes on one of them.
//
// tagged_word takes an atomics policy (common/atomics_policy.hpp) as a
// second parameter: the default atomics::native compiles every primitive
// straight to std::atomic, while dsched::sched_atomics inserts a
// schedule point before each shared-memory step so the deterministic
// scheduler (src/dsched/) can explore interleavings.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "common/atomics_policy.hpp"

namespace lfbst {

/// An immutable (pointer, flag, tag, leaf) tuple packed into one machine
/// word.
///
/// Every address packed here must be at least 8-byte aligned so the low
/// three bits of any valid node address are zero; the constructor
/// asserts it. Every heap allocation of a struct containing a pointer or
/// a word-sized integer satisfies this on all supported targets, and the
/// node pools hand out blocks of at least 8 bytes.
template <typename Node>
class tagged_ptr {
 public:
  static constexpr std::uintptr_t flag_bit = 0x1;
  static constexpr std::uintptr_t tag_bit = 0x2;
  static constexpr std::uintptr_t leaf_bit = 0x4;
  static constexpr std::uintptr_t mark_mask = flag_bit | tag_bit;
  static constexpr std::uintptr_t addr_mask = ~(mark_mask | leaf_bit);

  constexpr tagged_ptr() noexcept : bits_(0) {}

  /// Packs an address with explicit mark bits and kind.
  tagged_ptr(Node* address, bool flagged, bool tagged,
             bool leaf = false) noexcept
      : bits_(reinterpret_cast<std::uintptr_t>(address) |
              (flagged ? flag_bit : 0) | (tagged ? tag_bit : 0) |
              (leaf ? leaf_bit : 0)) {
    LFBST_ASSERT((reinterpret_cast<std::uintptr_t>(address) & ~addr_mask) == 0,
                 "node address must be 8-byte aligned to steal 3 bits");
  }

  /// Convenience: a clean (unmarked) pointer.
  static tagged_ptr clean(Node* address) noexcept {
    return tagged_ptr(address, /*flagged=*/false, /*tagged=*/false);
  }

  /// Convenience: a clean pointer whose head is a leaf.
  static tagged_ptr clean_leaf(Node* address) noexcept {
    return tagged_ptr(address, /*flagged=*/false, /*tagged=*/false,
                      /*leaf=*/true);
  }

  static constexpr tagged_ptr from_raw(std::uintptr_t raw) noexcept {
    tagged_ptr p;
    p.bits_ = raw;
    return p;
  }

  [[nodiscard]] Node* address() const noexcept {
    return reinterpret_cast<Node*>(bits_ & addr_mask);
  }
  [[nodiscard]] bool flagged() const noexcept { return bits_ & flag_bit; }
  [[nodiscard]] bool tagged() const noexcept { return bits_ & tag_bit; }
  /// True if either mark bit is set (the edge is owned by a delete).
  [[nodiscard]] bool marked() const noexcept { return bits_ & mark_mask; }
  /// True if the edge's head is a leaf.
  [[nodiscard]] bool leaf() const noexcept { return bits_ & leaf_bit; }
  [[nodiscard]] std::uintptr_t raw() const noexcept { return bits_; }

  /// The same address and kind with different mark bits (used when
  /// copying the flag of a frozen sibling edge onto the replacement
  /// edge, Alg. 4 line 108).
  [[nodiscard]] tagged_ptr with_marks(bool flagged, bool tagged) const noexcept {
    tagged_ptr p;
    p.bits_ = (bits_ & ~mark_mask) | (flagged ? flag_bit : 0) |
              (tagged ? tag_bit : 0);
    return p;
  }

  friend bool operator==(tagged_ptr a, tagged_ptr b) noexcept {
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(tagged_ptr a, tagged_ptr b) noexcept {
    return a.bits_ != b.bits_;
  }

 private:
  std::uintptr_t bits_;
};

/// An atomic cell holding a tagged_ptr — one child field of a tree node.
///
/// Memory-ordering discipline (documented once here, relied on
/// everywhere): loads that begin a traversal use `acquire` so the node
/// contents published by the releasing CAS that linked the node are
/// visible; all RMWs (CAS, BTS) use `acq_rel` semantics or stronger. The
/// NM algorithm's correctness argument never relies on total store
/// order across *different* words, so seq_cst is unnecessary.
///
/// `Atomics` (common/atomics_policy.hpp) interposes on every
/// shared-memory primitive: Atomics::shared_step() runs before each
/// load/CAS/BTS. The native policy's hook is empty and vanishes.
template <typename Node, typename Atomics = atomics::native>
class tagged_word {
 public:
  using value_type = tagged_ptr<Node>;
  using atomics_policy = Atomics;

  tagged_word() noexcept : word_(0) {}
  explicit tagged_word(value_type v) noexcept : word_(v.raw()) {}

  tagged_word(const tagged_word&) = delete;
  tagged_word& operator=(const tagged_word&) = delete;

  [[nodiscard]] value_type load(
      std::memory_order order = std::memory_order_acquire) const noexcept {
    Atomics::shared_step();
    return value_type::from_raw(word_.load(order));
  }

  /// Acquire-loads two words as one shared-memory step: a single
  /// Atomics::shared_step(), then `a`, then `b`. For a descent that
  /// reads both child words of a node but routes on one of them — the
  /// other only feeds a prefetch — so under a scheduling policy the pair
  /// is exactly one schedule point, like the single load it replaces.
  [[nodiscard]] static std::pair<value_type, value_type> load_pair(
      const tagged_word& a, const tagged_word& b) noexcept {
    Atomics::shared_step();
    return {value_type::from_raw(a.word_.load(std::memory_order_acquire)),
            value_type::from_raw(b.word_.load(std::memory_order_acquire))};
  }

  /// Unsynchronized store; only valid before the node is published
  /// (node construction) or during quiescent maintenance (destructor,
  /// validators).
  void store_relaxed(value_type v) noexcept {
    word_.store(v.raw(), std::memory_order_relaxed);
  }

  /// Single-word CAS, strong variant. Returns true on success. On
  /// failure `expected` is updated with the observed value, matching
  /// std::atomic so callers can inspect why they failed (Alg. 2 line 55
  /// re-reads the child word after a failed CAS — the updated expected
  /// value serves as that read).
  bool compare_exchange(value_type& expected, value_type desired) noexcept {
    Atomics::shared_step();
    std::uintptr_t raw = expected.raw();
    const bool ok = word_.compare_exchange_strong(
        raw, desired.raw(), std::memory_order_acq_rel,
        std::memory_order_acquire);
    if (!ok) expected = value_type::from_raw(raw);
    return ok;
  }

  /// Bit-test-and-set on the tag bit (paper's BTS instruction, §2).
  /// Unconditional: succeeds regardless of the word's current value, and
  /// the address part and leaf bit are untouched. Returns the value
  /// observed *before* the set, whose flag bit callers copy to the
  /// replacement edge.
  value_type bts_tag() noexcept {
    Atomics::shared_step();
    return value_type::from_raw(
        word_.fetch_or(value_type::tag_bit, std::memory_order_acq_rel));
  }

  /// Address of the underlying atomic, for tests that poke at raw state.
  std::atomic<std::uintptr_t>& raw_atomic() noexcept { return word_; }

 private:
  std::atomic<std::uintptr_t> word_;
};

static_assert(sizeof(tagged_word<int>) == sizeof(std::uintptr_t),
              "tagged_word must stay a single machine word");

}  // namespace lfbst
