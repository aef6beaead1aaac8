// lfbst: the concurrent ordered-scan front-end shared by nm_tree and
// kary_tree (multiway/kary_tree.hpp).
//
// Both trees scan under the same conservative-interval contract
// (docs/ALGORITHM.md §7): the result is sorted and duplicate-free;
// every key present for the scan's whole duration appears; every key
// absent throughout does not. A key inserted or erased concurrently may
// or may not appear — each emitted (or skipped) key behaves like an
// individual contains() linearized somewhere inside the scan's
// interval, not like one atomic snapshot.
//
// This header holds everything about a scan that does not depend on the
// tree's shape: the public entry points, the interval predicate, the
// pin-once entry that picks the traversal the reclaimer allows, and the
// cursor loop that drives a validated (hazard-pointer) scan, which only
// nm_tree takes: kary_tree rejects hazard pointers. A tree derives from
// ordered_scan<Tree, Key> (CRTP — no virtual dispatch), befriends it,
// and supplies scan_pinned, plus scan_round if it accepts a reclaimer
// that requires validated traversal:
//
//   template <typename Emit>
//   void scan_pinned(const Key* lo, const Key* hi, bool closed,
//                    Emit& emit) const;
//     Epoch/leaky: one walk under the caller's pin, pruning subtrees
//     outside [lo, hi) (or [lo, hi] when closed) and calling emit(key)
//     in ascending order for each present key that passes in_range.
//     emit returns false when the visitor is done; the walk then stops.
//
//   template <typename Emit>
//   scan_step<Key> scan_round(const Key* cursor, bool inclusive,
//                             Emit& emit) const;
//     Hazard (nm_tree): one validated descent answering "which keys
//     come next at or after the cursor" (strictly after it when
//     !inclusive; a null cursor means the start of the key space).
//     Passes the present keys it found to emit in ascending order,
//     only after the round validated, and reports where the next round
//     starts. Here emit applies the interval and cursor tests itself.
//     A failed validation emits nothing and returns a default
//     scan_step; the loop here retries the round at the same cursor,
//     so emitted progress is never redone.
//
// emit counts the keys visited for on_scan_op. The pinned walk filters
// with in_range itself because that keeps its hot loop small enough to
// inline into the entry, where constant bounds fold away. The tree also
// names its members reclaimer_ and stats_, and exposes key_compare,
// reclaimer_type and atomics_policy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/atomics_policy.hpp"
#include "common/backoff.hpp"

namespace lfbst {

/// What one validated scan round reports to the cursor loop. The
/// default value means the round failed validation and must be retried.
template <typename Key>
struct scan_step {
  bool validated = false;
  /// Where the next round starts; nullopt once nothing lies above.
  std::optional<Key> next{};
  /// Whether `next` itself may still be emitted by the next round.
  bool next_inclusive = false;
};

template <typename Tree, typename Key>
class ordered_scan {
 public:
  /// Keys in the half-open interval [lo, hi), ascending. Empty when
  /// lo >= hi.
  [[nodiscard]] std::vector<Key> range_scan(const Key& lo,
                                            const Key& hi) const {
    std::vector<Key> out;
    if (less(lo, hi)) scan_until(&lo, &hi, /*closed=*/false, appender(out));
    return out;
  }

  /// Keys in the closed interval [lo, hi], ascending — reaches the key
  /// domain's maximum value, which no half-open interval can name.
  [[nodiscard]] std::vector<Key> range_scan_closed(const Key& lo,
                                                   const Key& hi) const {
    std::vector<Key> out;
    if (!less(hi, lo)) scan_until(&lo, &hi, /*closed=*/true, appender(out));
    return out;
  }

  /// Bounded form: the up-to-max_items *smallest* keys of [lo, hi),
  /// ascending. The scan stops walking as soon as the budget fills, so
  /// a page over a huge subrange costs O(page), not O(range). A full
  /// page does not by itself imply more keys remain; pagers resume
  /// above the last key (shard::sharded_set::range_scan_limit).
  [[nodiscard]] std::vector<Key> range_scan(const Key& lo, const Key& hi,
                                            std::size_t max_items) const {
    std::vector<Key> out;
    if (max_items == 0 || !less(lo, hi)) return out;
    scan_until(&lo, &hi, /*closed=*/false, [&out, max_items](const Key& k) {
      out.push_back(k);
      return out.size() < max_items;
    });
    return out;
  }

  /// Concurrent whole-tree ordered visit: fn(key) for every key in
  /// ascending order, under the same contract as range_scan.
  template <typename F>
  void for_each(F&& fn) const {
    scan_until(nullptr, nullptr, /*closed=*/false, visit_all(fn));
  }

  /// Concurrent ordered visit over [lo, hi).
  template <typename F>
  void for_each(const Key& lo, const Key& hi, F&& fn) const {
    if (less(lo, hi)) scan_until(&lo, &hi, /*closed=*/false, visit_all(fn));
  }

  /// The entry every scan above goes through: fn(key) for each key of
  /// [lo, hi) — [lo, hi] when `closed` — in ascending order, until fn
  /// returns false. A null bound leaves that side open. Pins once for
  /// the whole scan and attributes the keys visited to the tree's
  /// Stats policy.
  template <typename F>
  void scan_until(const Key* lo, const Key* hi, bool closed, F&& fn) const {
    const Tree& t = tree();
    std::uint64_t visited = 0;
    auto emit = [&](const Key& k) {
      ++visited;
      return static_cast<bool>(fn(k));
    };
    {
      [[maybe_unused]] auto guard = t.reclaimer_.pin();
      if constexpr (Tree::reclaimer_type::requires_validated_traversal) {
        scan_validated(lo, hi, closed, emit);
      } else {
        t.scan_pinned(lo, hi, closed, emit);
      }
    }
    t.stats_.on_scan_op(visited);
  }

 protected:
  ordered_scan() = default;

  /// The interval predicate: does `k` lie in [lo, hi) — [lo, hi] when
  /// closed? A null bound leaves that side open.
  static bool in_range(const Key& k, const Key* lo, const Key* hi,
                       bool closed) {
    return (lo == nullptr || !less(k, *lo)) && !past_hi(k, hi, closed);
  }

 private:
  [[nodiscard]] const Tree& tree() const noexcept {
    return static_cast<const Tree&>(*this);
  }

  static bool less(const Key& a, const Key& b) {
    return typename Tree::key_compare{}(a, b);
  }

  /// True iff `k` lies above the interval's upper end.
  static bool past_hi(const Key& k, const Key* hi, bool closed) {
    return hi != nullptr && (closed ? less(*hi, k) : !less(k, *hi));
  }

  static auto appender(std::vector<Key>& out) {
    return [&out](const Key& k) {
      out.push_back(k);
      return true;
    };
  }

  template <typename F>
  static auto visit_all(F& fn) {
    return [&fn](const Key& k) {
      fn(k);
      return true;
    };
  }

  /// Hazard pointers protect a handful of nodes, not a whole epoch, so
  /// a validated scan cannot be one long walk: it is a chain of rounds,
  /// each a fresh validated descent toward the cursor. A failed round is
  /// retried at the same cursor after a backoff; a validated one moves
  /// the cursor strictly forward. The scan ends when a round finds
  /// nothing above, when the next cursor lies past `hi`, or when the
  /// visitor stops.
  template <typename Emit>
  void scan_validated(const Key* lo, const Key* hi, bool closed,
                      Emit& emit) const {
    constexpr bool use_backoff =
        std::is_same_v<typename Tree::atomics_policy, atomics::native>;
    const Tree& t = tree();
    std::optional<Key> cursor;
    if (lo != nullptr) cursor = *lo;
    bool inclusive = true;  // the first round admits lo itself
    bool stopped = false;
    // Keys at or below the cursor were covered by an earlier round (or
    // lie below lo); a round may land on a node holding some.
    auto admit = [&](const Key& k) {
      if (!in_range(k, lo, hi, closed) ||
          (cursor.has_value() &&
           (inclusive ? less(k, *cursor) : !less(*cursor, k)))) {
        return true;
      }
      stopped = !emit(k);
      return !stopped;
    };
    [[maybe_unused]] backoff delay;
    for (;;) {
      scan_step<Key> step = t.scan_round(
          cursor.has_value() ? &*cursor : nullptr, inclusive, admit);
      if (stopped) return;
      if (!step.validated) {
        t.stats_.on_scan_restart();
        if constexpr (use_backoff) delay();
        continue;
      }
      if (!step.next.has_value() || past_hi(*step.next, hi, closed)) return;
      cursor = std::move(step.next);
      inclusive = step.next_inclusive;
      if constexpr (use_backoff) delay.reset();
    }
  }
};

}  // namespace lfbst
