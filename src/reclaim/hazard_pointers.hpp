// lfbst: hazard-pointer reclamation domain (Michael, TPDS 2004).
//
// The paper cites hazard pointers as the route to a reclaiming variant
// of the algorithm (§3.2: "A lock-free algorithm to reclaim memory ...
// can be derived using the well-known notion of hazard pointers [26]").
// This header provides the substrate as a standalone, fully tested
// domain. reclaim::hazard (reclaim/hazard_reclaimer.hpp) plugs it into
// nm_tree, whose seek adds validated re-reads at each traversal step —
// the recipe at the bottom of this file. The domain
// itself is exercised by the hazard-pointer unit tests and the
// Treiber-stack validation harness in tests/reclaim/.
//
// Semantics: a thread publishes the address it is about to dereference
// in one of its K hazard slots, re-reads the source to confirm the
// pointer is still live-reachable, and only then dereferences. retire()
// defers the free until no thread's slot holds the address.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/cacheline.hpp"
#include "common/thread_id.hpp"
#include "obs/trace.hpp"
#include "reclaim/leaky.hpp"

namespace lfbst::reclaim {

/// `SlotsPerThread`: how many distinct objects one operation must keep
/// protected at once. A tree seek that needs (ancestor, successor,
/// parent, leaf) simultaneously uses 4; the Treiber stack uses 1.
template <unsigned SlotsPerThread>
class hazard_domain {
 public:
  static constexpr bool reclaims_eagerly = true;
  static constexpr unsigned slots_per_thread = SlotsPerThread;

  hazard_domain() = default;
  hazard_domain(const hazard_domain&) = delete;
  hazard_domain& operator=(const hazard_domain&) = delete;

  ~hazard_domain() { drain_all_unsafe(); }

  /// Publishes `candidate` in slot `slot`, then re-loads `source` until
  /// the published value matches the current value — the standard
  /// validated-protect loop. Returns the protected pointer (possibly a
  /// newer value than `candidate`). The caller may dereference the
  /// result until the slot is overwritten or cleared.
  template <typename T>
  T* protect(unsigned slot, const std::atomic<T*>& source) noexcept {
    LFBST_ASSERT(slot < SlotsPerThread, "hazard slot out of range");
    std::atomic<void*>& hp = slot_ref(slot);
    T* candidate = source.load(std::memory_order_acquire);
    for (;;) {
      hp.store(candidate, std::memory_order_seq_cst);
      T* fresh = source.load(std::memory_order_seq_cst);
      if (fresh == candidate) return candidate;
      candidate = fresh;
    }
  }

  /// Publishes an already-validated pointer (caller performs its own
  /// source re-check, as tree seeks do).
  void announce(unsigned slot, void* pointer) noexcept {
    LFBST_ASSERT(slot < SlotsPerThread, "hazard slot out of range");
    slot_ref(slot).store(pointer, std::memory_order_seq_cst);
  }

  void clear(unsigned slot) noexcept {
    slot_ref(slot).store(nullptr, std::memory_order_release);
  }

  void clear_all() noexcept {
    for (unsigned s = 0; s < SlotsPerThread; ++s) clear(s);
  }

  /// Defers the free of `object` until no hazard slot holds it.
  void retire(void* object, deleter_fn deleter, void* context) {
    auto& local = retired_[this_thread_index()].value;
    local.push_back({object, deleter, context});
    if (local.size() >= scan_threshold()) scan(local);
  }

  /// Frees everything pending regardless of hazard slots; caller
  /// guarantees quiescence.
  void drain_all_unsafe() {
    for (auto& padded_list : retired_) {
      for (const retired_record& r : padded_list.value) {
        r.deleter(r.object, r.context);
      }
      padded_list.value.clear();
    }
  }

  [[nodiscard]] std::size_t pending() const noexcept {
    std::size_t n = 0;
    for (const auto& l : retired_) n += l.value.size();
    return n;
  }

  /// Total hazard scans executed by this domain (src/obs/ telemetry).
  [[nodiscard]] std::uint64_t scan_count() const noexcept {
    return scan_count_.load(std::memory_order_relaxed);
  }

 private:
  struct retired_record {
    void* object;
    deleter_fn deleter;
    void* context;
  };

  std::atomic<void*>& slot_ref(unsigned slot) noexcept {
    return slots_[this_thread_index() * SlotsPerThread + slot].value;
  }

  /// Michael's rule of thumb: scan when the local list exceeds ~2x the
  /// total slot count, so amortized scan cost per retire is O(1).
  static constexpr std::size_t scan_threshold() noexcept {
    return 2 * static_cast<std::size_t>(max_threads) * SlotsPerThread + 16;
  }

  void scan(std::vector<retired_record>& local) {
    scan_count_.fetch_add(1, std::memory_order_relaxed);
    std::vector<void*> protected_now;
    protected_now.reserve(64);
    for (const auto& s : slots_) {
      void* p = s.value.load(std::memory_order_seq_cst);
      if (p != nullptr) protected_now.push_back(p);
    }
    std::sort(protected_now.begin(), protected_now.end());

    std::vector<retired_record> still_pending;
    still_pending.reserve(local.size());
    for (const retired_record& r : local) {
      const bool hazardous = std::binary_search(protected_now.begin(),
                                                protected_now.end(), r.object);
      if (hazardous) {
        still_pending.push_back(r);
      } else {
        r.deleter(r.object, r.context);
      }
    }
    // Scans are already O(slots + retired); the trace branch is noise.
    obs::emit_global(
        obs::event_type::hazard_scan,
        static_cast<std::uint32_t>(local.size() - still_pending.size()));
    local.swap(still_pending);
  }

  alignas(cacheline_size) std::atomic<std::uint64_t> scan_count_{0};
  padded<std::atomic<void*>> slots_[max_threads * SlotsPerThread];
  padded<std::vector<retired_record>> retired_[max_threads];
};

// Recipe for a hazard-pointer-protected NM-BST seek (what
// nm_tree::seek_protected runs under reclaim::hazard; DESIGN.md §6.5):
//   1. Reserve 4 slots: ancestor, successor, parent, leaf.
//   2. At each traversal step, announce the child pointer about to be
//      followed in the slot it will occupy, then re-read the child field
//      of the (still protected) parent; if the address part changed,
//      restart the seek — the edge moved under us.
//   3. cleanup() retires the excised chain exactly as under EBR; the
//      scan in retire() holds back any node still announced by a seek.
// The re-read in step 2 is the validated-protect loop of protect(),
// unrolled across the traversal.

}  // namespace lfbst::reclaim
