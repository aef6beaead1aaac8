// lfbst: dense thread identifiers.
//
// Epoch-based reclamation and hazard pointers both need a small dense
// integer per participating thread so per-thread slots can live in flat
// arrays. std::this_thread::get_id() is opaque; this registry hands out
// indices 0..max_threads-1, recycling an index when its thread exits so
// long-running processes that churn threads (tests spawn thousands) do
// not exhaust the table.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/assert.hpp"
#include "common/cacheline.hpp"

namespace lfbst {

/// Compile-time ceiling on simultaneously *live* registered threads.
/// Slots are recycled on thread exit, so total threads over a process
/// lifetime is unbounded.
inline constexpr unsigned max_threads = 256;

namespace detail {

class thread_slot_table {
 public:
  static thread_slot_table& instance() noexcept {
    static thread_slot_table table;
    return table;
  }

  unsigned acquire() noexcept {
    for (unsigned i = 0; i < max_threads; ++i) {
      bool expected = false;
      if (in_use_[i].value.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel)) {
        return i;
      }
    }
    LFBST_ASSERT(false, "more than lfbst::max_threads live threads");
    return 0;  // unreachable
  }

  void release(unsigned idx) noexcept {
    in_use_[idx].value.store(false, std::memory_order_release);
  }

 private:
  thread_slot_table() = default;
  padded<std::atomic<bool>> in_use_[max_threads];
};

struct thread_slot_holder {
  unsigned idx;
  thread_slot_holder() noexcept
      : idx(thread_slot_table::instance().acquire()) {}
  ~thread_slot_holder() { thread_slot_table::instance().release(idx); }
};

/// The calling thread's index. dsched's scheduler writes it to run each
/// logical thread (a fiber on this thread) under its own slot. Without
/// always_inline, this extra call level changed GCC's inlining of the
/// trees' hot paths (the contended NM row of bench_ablation's
/// contention study lost ~18%).
[[gnu::always_inline]] inline unsigned& thread_index_slot() noexcept {
  thread_local thread_slot_holder holder;
  return holder.idx;
}

}  // namespace detail

/// Dense id of the calling thread, assigned on first use, recycled at
/// thread exit. Stable for the thread's lifetime (a dsched logical
/// thread has its own).
inline unsigned this_thread_index() noexcept {
  return detail::thread_index_slot();
}

}  // namespace lfbst
