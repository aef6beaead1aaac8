// lfbst: concurrent history recorder feeding the linearizability
// checker. A recorder is bound to one set and shared by every thread of
// a history; threads call its wrappers instead of the set directly.
// Invoke/response timestamps come from one global atomic counter, so
// A.response < B.invoke faithfully captures "A completed before B
// began". The same recorder serves OS threads (tests/lincheck,
// tests/shard) and dsched's logical threads (dsched/harness.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/assert.hpp"
#include "lincheck/lincheck.hpp"

namespace lfbst::lincheck {

template <typename Set>
class recorder {
 public:
  explicit recorder(Set& set) noexcept : set_(set) {}

  /// Executes `insert/erase/contains(key)` on the set bracketed by
  /// timestamps and appends the completed operation to the history.
  bool insert(int key) {
    return record(op_kind::insert, key, [&] { return set_.insert(key); });
  }
  bool erase(int key) {
    return record(op_kind::erase, key, [&] { return set_.erase(key); });
  }
  bool contains(int key) {
    return record(op_kind::contains, key,
                  [&] { return set_.contains(key); });
  }

  /// Batched operations (sets that have them, e.g. shard::sharded_set).
  /// A batch is not atomic — each element is its own linearizable op —
  /// so each element becomes one history entry. All elements share the
  /// batch's invoke timestamp and one response timestamp taken after
  /// the call returns: intervals that cover every element's true
  /// execution window, keeping the check sound (conservative).
  std::vector<bool> insert_batch(const std::vector<int>& keys) {
    return record_batch(op_kind::insert, keys,
                        [&] { return set_.insert_batch(keys); });
  }
  std::vector<bool> erase_batch(const std::vector<int>& keys) {
    return record_batch(op_kind::erase, keys,
                        [&] { return set_.erase_batch(keys); });
  }
  std::vector<bool> contains_batch(const std::vector<int>& keys) {
    return record_batch(op_kind::contains, keys,
                        [&] { return set_.contains_batch(keys); });
  }

  /// Concurrent ordered scan, encoded with the same conservative
  /// intervals as a batch: a scan is not atomic — each key it reports
  /// (or omits) behaves like an individual contains() linearized inside
  /// the scan — so the history gets one contains(k, k ∈ result) entry
  /// for every key of [lo, hi), all sharing the scan's [invoke,
  /// response] window. Keys the scan skipped become contains→false
  /// entries, which is what makes a *wrongly missing* key fail the
  /// check. A scan's own unconditional guarantees (every key in
  /// [lo, hi), sorted, unique) are asserted on every call. Keep ranges
  /// small: each scan appends hi − lo entries to the history the
  /// checker must order.
  std::vector<int> range_scan(int lo, int hi) {
    using set_key = typename Set::key_type;
    const std::uint64_t invoke =
        clock_.fetch_add(1, std::memory_order_acq_rel);
    const std::vector<set_key> raw = set_.range_scan(
        static_cast<set_key>(lo), static_cast<set_key>(hi));
    const std::uint64_t response =
        clock_.fetch_add(1, std::memory_order_acq_rel);
    std::vector<int> result;
    result.reserve(raw.size());
    for (const set_key& k : raw) result.push_back(static_cast<int>(k));
    for (std::size_t i = 0; i < result.size(); ++i) {
      LFBST_ASSERT(result[i] >= lo && result[i] < hi,
                   "range_scan returned a key outside [lo, hi)");
      LFBST_ASSERT(i == 0 || result[i - 1] < result[i],
                   "range_scan result not sorted/unique");
    }
    std::lock_guard<std::mutex> g(mutex_);
    std::size_t next = 0;  // result is sorted: one linear merge suffices
    for (int k = lo; k < hi; ++k) {
      while (next < result.size() && result[next] < k) ++next;
      const bool present = next < result.size() && result[next] == k;
      ops_.push_back(operation{op_kind::contains, k, present, invoke,
                               response});
    }
    return result;
  }

  /// The completed history; call only after all recording threads have
  /// finished.
  [[nodiscard]] history take() {
    std::lock_guard<std::mutex> g(mutex_);
    return std::move(ops_);
  }

 private:
  template <typename F>
  bool record(op_kind kind, int key, F&& run) {
    const std::uint64_t invoke = clock_.fetch_add(1, std::memory_order_acq_rel);
    const bool result = run();
    const std::uint64_t response =
        clock_.fetch_add(1, std::memory_order_acq_rel);
    std::lock_guard<std::mutex> g(mutex_);
    ops_.push_back(operation{kind, key, result, invoke, response});
    return result;
  }

  template <typename F>
  std::vector<bool> record_batch(op_kind kind, const std::vector<int>& keys,
                                 F&& run) {
    const std::uint64_t invoke =
        clock_.fetch_add(1, std::memory_order_acq_rel);
    std::vector<bool> results = run();
    const std::uint64_t response =
        clock_.fetch_add(1, std::memory_order_acq_rel);
    std::lock_guard<std::mutex> g(mutex_);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ops_.push_back(operation{kind, keys[i], results[i], invoke, response});
    }
    return results;
  }

  Set& set_;
  std::atomic<std::uint64_t> clock_{0};
  std::mutex mutex_;
  history ops_;
};

}  // namespace lfbst::lincheck
