// lfbst: linearizability checker for *map* histories — extends the set
// checker to nm_map's operation alphabet (get / insert / insert_or_assign
// / erase with values), so the single-CAS replace path gets the same
// exhaustive verification the set operations get.
//
// State is a small key→value map rather than a bitmask, so memoization
// hashes a canonical serialization. Same Wing–Gong search, same
// real-time constraint, histories up to ~20 operations.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "common/assert.hpp"

namespace lfbst::lincheck {

enum class map_op_kind : std::uint8_t {
  get,            // result: found + value
  insert,         // keeps existing value; result: inserted?
  insert_assign,  // overwrites; result: inserted (vs assigned)?
  erase,          // result: removed?
};

struct map_operation {
  map_op_kind kind;
  int key;
  std::int64_t value;      // argument for insert/assign; ignored otherwise
  bool result;             // primary boolean result
  bool found;              // get only
  std::int64_t observed;   // get only: the value read (when found)
  std::uint64_t invoke;
  std::uint64_t response;
};

using map_history = std::vector<map_operation>;

class map_checker {
 public:
  static constexpr std::size_t max_ops = 64;

  [[nodiscard]] static bool is_linearizable(const map_history& h) {
    LFBST_ASSERT(h.size() <= max_ops, "history too long for map checker");
    map_checker c(h);
    std::map<int, std::int64_t> state;
    return c.search(state, 0);
  }

 private:
  explicit map_checker(const map_history& h) : ops_(h) {}

  bool search(std::map<int, std::int64_t>& state, std::uint64_t done) {
    if (done == ((ops_.size() == 64) ? ~std::uint64_t{0}
                                     : ((std::uint64_t{1} << ops_.size()) -
                                        1))) {
      return true;
    }
    const std::vector<std::int64_t> sig = signature(state, done);
    if (failed_.contains(sig)) return false;

    std::uint64_t min_response = ~std::uint64_t{0};
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (!(done & (std::uint64_t{1} << i))) {
        min_response = std::min(min_response, ops_[i].response);
      }
    }
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const std::uint64_t bit = std::uint64_t{1} << i;
      if (done & bit) continue;
      if (ops_[i].invoke > min_response) continue;
      const map_operation& op = ops_[i];
      // Apply with undo (cheaper than copying the map per branch).
      std::optional<std::int64_t> saved;
      const auto it = state.find(op.key);
      if (it != state.end()) saved = it->second;
      if (!apply(op, state)) continue;
      if (search(state, done | bit)) return true;
      // Undo.
      if (saved.has_value()) {
        state[op.key] = *saved;
      } else {
        state.erase(op.key);
      }
    }
    failed_.insert(sig);
    return false;
  }

  static bool apply(const map_operation& op,
                    std::map<int, std::int64_t>& state) {
    const auto it = state.find(op.key);
    const bool present = it != state.end();
    switch (op.kind) {
      case map_op_kind::get:
        if (op.found != present) return false;
        if (present && op.observed != it->second) return false;
        return true;
      case map_op_kind::insert:
        if (op.result == present) return false;
        if (!present) state.emplace(op.key, op.value);
        return true;
      case map_op_kind::insert_assign:
        if (op.result != !present) return false;  // result = inserted?
        state[op.key] = op.value;
        return true;
      case map_op_kind::erase:
        if (op.result != present) return false;
        if (present) state.erase(it);
        return true;
    }
    return false;
  }

  /// Exact memo key (a hash could collide and wrongly prune a viable
  /// branch, turning the checker flaky); histories are small enough that
  /// exact keys are cheap.
  static std::vector<std::int64_t> signature(
      const std::map<int, std::int64_t>& state, std::uint64_t done) {
    std::vector<std::int64_t> sig;
    sig.reserve(1 + 2 * state.size());
    sig.push_back(static_cast<std::int64_t>(done));
    for (const auto& [k, v] : state) {
      sig.push_back(k);
      sig.push_back(v);
    }
    return sig;
  }

  const map_history& ops_;
  std::set<std::vector<std::int64_t>> failed_;
};

/// Recorder for map histories, timestamped like lincheck::recorder.
class map_recorder {
 public:
  template <typename Map>
  bool insert(Map& m, int key, std::int64_t value) {
    const std::uint64_t t0 = tick();
    const bool r = m.insert(static_cast<typename Map::key_type>(key), value);
    record({map_op_kind::insert, key, value, r, false, 0, t0, tick()});
    return r;
  }
  template <typename Map>
  bool insert_or_assign(Map& m, int key, std::int64_t value) {
    const std::uint64_t t0 = tick();
    const bool r =
        m.insert_or_assign(static_cast<typename Map::key_type>(key), value);
    record({map_op_kind::insert_assign, key, value, r, false, 0, t0, tick()});
    return r;
  }
  template <typename Map>
  bool erase(Map& m, int key) {
    const std::uint64_t t0 = tick();
    const bool r = m.erase(static_cast<typename Map::key_type>(key));
    record({map_op_kind::erase, key, 0, r, false, 0, t0, tick()});
    return r;
  }
  template <typename Map>
  void get(Map& m, int key) {
    const std::uint64_t t0 = tick();
    const auto v = m.get(static_cast<typename Map::key_type>(key));
    record({map_op_kind::get, key, 0, v.has_value(), v.has_value(),
            v.has_value() ? *v : 0, t0, tick()});
  }

  [[nodiscard]] map_history take() {
    std::lock_guard<std::mutex> g(mutex_);
    return std::move(ops_);
  }

 private:
  std::uint64_t tick() {
    return clock_.fetch_add(1, std::memory_order_acq_rel);
  }
  void record(map_operation op) {
    std::lock_guard<std::mutex> g(mutex_);
    ops_.push_back(op);
  }

  std::atomic<std::uint64_t> clock_{0};
  std::mutex mutex_;
  map_history ops_;
};

}  // namespace lfbst::lincheck
