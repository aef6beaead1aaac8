// lfbst: per-tree-instance metrics — the repo's one instrumentation
// system (stats::none in core/stats.hpp is the zero-cost off switch).
//
// Three pieces:
//
//   * metrics          — a registry of cache-line-padded per-thread
//                        counter stripes. Increments on the hot path are
//                        relaxed atomic load/store pairs (each stripe
//                        has exactly one writer: its thread); reads
//                        aggregate all stripes. Any number of instances
//                        can be live at once, so every tree gets its own
//                        attribution.
//   * recording        — a Stats policy (the trees' Stats template
//                        parameter) that owns a metrics registry plus
//                        per-thread latency and seek-depth histograms
//                        (allocated on each thread's first record), and
//                        optionally mirrors events into a trace_log.
//                        Counter deltas across one uncontended operation
//                        are the paper's Table 1 costs (allocs, and
//                        atomics = cas + bts).
//   * latency_observer — a harness::run_workload observer that records
//                        per-op wall latencies into per-thread histograms
//                        (one per op kind), for benches that want
//                        percentile output without instrumenting the
//                        tree itself.
//
// Aggregation (snapshot(), merged histograms) is designed for
// quiescent or monotonically racy reads: counters and histogram cells
// are atomics, so a concurrent snapshot is TSan-clean and observes
// some valid partial sums. Exact totals still require quiescence; the
// live telemetry sampler (obs/telemetry.hpp) deliberately consumes the
// racy-monotone form.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/cacheline.hpp"
#include "common/thread_id.hpp"
#include "core/stats.hpp"  // op_kind / help_kind vocabulary (no further deps)
#include "obs/heatmap.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"

namespace lfbst::obs {

/// The counter set. Stable names (counter_name) appear in JSON exports.
enum class counter : unsigned {
  ops_search,
  ops_insert,
  ops_erase,
  ops_succeeded,   // ops whose boolean result was true
  allocs,          // nodes/records allocated
  cas,             // CAS attempts (success or failure)
  cas_failed,      // CAS attempts that lost a race
  bts,             // sibling-edge tags
  seek_restarts,   // re-seeks after a failed CAS
  restarts_injection_fail,  // ... caused by a lost injection CAS
  restarts_cleanup_mode,    // ... caused by erase's cleanup retrying
  seek_resumes_local,       // retry seeks resumed from the anchor edge
  seek_anchor_fallbacks,    // retry seeks that fell back to the root
                            // because anchor validation failed
  helps,           // cleanups run on behalf of other operations
  helps_flagged,   // ... attributed to a flagged edge
  helps_tagged,    // ... attributed to a tagged edge
  cleanups,        // cleanup() invocations (owner or helper)
  excisions,       // successful ancestor-CAS removals
  excised_nodes,   // total nodes removed by those excisions (>2 per
                   // excision is the paper's Fig. 2 multi-leaf removal)
  ops_scan,            // completed range_scan/for_each calls
  scan_keys_visited,   // keys emitted across all scans
  scan_restarts,       // scan validation failures forcing a re-descent
  kCount
};

inline constexpr std::size_t counter_count =
    static_cast<std::size_t>(counter::kCount);

[[nodiscard]] inline const char* counter_name(counter c) noexcept {
  switch (c) {
    case counter::ops_search: return "ops_search";
    case counter::ops_insert: return "ops_insert";
    case counter::ops_erase: return "ops_erase";
    case counter::ops_succeeded: return "ops_succeeded";
    case counter::allocs: return "allocs";
    case counter::cas: return "cas";
    case counter::cas_failed: return "cas_failed";
    case counter::bts: return "bts";
    case counter::seek_restarts: return "seek_restarts";
    case counter::restarts_injection_fail: return "restarts_injection_fail";
    case counter::restarts_cleanup_mode: return "restarts_cleanup_mode";
    case counter::seek_resumes_local: return "seek_resumes_local";
    case counter::seek_anchor_fallbacks: return "seek_anchor_fallbacks";
    case counter::helps: return "helps";
    case counter::helps_flagged: return "helps_flagged";
    case counter::helps_tagged: return "helps_tagged";
    case counter::cleanups: return "cleanups";
    case counter::excisions: return "excisions";
    case counter::excised_nodes: return "excised_nodes";
    case counter::ops_scan: return "ops_scan";
    case counter::scan_keys_visited: return "scan_keys_visited";
    case counter::scan_restarts: return "scan_restarts";
    case counter::kCount: break;
  }
  return "unknown";
}

struct metrics_snapshot {
  std::array<std::uint64_t, counter_count> values{};

  [[nodiscard]] std::uint64_t operator[](counter c) const noexcept {
    return values[static_cast<std::size_t>(c)];
  }

  /// Counter-wise addition — the same associative/commutative merge
  /// algebra as histogram::merge(). Lets callers that own several
  /// instrumented instances (one registry per tree; see
  /// shard/sharded_set.hpp) fold their snapshots into one attribution.
  metrics_snapshot& merge(const metrics_snapshot& other) noexcept {
    for (std::size_t c = 0; c < counter_count; ++c) {
      values[c] += other.values[c];
    }
    return *this;
  }

  /// Counter-wise saturating subtraction — the window-delta inverse of
  /// merge(), used by the telemetry sampler to turn two cumulative
  /// snapshots into a per-window rate. Saturating because a live
  /// snapshot pair may be mutually skewed by in-flight increments.
  [[nodiscard]] metrics_snapshot delta_since(
      const metrics_snapshot& earlier) const noexcept {
    metrics_snapshot d;
    for (std::size_t c = 0; c < counter_count; ++c) {
      d.values[c] =
          values[c] > earlier.values[c] ? values[c] - earlier.values[c] : 0;
    }
    return d;
  }

  /// Atomic instructions executed, as Table 1 counts them: CAS attempts
  /// (failed ones included — cas_failed is a subset of cas) plus BTS.
  [[nodiscard]] std::uint64_t atomics() const noexcept {
    return (*this)[counter::cas] + (*this)[counter::bts];
  }

  /// Point ops (search + insert + erase) — the denominator for
  /// per-shard load shares.
  [[nodiscard]] std::uint64_t point_ops() const noexcept {
    return (*this)[counter::ops_search] + (*this)[counter::ops_insert] +
           (*this)[counter::ops_erase];
  }
};

/// Per-instance striped counter registry. add() must be called from a
/// registered thread (this_thread_index()); each stripe is written only
/// by its owning thread, so increments are relaxed load/store pairs —
/// no RMW, no cross-core traffic on the hot path.
class metrics {
 public:
  metrics() : stripes_(new stripe[max_threads]) {}

  metrics(const metrics&) = delete;
  metrics& operator=(const metrics&) = delete;

  void add(counter c, std::uint64_t n = 1) noexcept {
    std::atomic<std::uint64_t>& cell =
        stripes_[this_thread_index()].values[static_cast<std::size_t>(c)];
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }

  [[nodiscard]] metrics_snapshot snapshot() const noexcept {
    metrics_snapshot s;
    for (unsigned t = 0; t < max_threads; ++t) {
      for (std::size_t c = 0; c < counter_count; ++c) {
        s.values[c] +=
            stripes_[t].values[c].load(std::memory_order_relaxed);
      }
    }
    return s;
  }

  /// The counters `op()` adds: one operation's own costs, exact when no
  /// other thread writes this registry meanwhile.
  template <typename F>
  [[nodiscard]] metrics_snapshot delta_across(F&& op) const {
    const metrics_snapshot before = snapshot();
    std::forward<F>(op)();
    return snapshot().delta_since(before);
  }

  [[nodiscard]] std::uint64_t total(counter c) const noexcept {
    std::uint64_t n = 0;
    for (unsigned t = 0; t < max_threads; ++t) {
      n += stripes_[t]
               .values[static_cast<std::size_t>(c)]
               .load(std::memory_order_relaxed);
    }
    return n;
  }

  void reset() noexcept {
    for (unsigned t = 0; t < max_threads; ++t) {
      for (std::size_t c = 0; c < counter_count; ++c) {
        stripes_[t].values[c].store(0, std::memory_order_relaxed);
      }
    }
  }

 private:
  struct alignas(cacheline_size) stripe {
    std::array<std::atomic<std::uint64_t>, counter_count> values{};
  };

  std::unique_ptr<stripe[]> stripes_;
};

/// Per-thread histogram state, allocated on each thread's first record.
/// Slot t is written once, by the thread holding index t, with a release
/// store; readers load slots with acquire and skip the empty ones, so an
/// instance that four threads touch holds four states, not max_threads.
/// The states themselves keep histogram.hpp's single-writer,
/// racy-monotone reader contract.
template <typename T>
class thread_slots {
 public:
  thread_slots() : slots_(new std::atomic<padded<T>*>[max_threads]()) {}
  ~thread_slots() {
    for (unsigned t = 0; t < max_threads; ++t) {
      delete slots_[t].load(std::memory_order_relaxed);
    }
  }

  thread_slots(const thread_slots&) = delete;
  thread_slots& operator=(const thread_slots&) = delete;

  /// The calling thread's state. Only this thread stores to its slot,
  /// so its own relaxed load sees its own publication.
  T& local() const {
    std::atomic<padded<T>*>& slot = slots_[this_thread_index()];
    padded<T>* state = slot.load(std::memory_order_relaxed);
    if (state == nullptr) [[unlikely]] {
      state = new padded<T>();
      slot.store(state, std::memory_order_release);
    }
    return state->value;
  }

  /// Calls `f` on every published state.
  template <typename F>
  void for_each(F&& f) const {
    for (unsigned t = 0; t < max_threads; ++t) {
      if (const padded<T>* state = slots_[t].load(std::memory_order_acquire)) {
        f(state->value);
      }
    }
  }

 private:
  std::unique_ptr<std::atomic<padded<T>*>[]> slots_;
};

/// Stats policy with per-instance state: striped counters, per-thread
/// latency histograms (one per op kind) and seek-depth histograms, and
/// an optional trace_log mirror. Use as the trees' Stats parameter:
///
///   nm_tree<long, std::less<long>, reclaim::leaky, obs::recording> t;
///   t.insert(42);
///   auto snap = t.stats().counters().snapshot();
///   auto p99 = t.stats().latency_histogram(stats::op_kind::insert)
///                  .value_at_percentile(99);
///
/// Hook methods are const (called through the tree's mutable stats
/// member from const operations like contains()).
class recording {
 public:
  static constexpr bool enabled = true;

  recording() : metrics_(new metrics()) {}

  recording(const recording&) = delete;
  recording& operator=(const recording&) = delete;

  // --- the Stats hook surface (see core/stats.hpp) --------------------

  void on_alloc(std::uint64_t n = 1) const noexcept {
    metrics_->add(counter::allocs, n);
  }
  void on_cas() const noexcept { metrics_->add(counter::cas); }
  void on_cas_fail() const noexcept {
    metrics_->add(counter::cas_failed);
    trace(event_type::cas_fail);
  }
  void on_bts() const noexcept {
    metrics_->add(counter::bts);
    trace(event_type::bts);
  }
  void on_seek_restart() const noexcept {
    metrics_->add(counter::seek_restarts);
    trace(event_type::seek_restart);
  }
  void on_seek_restart(stats::restart_kind kind) const noexcept {
    metrics_->add(counter::seek_restarts);
    metrics_->add(kind == stats::restart_kind::injection_fail
                      ? counter::restarts_injection_fail
                      : counter::restarts_cleanup_mode);
    trace(event_type::seek_restart, 0, static_cast<std::uint16_t>(kind));
  }
  void on_seek_resume_local() const noexcept {
    metrics_->add(counter::seek_resumes_local);
  }
  void on_seek_anchor_fallback() const noexcept {
    metrics_->add(counter::seek_anchor_fallbacks);
  }
  void on_help() const noexcept {
    on_help(stats::help_kind::unattributed);
  }
  void on_help(stats::help_kind kind) const noexcept {
    metrics_->add(counter::helps);
    if (kind == stats::help_kind::flagged_edge) {
      metrics_->add(counter::helps_flagged);
    } else if (kind == stats::help_kind::tagged_edge) {
      metrics_->add(counter::helps_tagged);
    }
    trace(event_type::help, 0, static_cast<std::uint16_t>(kind));
  }
  void on_cleanup() const noexcept {
    metrics_->add(counter::cleanups);
    trace(event_type::cleanup);
  }
  void on_excision(std::uint64_t nodes) const noexcept {
    metrics_->add(counter::excisions);
    metrics_->add(counter::excised_nodes, nodes);
    trace(event_type::excision, static_cast<std::uint32_t>(nodes));
  }

  void on_op_begin(stats::op_kind kind) const noexcept {
    switch (kind) {
      case stats::op_kind::search: metrics_->add(counter::ops_search); break;
      case stats::op_kind::insert: metrics_->add(counter::ops_insert); break;
      case stats::op_kind::erase: metrics_->add(counter::ops_erase); break;
    }
    local().op_start_ns = now_ns();
    trace(event_type::op_begin, 0, static_cast<std::uint16_t>(kind));
  }

  void on_op_end(stats::op_kind kind, bool result) const noexcept {
    thread_state& ts = local();
    const std::uint64_t elapsed = now_ns() - ts.op_start_ns;
    ts.latency[static_cast<std::size_t>(kind)].record(elapsed);
    if (result) metrics_->add(counter::ops_succeeded);
    trace(event_type::op_end, result ? 1 : 0,
          static_cast<std::uint16_t>(kind));
  }

  void on_seek(std::uint64_t depth) const noexcept {
    local().seek_depth.record(depth);
  }

  /// Per-op key hook feeding the hotness heatmap. The tree calls this
  /// (gated by `if constexpr (requires ...)` and an integral key) right
  /// after on_op_begin; with no heatmap attached it is one relaxed load
  /// and a branch.
  void on_op_key(stats::op_kind /*kind*/, std::int64_t key) const noexcept {
    if (key_heatmap* hm = heatmap_.load(std::memory_order_relaxed)) {
      hm->record(key);
    }
  }

  void on_scan_op(std::uint64_t keys_visited) const noexcept {
    metrics_->add(counter::ops_scan);
    metrics_->add(counter::scan_keys_visited, keys_visited);
  }
  void on_scan_restart() const noexcept {
    metrics_->add(counter::scan_restarts);
  }

  // --- instance access ------------------------------------------------

  [[nodiscard]] metrics& counters() const noexcept { return *metrics_; }

  /// Merged over all threads. Safe concurrently with writers
  /// (racy-monotone, see obs/histogram.hpp); exact at quiescence.
  [[nodiscard]] histogram latency_histogram(stats::op_kind kind) const {
    histogram merged;
    threads_.for_each([&](const thread_state& ts) {
      merged.merge(ts.latency[static_cast<std::size_t>(kind)]);
    });
    return merged;
  }

  /// Merged seek-path-length distribution. Same read contract as
  /// latency_histogram.
  [[nodiscard]] histogram seek_depth_histogram() const {
    histogram merged;
    threads_.for_each(
        [&](const thread_state& ts) { merged.merge(ts.seek_depth); });
    return merged;
  }

  /// Mirror every event into `log` (nullptr detaches). The log must
  /// outlive the attachment.
  void attach_trace(trace_log* log) noexcept {
    trace_.store(log, std::memory_order_release);
  }
  [[nodiscard]] trace_log* attached_trace() const noexcept {
    return trace_.load(std::memory_order_acquire);
  }

  /// Route sampled per-op keys into `hm` (nullptr detaches). The
  /// heatmap must outlive the attachment.
  void attach_heatmap(key_heatmap* hm) noexcept {
    heatmap_.store(hm, std::memory_order_release);
  }
  [[nodiscard]] key_heatmap* attached_heatmap() const noexcept {
    return heatmap_.load(std::memory_order_acquire);
  }

 private:
  struct thread_state {
    std::uint64_t op_start_ns = 0;
    std::array<histogram, 3> latency;  // indexed by op_kind
    histogram seek_depth;
  };

  thread_state& local() const { return threads_.local(); }

  void trace(event_type type, std::uint32_t arg = 0,
             std::uint16_t aux = 0) const noexcept {
    if (trace_log* log = trace_.load(std::memory_order_relaxed)) {
      log->emit(type, arg, aux);
    }
  }

  static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  std::unique_ptr<metrics> metrics_;
  thread_slots<thread_state> threads_;
  std::atomic<trace_log*> trace_{nullptr};
  std::atomic<key_heatmap*> heatmap_{nullptr};
};

/// run_workload observer recording each operation's wall latency into
/// per-thread, per-op-kind histograms (see harness/runner.hpp).
class latency_observer {
 public:
  static constexpr bool observes_ops = true;

  latency_observer() = default;

  latency_observer(const latency_observer&) = delete;
  latency_observer& operator=(const latency_observer&) = delete;

  void on_op(unsigned /*worker*/, stats::op_kind kind, bool /*result*/,
             std::uint64_t latency_ns) noexcept {
    threads_.local().latency[static_cast<std::size_t>(kind)].record(
        latency_ns);
  }

  /// Merged over all threads. Safe concurrently with writers
  /// (racy-monotone); exact at quiescence.
  [[nodiscard]] histogram merged(stats::op_kind kind) const {
    histogram h;
    threads_.for_each([&](const thread_state& ts) {
      h.merge(ts.latency[static_cast<std::size_t>(kind)]);
    });
    return h;
  }

  /// All op kinds combined.
  [[nodiscard]] histogram merged_all() const {
    histogram h;
    threads_.for_each([&](const thread_state& ts) {
      for (const histogram& per_kind : ts.latency) h.merge(per_kind);
    });
    return h;
  }

 private:
  struct thread_state {
    std::array<histogram, 3> latency;
  };

  thread_slots<thread_state> threads_;
};

}  // namespace lfbst::obs
