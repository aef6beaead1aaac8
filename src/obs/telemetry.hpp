// lfbst: live telemetry — windowed metric snapshots off a running set.
//
// PR 2's obs layer answers "what happened?" at quiescence; this file
// answers "what is happening?" while writers run. Three pieces:
//
//   * telemetry_window — one sampling interval's worth of deltas:
//     merged counter deltas (rates, not lifetime totals), per-shard
//     point-op deltas (the load-share/imbalance signal), and p50/p99
//     latency and seek-depth computed from histogram deltas over the
//     window.
//
//   * telemetry_ring — a fixed ring of the most recent windows, each
//     slot a per-slot seqlock over plain atomic words: one writer (the
//     sampler) publishes, any number of readers (exposition endpoint,
//     stat-opcode handler, tests) read lock-free and TSan-clean; a
//     reader that loses the race to a wrapping writer simply fails
//     that slot and takes a newer window.
//
//   * sampler<Set> — a background thread that ticks every interval_ms:
//     snapshots each shard's counters (racy-monotone, see
//     obs/metrics.hpp), merges the live latency/seek histograms,
//     subtracts the previous tick's cumulative state, and publishes
//     the resulting window. It also owns the flight recorder: a
//     trace_log kept continuously armed whose last N milliseconds are
//     dumped to a Perfetto/Chrome-trace file when request_flight_dump()
//     fires (SIGUSR1 in lfbst_serve, or the stat opcode's dump flag —
//     the request is one atomic store, safe from a signal handler).
//
// Set must look like shard::sharded_set over obs::recording trees:
// shard_count(), shard_counters(i), shard(i) (a tree with
// footprint_bytes() and reclaimer_pending()),
// merged_latency_histogram(kind), merged_seek_depth_histogram(). See
// docs/TELEMETRY.md for the window semantics and the Prometheus name
// table rendered by prometheus_text().
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "core/stats.hpp"
#include "obs/heatmap.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"

namespace lfbst::obs {

/// Per-shard gauges cover this many shards; a set with more still gets
/// correct totals, but shards past the cap fold out of the share
/// breakdown (documented in docs/TELEMETRY.md).
inline constexpr std::size_t telemetry_max_shards = 64;

struct telemetry_window {
  std::uint64_t seq = 0;    // 0-based window index (ring position)
  std::uint64_t t0_ns = 0;  // window bounds, steady_clock
  std::uint64_t t1_ns = 0;
  std::uint64_t shard_count = 0;  // min(set shards, telemetry_max_shards)
  metrics_snapshot delta;         // merged counter deltas over the window
  std::array<std::uint64_t, telemetry_max_shards> shard_ops{};
  std::uint64_t lat_p50_ns = 0;  // from latency-histogram deltas
  std::uint64_t lat_p99_ns = 0;
  std::uint64_t seek_p50 = 0;  // from seek-depth-histogram deltas
  std::uint64_t seek_p99 = 0;

  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(t1_ns - t0_ns) / 1e9;
  }
  [[nodiscard]] std::uint64_t point_ops() const noexcept {
    return delta.point_ops();
  }
  [[nodiscard]] double ops_per_sec() const noexcept {
    const double s = seconds();
    return s <= 0.0 ? 0.0 : static_cast<double>(point_ops()) / s;
  }
  /// Shard i's fraction of the window's point ops; shares sum to ~1
  /// (sampling skew only) whenever the window saw traffic.
  [[nodiscard]] double shard_share(std::size_t i) const noexcept {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < shard_count; ++s) total += shard_ops[s];
    return total == 0 ? 0.0
                      : static_cast<double>(shard_ops[i]) /
                            static_cast<double>(total);
  }
  /// The imbalance gauge: 1/shard_count is perfectly balanced, 1.0 is
  /// one shard taking everything.
  [[nodiscard]] double max_shard_share() const noexcept {
    double m = 0.0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      const double sh = shard_share(s);
      if (sh > m) m = sh;
    }
    return m;
  }
};

/// Lock-free single-writer ring of the last `capacity` windows. Each
/// slot is a seqlock whose protected data is a fixed array of relaxed
/// atomic words, so torn reads are impossible by construction and a
/// concurrent wrap is detected by the sequence re-check.
class telemetry_ring {
 public:
  static constexpr std::size_t capacity = 64;

  /// Publishes `w` into slot w.seq % capacity. Single writer.
  void publish(const telemetry_window& w) noexcept {
    slot& s = slots_[w.seq % capacity];
    const std::uint64_t stable = 2 * (w.seq + 1);
    s.seq.store(stable - 1, std::memory_order_relaxed);  // odd: in progress
    std::atomic_thread_fence(std::memory_order_release);
    std::size_t i = 0;
    auto put = [&](std::uint64_t v) {
      s.words[i++].store(v, std::memory_order_relaxed);
    };
    put(w.t0_ns);
    put(w.t1_ns);
    put(w.shard_count);
    put(w.lat_p50_ns);
    put(w.lat_p99_ns);
    put(w.seek_p50);
    put(w.seek_p99);
    for (std::uint64_t v : w.delta.values) put(v);
    for (std::uint64_t v : w.shard_ops) put(v);
    s.seq.store(stable, std::memory_order_release);
    published_.store(w.seq + 1, std::memory_order_release);
  }

  /// Number of windows ever published; window seqs [published-capacity,
  /// published) are (racily) readable.
  [[nodiscard]] std::uint64_t published() const noexcept {
    return published_.load(std::memory_order_acquire);
  }

  /// Reads window `seq` into `out`. False if it was never published,
  /// has been overwritten, or was overwritten mid-read.
  [[nodiscard]] bool read(std::uint64_t seq,
                          telemetry_window& out) const noexcept {
    const slot& s = slots_[seq % capacity];
    const std::uint64_t want = 2 * (seq + 1);
    const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
    if (s1 != want) return false;
    std::size_t i = 0;
    auto get = [&] { return s.words[i++].load(std::memory_order_relaxed); };
    out.seq = seq;
    out.t0_ns = get();
    out.t1_ns = get();
    out.shard_count = get();
    out.lat_p50_ns = get();
    out.lat_p99_ns = get();
    out.seek_p50 = get();
    out.seek_p99 = get();
    for (std::uint64_t& v : out.delta.values) v = get();
    for (std::uint64_t& v : out.shard_ops) v = get();
    std::atomic_thread_fence(std::memory_order_acquire);
    return s.seq.load(std::memory_order_relaxed) == s1;
  }

  /// Most recent window, retrying across a concurrent wrap. False only
  /// before the first publish.
  [[nodiscard]] bool latest(telemetry_window& out) const noexcept {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const std::uint64_t n = published();
      if (n == 0) return false;
      if (read(n - 1, out)) return true;
    }
    return false;
  }

 private:
  static constexpr std::size_t word_count =
      7 + counter_count + telemetry_max_shards;

  struct slot {
    std::atomic<std::uint64_t> seq{0};  // even = stable, odd = writing
    std::array<std::atomic<std::uint64_t>, word_count> words{};
  };

  std::array<slot, capacity> slots_{};
  std::atomic<std::uint64_t> published_{0};
};

struct telemetry_options {
  std::uint64_t interval_ms = 100;  // sampling period
  /// Flight-recorder dump target and how far back a dump reaches.
  std::string flight_path = "lfbst_flight.json";
  std::uint64_t flight_window_ms = 2000;
};

template <typename Set>
class sampler {
 public:
  explicit sampler(Set& set, telemetry_options opts = {})
      : set_(&set), opts_(std::move(opts)) {
    prime();
  }

  sampler(const sampler&) = delete;
  sampler& operator=(const sampler&) = delete;

  ~sampler() { stop(); }

  /// Spawns the background tick thread. The manual sample_now() must
  /// not be called while the thread runs (single-writer sampler state).
  void start() {
    if (thread_.joinable()) return;
    stop_.store(false, std::memory_order_release);
    thread_ = std::thread([this] { run(); });
  }

  /// Stops and joins; publishes one final window so nothing recorded
  /// between the last tick and stop() is lost.
  void stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }

  /// One synchronous tick — deterministic windows for tests and
  /// non-threaded embeddings. Also services a pending flight dump.
  void sample_now() {
    tick();
    maybe_dump_flight();
  }

  [[nodiscard]] const telemetry_ring& ring() const noexcept { return ring_; }
  [[nodiscard]] bool latest(telemetry_window& out) const noexcept {
    return ring_.latest(out);
  }
  [[nodiscard]] std::uint64_t windows_published() const noexcept {
    return ring_.published();
  }

  // --- flight recorder ------------------------------------------------

  /// Arms `log` as the flight-recorder source (nullptr disarms). The
  /// log must outlive the attachment; the caller keeps it attached to
  /// the recording stats instances so it fills continuously.
  void attach_flight_recorder(trace_log* log) noexcept {
    flight_log_.store(log, std::memory_order_release);
  }

  /// Requests a dump of the last flight_window_ms of trace events to
  /// flight_path. One relaxed atomic store: safe from a signal handler
  /// (lfbst_serve wires SIGUSR1 here) and from the stat-opcode path.
  /// The dump itself runs on the sampler thread (or the next
  /// sample_now()).
  void request_flight_dump() noexcept {
    dump_requested_.store(true, std::memory_order_relaxed);
  }

  /// Completed dumps (each overwrites flight_path).
  [[nodiscard]] std::uint64_t flight_dumps() const noexcept {
    return flight_dumps_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const std::string& flight_path() const noexcept {
    return opts_.flight_path;
  }

  // --- exposition -------------------------------------------------------

  /// Estimated real ops per heatmap hit for `hm` attached via the
  /// recording policy; exposed so the exposition can undo sampling.
  void attach_heatmap(const key_heatmap* hm) noexcept {
    heatmap_.store(hm, std::memory_order_release);
  }

  /// Renders the full telemetry family set (docs/TELEMETRY.md name
  /// table) into `w`. Thread-safe: reads fresh racy-monotone counter
  /// snapshots, the seqlocked latest window, and atomic heatmap cells —
  /// callable from the exposition endpoint while the sampler ticks.
  void render_prometheus(prometheus_writer& w) const {
    metrics_snapshot total;
    std::array<std::uint64_t, telemetry_max_shards> shard_total{};
    const std::size_t shards = gauged_shards();
    for (std::size_t i = 0; i < set_->shard_count(); ++i) {
      const metrics_snapshot snap = set_->shard_counters(i);
      if (i < telemetry_max_shards) shard_total[i] = snap.point_ops();
      total.merge(snap);
    }

    for (std::size_t c = 0; c < counter_count; ++c) {
      const std::string name =
          std::string("lfbst_") +
          counter_name(static_cast<counter>(c)) + "_total";
      w.family(name, "Lifetime tree-op counter (obs::counter).",
               "counter");
      w.sample(name, "", total.values[c]);
    }

    w.family("lfbst_shard_ops_total",
             "Lifetime point ops (search+insert+erase) per shard.",
             "counter");
    for (std::size_t i = 0; i < shards; ++i) {
      w.sample("lfbst_shard_ops_total", shard_label(i), shard_total[i]);
    }

    w.family("lfbst_shard_pool_bytes",
             "Bytes of node slabs a shard's tree holds (footprint_bytes).",
             "gauge");
    for (std::size_t i = 0; i < shards; ++i) {
      w.sample("lfbst_shard_pool_bytes", shard_label(i),
               static_cast<std::uint64_t>(set_->shard(i).footprint_bytes()));
    }
    w.family("lfbst_shard_reclaim_pending",
             "Nodes a shard's tree has retired and not yet freed.", "gauge");
    for (std::size_t i = 0; i < shards; ++i) {
      w.sample("lfbst_shard_reclaim_pending", shard_label(i),
               static_cast<std::uint64_t>(set_->shard(i).reclaimer_pending()));
    }

    w.family("lfbst_windows_published_total",
             "Telemetry windows published by the sampler.", "counter");
    w.sample("lfbst_windows_published_total", "", ring_.published());

    telemetry_window win;
    const bool have = ring_.latest(win);
    w.family("lfbst_window_seconds",
             "Wall length of the latest telemetry window.", "gauge");
    w.sample("lfbst_window_seconds", "", have ? win.seconds() : 0.0);
    w.family("lfbst_window_ops",
             "Point ops completed inside the latest window.", "gauge");
    w.sample("lfbst_window_ops", "", have ? win.point_ops() : 0);
    w.family("lfbst_window_ops_per_sec",
             "Point-op rate over the latest window.", "gauge");
    w.sample("lfbst_window_ops_per_sec", "",
             have ? win.ops_per_sec() : 0.0);

    w.family("lfbst_shard_window_ops",
             "Point ops per shard inside the latest window.", "gauge");
    w.family("lfbst_shard_share",
             "Shard's fraction of the latest window's point ops "
             "(imbalance sensor; sums to ~1 under load).",
             "gauge");
    for (std::size_t i = 0; i < shards; ++i) {
      w.sample("lfbst_shard_window_ops", shard_label(i),
               have ? win.shard_ops[i] : 0);
      w.sample("lfbst_shard_share", shard_label(i),
               have ? win.shard_share(i) : 0.0);
    }
    w.family("lfbst_shard_share_max",
             "Largest shard share in the latest window (1/shards = "
             "balanced).",
             "gauge");
    w.sample("lfbst_shard_share_max", "",
             have ? win.max_shard_share() : 0.0);

    w.family("lfbst_latency_window_ns",
             "Op latency quantiles over the latest window.", "gauge");
    w.sample("lfbst_latency_window_ns", "quantile=\"0.5\"",
             have ? win.lat_p50_ns : 0);
    w.sample("lfbst_latency_window_ns", "quantile=\"0.99\"",
             have ? win.lat_p99_ns : 0);
    w.family("lfbst_seek_depth_window",
             "Seek-depth quantiles over the latest window.", "gauge");
    w.sample("lfbst_seek_depth_window", "quantile=\"0.5\"",
             have ? win.seek_p50 : 0);
    w.sample("lfbst_seek_depth_window", "quantile=\"0.99\"",
             have ? win.seek_p99 : 0);

    if (const key_heatmap* hm =
            heatmap_.load(std::memory_order_acquire)) {
      w.family("lfbst_heatmap_samples_total",
               "Sampled per-op key-hotness hits.", "counter");
      w.sample("lfbst_heatmap_samples_total", "", hm->samples());
      w.family("lfbst_heatmap_ops_total",
               "Estimated ops per key-range bucket "
               "(samples x sampling factor).",
               "counter");
      const std::uint64_t factor = hm->ops_per_sample();
      for (std::size_t b = 0; b < key_heatmap::bucket_count; ++b) {
        char labels[64];
        std::snprintf(labels, sizeof(labels), "bucket=\"%zu\",lo=\"%lld\"",
                      b, static_cast<long long>(hm->bucket_lo(b)));
        w.sample("lfbst_heatmap_ops_total", labels,
                 hm->bucket(b) * factor);
      }
    }

    w.family("lfbst_flight_dumps_total",
             "Completed flight-recorder dumps.", "counter");
    w.sample("lfbst_flight_dumps_total", "", flight_dumps());
  }

  [[nodiscard]] std::string prometheus_text() const {
    prometheus_writer w;
    render_prometheus(w);
    return w.text();
  }

 private:
  [[nodiscard]] std::size_t gauged_shards() const noexcept {
    const std::size_t n = set_->shard_count();
    return n < telemetry_max_shards ? n : telemetry_max_shards;
  }

  static std::string shard_label(std::size_t i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "shard=\"%zu\"", i);
    return buf;
  }

  /// Captures the cumulative baseline so the first window is "since
  /// sampler construction", not "since process start".
  void prime() {
    prev_t_ns_ = trace_log::now_ns();
    prev_total_ = metrics_snapshot{};
    const std::size_t shards = gauged_shards();
    for (std::size_t i = 0; i < set_->shard_count(); ++i) {
      const metrics_snapshot snap = set_->shard_counters(i);
      if (i < telemetry_max_shards) prev_shard_ops_[i] = snap.point_ops();
      prev_total_.merge(snap);
    }
    prev_lat_ = merged_latency();
    prev_seek_ = set_->merged_seek_depth_histogram();
    (void)shards;
  }

  [[nodiscard]] histogram merged_latency() const {
    histogram h = set_->merged_latency_histogram(stats::op_kind::search);
    h.merge(set_->merged_latency_histogram(stats::op_kind::insert));
    h.merge(set_->merged_latency_histogram(stats::op_kind::erase));
    return h;
  }

  void tick() {
    const std::uint64_t t1 = trace_log::now_ns();
    metrics_snapshot total;
    std::array<std::uint64_t, telemetry_max_shards> shard_now{};
    for (std::size_t i = 0; i < set_->shard_count(); ++i) {
      const metrics_snapshot snap = set_->shard_counters(i);
      if (i < telemetry_max_shards) shard_now[i] = snap.point_ops();
      total.merge(snap);
    }
    const histogram lat = merged_latency();
    const histogram seek = set_->merged_seek_depth_histogram();
    const histogram lat_d = lat.delta_since(prev_lat_);
    const histogram seek_d = seek.delta_since(prev_seek_);

    telemetry_window w;
    w.seq = ring_.published();
    w.t0_ns = prev_t_ns_;
    w.t1_ns = t1;
    w.shard_count = gauged_shards();
    w.delta = total.delta_since(prev_total_);
    for (std::size_t i = 0; i < w.shard_count; ++i) {
      w.shard_ops[i] = shard_now[i] > prev_shard_ops_[i]
                           ? shard_now[i] - prev_shard_ops_[i]
                           : 0;
    }
    w.lat_p50_ns = lat_d.value_at_percentile(50);
    w.lat_p99_ns = lat_d.value_at_percentile(99);
    w.seek_p50 = seek_d.value_at_percentile(50);
    w.seek_p99 = seek_d.value_at_percentile(99);
    ring_.publish(w);

    prev_t_ns_ = t1;
    prev_total_ = total;
    prev_shard_ops_ = shard_now;
    prev_lat_ = lat;
    prev_seek_ = seek;
  }

  void maybe_dump_flight() {
    if (!dump_requested_.exchange(false, std::memory_order_relaxed)) return;
    trace_log* log = flight_log_.load(std::memory_order_acquire);
    if (log == nullptr) return;
    const std::uint64_t window_ns = opts_.flight_window_ms * 1000000ull;
    const std::uint64_t now = trace_log::now_ns();
    const std::uint64_t cutoff = now > window_ns ? now - window_ns : 0;
    const std::string json = log->chrome_trace_json(cutoff);
    if (std::FILE* f = std::fopen(opts_.flight_path.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      flight_dumps_.fetch_add(1, std::memory_order_release);
    }
  }

  void run() {
    using namespace std::chrono_literals;
    const std::uint64_t interval_ns = opts_.interval_ms * 1000000ull;
    std::uint64_t last = trace_log::now_ns();
    while (!stop_.load(std::memory_order_acquire)) {
      // Short dozes instead of one interval-long sleep: a flight-dump
      // request (signal or stat flag) is serviced within ~2 ms instead
      // of up to a full interval later, and stop() stays prompt.
      std::this_thread::sleep_for(2ms);
      if (dump_requested_.load(std::memory_order_relaxed)) {
        maybe_dump_flight();
      }
      const std::uint64_t now = trace_log::now_ns();
      if (now - last >= interval_ns) {
        tick();
        last = now;
      }
    }
    tick();  // final window: nothing between last tick and stop() is lost
    maybe_dump_flight();
  }

  Set* set_;
  telemetry_options opts_;
  telemetry_ring ring_;

  // Sampler-thread-only cumulative state (or the sample_now caller's).
  std::uint64_t prev_t_ns_ = 0;
  metrics_snapshot prev_total_;
  std::array<std::uint64_t, telemetry_max_shards> prev_shard_ops_{};
  histogram prev_lat_;
  histogram prev_seek_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> dump_requested_{false};
  std::atomic<trace_log*> flight_log_{nullptr};
  std::atomic<const key_heatmap*> heatmap_{nullptr};
  std::atomic<std::uint64_t> flight_dumps_{0};
};

}  // namespace lfbst::obs
