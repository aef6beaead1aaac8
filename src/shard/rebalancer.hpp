// lfbst shard: the adaptive rebalancer — the control loop that turns
// the telemetry plane's imbalance signal (per-shard op counters, the
// key heatmap) into online subrange migrations.
//
// ROADMAP item 3's problem: a static range partition melts one shard
// under a Zipf or append-mostly key stream while the rest idle. The
// rebalancer closes the loop. Every interval it diffs each shard's
// point-op counters against the previous window; when the hottest
// shard's share of the window exceeds trigger_ratio / shard_count (and
// the window saw enough traffic to mean anything), it donates part of
// the hot shard's key range to the cooler adjacent neighbor with one
// sharded_set::migrate_splitter() call.
//
// The split point is traffic-weighted when a key_heatmap is attached:
// the donated subrange carries about half the hot shard's observed
// traffic, so repeated cycles spread a concentrated hotspot over more
// and more shards geometrically (max_shard_share -> 1/S). Without a
// heatmap it falls back to the range midpoint — still convergent for
// hotspots that fill their shard's range, just slower for very narrow
// ones.
//
// After each migration the window snapshot re-primes: the drain's own
// tree traffic (a contains/insert/erase per moved key) would otherwise
// pollute the next decision's signal.
//
// rebalance_once() runs one decision cycle synchronously — that is the
// deterministic-test entry point, and exactly what the background
// thread calls every interval.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/heatmap.hpp"
#include "obs/metrics.hpp"

namespace lfbst::shard {

struct rebalancer_options {
  /// Decision interval of the background thread.
  std::uint64_t interval_ms = 50;
  /// Act when the hottest shard's window share exceeds ratio / S.
  /// 1.0 would chase noise; 1.5 tolerates mild skew.
  double trigger_ratio = 1.5;
  /// Ignore windows with less total traffic than this (startup, lulls).
  std::uint64_t min_window_ops = 2048;
  /// Traffic-weighted split points when set (otherwise range midpoint).
  const obs::key_heatmap* heatmap = nullptr;
};

/// Drives sharded_set migrations from its per-shard counters. Set must
/// be a sharded_set over a recording, concurrently-scannable tree (the
/// NM-BST compositions).
template <typename Set>
class rebalancer {
 public:
  using key_type = typename Set::key_type;

  explicit rebalancer(Set& set, rebalancer_options opts = {})
      : set_(set), opts_(opts), prev_ops_(set.shard_count(), 0) {
    prime();
  }

  rebalancer(const rebalancer&) = delete;
  rebalancer& operator=(const rebalancer&) = delete;

  ~rebalancer() { stop(); }

  void start() {
    if (worker_.joinable()) return;
    stop_.store(false, std::memory_order_relaxed);
    worker_ = std::thread([this] { run(); });
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_.store(true, std::memory_order_relaxed);
    }
    cv_.notify_all();
    if (worker_.joinable()) worker_.join();
  }

  /// Re-reads the per-shard counters without deciding anything, so the
  /// next window starts from "now".
  void prime() {
    for (std::size_t i = 0; i < set_.shard_count(); ++i) {
      prev_ops_[i] = set_.shard_counters(i).point_ops();
    }
  }

  /// One decision cycle, synchronously: diff the per-shard op windows,
  /// migrate if the imbalance trigger trips. Returns keys moved (0:
  /// balanced, too little traffic, or nothing movable). A window with
  /// less than min_window_ops of traffic is carried forward: the next
  /// cycle diffs against the same baseline, so quiet windows add up
  /// until together they are worth a decision. This is what the
  /// background thread runs every interval; deterministic tests call it
  /// directly.
  std::size_t rebalance_once() {
    const std::size_t count = set_.shard_count();
    if (count < 2) return 0;
    std::vector<std::uint64_t> now(count, 0);
    std::vector<std::uint64_t> window(count, 0);
    std::uint64_t total = 0;
    std::size_t hot = 0;
    for (std::size_t i = 0; i < count; ++i) {
      now[i] = set_.shard_counters(i).point_ops();
      window[i] = now[i] - prev_ops_[i];
      total += window[i];
      if (window[i] > window[hot]) hot = i;
    }
    decisions_.fetch_add(1, std::memory_order_relaxed);
    if (total < opts_.min_window_ops) return 0;
    prev_ops_ = std::move(now);
    const double share =
        static_cast<double>(window[hot]) / static_cast<double>(total);
    if (share * static_cast<double>(count) <= opts_.trigger_ratio) return 0;

    // Donate toward the cooler adjacent neighbor (migrations only move
    // boundary subranges, so only neighbors are candidates).
    std::size_t nbr;
    if (hot == 0) {
      nbr = 1;
    } else if (hot == count - 1) {
      nbr = count - 2;
    } else {
      nbr = window[hot - 1] <= window[hot + 1] ? hot - 1 : hot + 1;
    }

    const auto& router = set_.router();
    const key_type range_lo = router.splitter(hot);
    const key_type range_hi_incl =
        hot + 1 < count ? static_cast<key_type>(router.splitter(hot + 1) - 1)
                        : router.hi_inclusive();
    const key_type split = choose_split(range_lo, range_hi_incl);
    const key_type q = router.quantize_down(split);
    if (!(range_lo < q)) return 0;  // hot shard is down to one bucket

    // Raising splitter `hot` donates the head [range_lo, q) to the left
    // neighbor; lowering splitter `hot + 1` donates the tail [q,
    // range_hi] to the right one.
    const std::size_t boundary = nbr < hot ? hot : hot + 1;
    const std::size_t moved = set_.migrate_splitter(boundary, q);
    if (moved != 0) migrations_.fetch_add(1, std::memory_order_relaxed);
    // The drain's own tree ops polluted the counters; restart the
    // window from the post-migration state.
    prime();
    return moved;
  }

  /// Decision cycles run (including no-ops) and migrations executed.
  [[nodiscard]] std::uint64_t decisions() const noexcept {
    return decisions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t migrations() const noexcept {
    return migrations_.load(std::memory_order_relaxed);
  }

 private:
  /// The key where the hot shard's traffic splits in half, per the
  /// heatmap; the range midpoint when no heatmap (or no signal in this
  /// range) is available. Always inside [range_lo, range_hi_incl].
  [[nodiscard]] key_type choose_split(key_type range_lo,
                                      key_type range_hi_incl) const {
    if (opts_.heatmap != nullptr) {
      const obs::key_heatmap& h = *opts_.heatmap;
      // Weight of each heatmap bucket overlapping the shard's range.
      std::uint64_t total = 0;
      std::vector<std::uint64_t> weight(obs::key_heatmap::bucket_count, 0);
      for (std::size_t b = 0; b < obs::key_heatmap::bucket_count; ++b) {
        const auto b_lo = h.bucket_lo(b);
        const auto b_hi = h.bucket_lo(b + 1);
        if (static_cast<key_type>(b_hi) <= range_lo ||
            range_hi_incl < static_cast<key_type>(b_lo)) {
          continue;
        }
        weight[b] = h.bucket(b);
        total += weight[b];
      }
      if (total > 0) {
        std::uint64_t acc = 0;
        for (std::size_t b = 0; b < obs::key_heatmap::bucket_count; ++b) {
          if (weight[b] == 0) continue;
          acc += weight[b];
          if (acc * 2 >= total) {
            // Split at this bucket's upper edge, clamped into the range.
            key_type cand = static_cast<key_type>(h.bucket_lo(b + 1));
            if (cand < range_lo) cand = range_lo;
            if (range_hi_incl < cand) cand = range_hi_incl;
            return cand;
          }
        }
      }
    }
    using uk = std::make_unsigned_t<key_type>;
    const uk a = static_cast<uk>(range_lo);
    const uk span = static_cast<uk>(range_hi_incl) - a;
    return static_cast<key_type>(a + span / 2);
  }

  void run() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_.load(std::memory_order_relaxed)) {
      cv_.wait_for(lk, std::chrono::milliseconds(opts_.interval_ms), [&] {
        return stop_.load(std::memory_order_relaxed);
      });
      if (stop_.load(std::memory_order_relaxed)) break;
      lk.unlock();
      rebalance_once();
      lk.lock();
    }
  }

  Set& set_;
  rebalancer_options opts_;
  std::vector<std::uint64_t> prev_ops_;
  std::atomic<std::uint64_t> decisions_{0};
  std::atomic<std::uint64_t> migrations_{0};
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  std::thread worker_;
};

}  // namespace lfbst::shard
