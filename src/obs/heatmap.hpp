// lfbst: key-range hotness heatmap.
//
// A fixed grid of atomic hit counters over a configurable key interval,
// fed by the obs::recording stats policy's per-op key hook
// (on_op_key). The hook is sampled — each thread counts ops and only
// records every 2^sample_shift'th one — so the hot path cost is one
// thread-local increment and a branch, and one relaxed fetch_add per
// sampled op. The resulting bucket counts estimate where in the key
// space traffic concentrates: the live-telemetry layer
// (obs/telemetry.hpp, docs/TELEMETRY.md) exposes them per scrape so a
// skewed or append-mostly key stream is visible while it happens.
//
// Thread-safety: record() is safe from any thread (relaxed fetch_add —
// unlike the single-writer counter stripes, a shared bucket grid is
// cheap because only sampled ops reach it); snapshot()/samples() are
// safe any time and racy-monotone.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace lfbst::obs {

class key_heatmap {
 public:
  static constexpr std::size_t bucket_count = 64;

  /// Counts hits over [lo, hi) split into bucket_count equal ranges;
  /// keys outside the interval clamp to the edge buckets. Every
  /// 2^sample_shift'th op per thread is recorded (shift 0 = every op).
  explicit key_heatmap(std::int64_t lo = 0,
                       std::int64_t hi = std::int64_t{1} << 20,
                       unsigned sample_shift = 6) noexcept
      : lo_(lo), sample_mask_((1u << sample_shift) - 1) {
    const std::uint64_t span = static_cast<std::uint64_t>(hi) -
                               static_cast<std::uint64_t>(lo);
    width_ = span / bucket_count + 1;
  }

  key_heatmap(const key_heatmap&) = delete;
  key_heatmap& operator=(const key_heatmap&) = delete;

  /// The per-op hook body: count, subsample, bucket. Callable from any
  /// thread concurrently.
  void record(std::int64_t key) noexcept {
    thread_local std::uint32_t op_counter = 0;
    if ((op_counter++ & sample_mask_) != 0) return;
    buckets_[bucket_of(key)].fetch_add(1, std::memory_order_relaxed);
    samples_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Unsampled variant for callers that already decided to record.
  void record_always(std::int64_t key) noexcept {
    buckets_[bucket_of(key)].fetch_add(1, std::memory_order_relaxed);
    samples_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t samples() const noexcept {
    return samples_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::array<std::uint64_t, bucket_count> snapshot()
      const noexcept {
    std::array<std::uint64_t, bucket_count> out{};
    for (std::size_t i = 0; i < bucket_count; ++i) out[i] = bucket(i);
    return out;
  }

  /// Inclusive lower bound of bucket i's key range (for labels/exports).
  [[nodiscard]] std::int64_t bucket_lo(std::size_t i) const noexcept {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo_) +
                                     width_ * i);
  }

  /// One sampled hit represents ~2^sample_shift real ops.
  [[nodiscard]] std::uint64_t ops_per_sample() const noexcept {
    return static_cast<std::uint64_t>(sample_mask_) + 1;
  }

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    samples_.store(0, std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] std::size_t bucket_of(std::int64_t key) const noexcept {
    // Wrap-safe unsigned distance from lo; keys below lo wrap to huge
    // values and clamp to the top bucket together with keys above hi.
    const std::uint64_t off = static_cast<std::uint64_t>(key) -
                              static_cast<std::uint64_t>(lo_);
    const std::uint64_t idx = off / width_;
    return idx < bucket_count ? static_cast<std::size_t>(idx)
                              : bucket_count - 1;
  }

  std::int64_t lo_;
  std::uint64_t width_;
  std::uint32_t sample_mask_;
  std::array<std::atomic<std::uint64_t>, bucket_count> buckets_{};
  std::atomic<std::uint64_t> samples_{0};
};

}  // namespace lfbst::obs
