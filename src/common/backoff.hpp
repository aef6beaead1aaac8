// lfbst: bounded exponential backoff for CAS retry loops.
//
// Lock-free retry loops that fail a CAS under contention benefit from
// briefly yielding the core: the winning thread finishes faster and the
// loser's next attempt is more likely to succeed. On an oversubscribed
// machine (threads > cores) yielding is essential — spinning starves the
// thread that holds the next step of the algorithm.
#pragma once

#include <cstdint>
#include <thread>

namespace lfbst {

/// Single CPU relax hint (PAUSE on x86, YIELD on ARM, no-op otherwise).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Truncated exponential backoff. Starts with a handful of PAUSEs,
/// doubles per failure, and escalates to std::this_thread::yield() once
/// the spin budget exceeds `yield_threshold` iterations — the right
/// behaviour when the machine is oversubscribed.
class backoff {
 public:
  explicit backoff(std::uint32_t initial_spins = 4,
                   std::uint32_t yield_threshold = 1024) noexcept
      : spins_(initial_spins), yield_threshold_(yield_threshold) {}

  /// Called after each failed attempt.
  void operator()() noexcept {
    if (spins_ >= yield_threshold_) {
      std::this_thread::yield();
      return;
    }
    for (std::uint32_t i = 0; i < spins_; ++i) cpu_relax();
    spins_ *= 2;
  }

  void reset(std::uint32_t initial_spins = 4) noexcept {
    spins_ = initial_spins;
  }

 private:
  std::uint32_t spins_;
  std::uint32_t yield_threshold_;
};

}  // namespace lfbst
