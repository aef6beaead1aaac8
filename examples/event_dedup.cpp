// Event-stream deduplication — the kind of write-dominated workload the
// paper's introduction motivates. Multiple producer threads ingest a
// stream of event ids with heavy duplication (retries, at-least-once
// delivery); the NM tree is the concurrent "seen" set deciding, exactly
// once per id, which thread processes the event. A trailing eviction
// thread erases ids older than the retention window, so the set churns
// at both ends — insert-heavy AND delete-heavy, the regime where the
// paper's algorithm wins by the widest margin.
//
//   $ ./event_dedup [--producers 4] [--events 200000] [--dup-pct 40]
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "harness/flags.hpp"
#include "common/rng.hpp"
#include "lfbst/lfbst.hpp"

namespace {

using namespace lfbst;

struct shared_state {
  // Epoch reclamation: a long-running service cannot run the paper's
  // leaky regime.
  nm_tree<long, std::less<long>, reclaim::epoch> seen;
  std::atomic<long> next_event_id{0};
  std::atomic<long> processed{0};
  std::atomic<long> duplicates_dropped{0};
  std::atomic<long> evicted{0};
  std::atomic<bool> done{false};
};

}  // namespace

int main(int argc, char** argv) {
  const bench::flags flags(argc, argv, {
      "dup-pct", "events", "producers", "retention"});
  const long producers = flags.get_int("producers", 4);
  const long total_events = flags.get_int("events", 200'000);
  const long dup_pct = flags.get_int("dup-pct", 40);
  const long retention = flags.get_int("retention", 10'000);

  shared_state st;
  std::vector<std::thread> threads;

  // Producers: draw fresh ids, but with probability dup-pct re-deliver a
  // recent id (simulating at-least-once transports). insert() returning
  // true IS the exactly-once decision — no lock, no second lookup.
  for (long p = 0; p < producers; ++p) {
    threads.emplace_back([&st, p, total_events, dup_pct, producers] {
      pcg32 rng = pcg32::for_thread(2026, static_cast<unsigned>(p));
      const long quota = total_events / producers;
      for (long i = 0; i < quota; ++i) {
        long id;
        const long newest = st.next_event_id.load(std::memory_order_relaxed);
        if (newest > 0 &&
            rng.bounded(100) < static_cast<std::uint32_t>(dup_pct)) {
          // Re-deliver one of the last ~1000 already-issued ids (always
          // well inside the retention window, so eviction cannot race a
          // redelivery into double-processing).
          const auto window =
              static_cast<std::uint32_t>(newest < 1000 ? newest : 1000);
          id = newest - 1 - static_cast<long>(rng.bounded(window));
        } else {
          id = st.next_event_id.fetch_add(1, std::memory_order_relaxed);
        }
        if (st.seen.insert(id)) {
          st.processed.fetch_add(1, std::memory_order_relaxed);
        } else {
          st.duplicates_dropped.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Evictor: erase ids that fell out of the retention window.
  threads.emplace_back([&st, retention] {
    long horizon = 0;
    while (!st.done.load(std::memory_order_acquire)) {
      const long newest = st.next_event_id.load(std::memory_order_relaxed);
      while (horizon < newest - retention) {
        if (st.seen.erase(horizon)) {
          st.evicted.fetch_add(1, std::memory_order_relaxed);
        }
        ++horizon;
      }
      std::this_thread::yield();
    }
  });

  for (long p = 0; p < producers; ++p) threads[p].join();
  st.done.store(true, std::memory_order_release);
  threads.back().join();

  std::printf("event_dedup: %ld producers, %ld deliveries (%ld%% dup "
              "rate)\n",
              producers, total_events, dup_pct);
  std::printf("  processed exactly once : %ld\n", st.processed.load());
  std::printf("  duplicates dropped     : %ld\n",
              st.duplicates_dropped.load());
  std::printf("  evicted from window    : %ld\n", st.evicted.load());
  std::printf("  live set size          : %zu\n", st.seen.size_slow());
  std::printf("  pending retirements    : %zu\n",
              st.seen.reclaimer_pending());

  // Correctness cross-checks usable as a smoke test in CI.
  const long fresh = st.processed.load();
  const long unique_issued = st.next_event_id.load();
  const bool ok =
      fresh == unique_issued &&  // every unique id processed exactly once
      st.seen.validate().empty();
  std::printf("  self-check             : %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
