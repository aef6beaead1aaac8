// Live price index on nm_map — a classic replace-heavy workload: feed
// threads continuously overwrite per-instrument prices
// (insert_or_assign = one CAS swinging a leaf), query threads read
// point prices, and an expiry thread delists stale instruments. This is
// the paper's §6 "replace" operation doing real work, plus the k-ary
// tree serving the same feed for comparison.
//
//   $ ./price_index [--instruments 4096] [--millis 600] [--feeds 2]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "multiway/kary_tree.hpp"
#include "harness/flags.hpp"
#include "lfbst/lfbst.hpp"

namespace {

using namespace lfbst;

// Prices as fixed-point longs (4 implied decimals) so the map payload is
// trivially copyable and cheap.
using price_map = nm_map<long, long, std::less<long>, reclaim::epoch>;

struct feed_stats {
  std::atomic<std::uint64_t> updates{0};
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> delistings{0};
  std::atomic<std::uint64_t> stale_reads{0};  // price outside sane band
};

}  // namespace

int main(int argc, char** argv) {
  const bench::flags flags(argc, argv, {"feeds", "instruments", "millis"});
  const long instruments = flags.get_int("instruments", 4096);
  const auto millis = flags.get_int("millis", 600);
  const unsigned feeds = static_cast<unsigned>(flags.get_int("feeds", 2));

  price_map book;
  feed_stats st;
  // List every instrument at a base price.
  for (long id = 0; id < instruments; ++id) {
    book.insert(id, 10'000 + id);
  }

  std::atomic<bool> stop{false};
  spin_barrier barrier(feeds + 3);
  std::vector<std::thread> threads;

  // Feed threads: hammer insert_or_assign with fresh prices.
  for (unsigned f = 0; f < feeds; ++f) {
    threads.emplace_back([&, f] {
      pcg32 rng = pcg32::for_thread(2026, f);
      std::uint64_t n = 0;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const long id = rng.bounded(static_cast<std::uint32_t>(instruments));
        const long px = 10'000 + static_cast<long>(rng.bounded(100'000));
        book.insert_or_assign(id, px);
        ++n;
      }
      st.updates.fetch_add(n);
    });
  }

  // Query thread: point lookups; every observed price must be in the
  // band any writer could have written (torn values would fall outside).
  threads.emplace_back([&] {
    pcg32 rng(77);
    std::uint64_t n = 0, hits = 0, stale = 0;
    barrier.arrive_and_wait();
    while (!stop.load(std::memory_order_relaxed)) {
      const long id = rng.bounded(static_cast<std::uint32_t>(instruments));
      if (const auto px = book.get(id)) {
        ++hits;
        if (*px < 10'000 || *px >= 10'000 + 100'000 + instruments) ++stale;
      }
      ++n;
    }
    st.lookups.fetch_add(n);
    st.hits.fetch_add(hits);
    st.stale_reads.fetch_add(stale);
  });

  // Expiry thread: periodically delist a band of instruments and relist
  // them, exercising erase against the assign storm.
  threads.emplace_back([&] {
    pcg32 rng(99);
    std::uint64_t delisted = 0;
    barrier.arrive_and_wait();
    while (!stop.load(std::memory_order_relaxed)) {
      const long base = rng.bounded(static_cast<std::uint32_t>(instruments));
      for (long i = 0; i < 16; ++i) {
        const long id = (base + i) % instruments;
        if (book.erase(id)) ++delisted;
      }
      for (long i = 0; i < 16; ++i) {
        const long id = (base + i) % instruments;
        book.insert(id, 10'000 + id);
      }
      std::this_thread::yield();
    }
    st.delistings.fetch_add(delisted);
  });

  barrier.arrive_and_wait();
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(millis));
  stop.store(true);
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("price_index: %ld instruments, %u feed threads, %.2f s\n",
              instruments, feeds, secs);
  std::printf("  price updates (replace)  : %llu (%.2f M/s)\n",
              (unsigned long long)st.updates.load(),
              static_cast<double>(st.updates.load()) / secs / 1e6);
  std::printf("  lookups (hit rate)       : %llu (%.1f%%)\n",
              (unsigned long long)st.lookups.load(),
              100.0 * static_cast<double>(st.hits.load()) /
                  static_cast<double>(st.lookups.load()));
  std::printf("  delistings               : %llu\n",
              (unsigned long long)st.delistings.load());
  std::printf("  out-of-band (torn) reads : %llu\n",
              (unsigned long long)st.stale_reads.load());
  std::printf("  final book size          : %zu\n", book.size_slow());
  std::printf("  pending retirements      : %zu\n",
              book.reclaimer_pending());

  // Side-by-side: the same instrument set in the k-ary tree (set
  // semantics) to show the fat-leaf extension on point lookups.
  kary_tree<long, 8> directory;
  for (long id = 0; id < instruments; ++id) directory.insert(id);
  pcg32 rng(5);
  const auto q0 = std::chrono::steady_clock::now();
  std::uint64_t found = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    found += directory.contains(
                 rng.bounded(static_cast<std::uint32_t>(instruments)))
                 ? 1
                 : 0;
  }
  const double qsecs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - q0)
          .count();
  std::printf("  kary<8> directory lookups: %.2f M/s (%llu found)\n",
              1.0 / qsecs, (unsigned long long)found);

  const bool ok = st.stale_reads.load() == 0 && book.validate().empty() &&
                  directory.validate().empty();
  std::printf("  self-check               : %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
