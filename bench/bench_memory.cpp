// Memory-footprint study: how much slab memory each reclamation policy
// holds across sustained churn — the space half of the reclamation
// trade-off (bench_ablation --study=reclaim shows the time half).
//
// The paper runs its 30-second Figure-4 points with reclamation off; at
// its write-dominated rates that regime retires hundreds of millions of
// nodes per run and simply keeps allocating. This bench makes the cost
// visible: leaky footprint grows linearly with retired work, epoch
// plateaus (amortized recycling, but unbounded while a pinned thread
// parks), hazard plateaus with a hard bound.
//
// The hand-off study runs one inserting and one erasing thread on an
// epoch tree, so every node is freed on a thread that never allocates.
// The node pool must hand those blocks to the inserting thread; if it
// kept them on the freeing thread's list, the footprint would grow by a
// leaf and an internal node per pair.
//
//   bench_memory [--keyrange 10000] [--rounds 40] [--threads 2]
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "core/key_scramble.hpp"
#include "core/natarajan_tree.hpp"
#include "harness/flags.hpp"
#include "harness/table.hpp"
#include "obs/export.hpp"
#include "reclaim/hazard_reclaimer.hpp"

namespace {

using namespace lfbst;
using namespace lfbst::harness;

struct snapshot_row {
  std::uint64_t ops;
  std::size_t footprint_kib;
  std::size_t pending;
};

template <typename Tree>
std::vector<snapshot_row> churn(std::uint64_t key_range, unsigned rounds,
                                unsigned thread_count) {
  Tree tree;
  std::vector<snapshot_row> rows;
  std::atomic<std::uint64_t> total_ops{0};
  for (unsigned round = 0; round < rounds; ++round) {
    std::vector<std::thread> threads;
    spin_barrier barrier(thread_count);
    for (unsigned tid = 0; tid < thread_count; ++tid) {
      threads.emplace_back([&, tid, round] {
        pcg32 rng = pcg32::for_thread(round, tid);
        std::uint64_t n = 0;
        barrier.arrive_and_wait();
        for (int i = 0; i < 20'000; ++i) {
          const long k = static_cast<long>(rng.next64() % key_range);
          if (rng.bounded(2) == 0) {
            tree.insert(k);
          } else {
            tree.erase(k);
          }
          ++n;
        }
        total_ops.fetch_add(n);
      });
    }
    for (auto& t : threads) t.join();
    if ((round + 1) % (rounds / 4 == 0 ? 1 : rounds / 4) == 0) {
      rows.push_back({total_ops.load(), tree.footprint_bytes() / 1024,
                      tree.reclaimer_pending()});
    }
  }
  return rows;
}

struct handoff_row {
  std::uint64_t pairs;
  std::uint64_t live_keys;
  std::size_t footprint_kib;
  std::size_t pending;
};

/// One thread inserts scramble_key(i) for ascending i while another
/// erases 1024-2048 keys behind it; the eraser samples the footprint
/// every 250k of 2M pairs.
std::vector<handoff_row> handoff() {
  constexpr std::uint64_t pairs = 2'000'000, lag_min = 1024, lag_max = 2048,
                          every = 250'000;
  nm_tree<long, std::less<long>, reclaim::epoch> tree;
  std::atomic<std::uint64_t> inserted{0}, erased{0};
  std::vector<handoff_row> rows;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < pairs; ++i) {
      while (i - erased.load(std::memory_order_acquire) >= lag_max) {
        std::this_thread::yield();
      }
      tree.insert(scramble_key(static_cast<long>(i)));
      inserted.store(i + 1, std::memory_order_release);
    }
  });
  std::thread consumer([&] {
    for (std::uint64_t i = 0; i < pairs; ++i) {
      for (std::uint64_t in = inserted.load(std::memory_order_acquire);
           in - i < lag_min && in < pairs;
           in = inserted.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      tree.erase(scramble_key(static_cast<long>(i)));
      erased.store(i + 1, std::memory_order_release);
      if ((i + 1) % every == 0 || i + 1 == pairs) {
        rows.push_back({i + 1, inserted.load() - (i + 1),
                        tree.footprint_bytes() / 1024,
                        tree.reclaimer_pending()});
      }
    }
  });
  producer.join();
  consumer.join();
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::flags flags(argc, argv, {
      "json", "keyrange", "rounds", "threads"});
  const auto key_range =
      static_cast<std::uint64_t>(flags.get_int("keyrange", 10'000));
  const auto rounds = static_cast<unsigned>(flags.get_int("rounds", 40));
  const auto thread_count =
      static_cast<unsigned>(flags.get_int("threads", 2));

  std::printf("=== reclamation memory study ===\n%llu keys, %u threads, "
              "write-dominated churn; slab footprint sampled 4x per "
              "policy\n\n",
              (unsigned long long)key_range, thread_count);

  text_table tbl({"study", "policy", "ops", "slab_kib", "pending_retire"});
  auto emit = [&](const char* name, const std::vector<snapshot_row>& rows) {
    for (const auto& r : rows) {
      tbl.add_row({"churn", name, std::to_string(r.ops),
                   std::to_string(r.footprint_kib),
                   std::to_string(r.pending)});
    }
  };
  emit("leaky",
       churn<nm_tree<long>>(key_range, rounds, thread_count));
  emit("epoch", churn<nm_tree<long, std::less<long>, reclaim::epoch>>(
                    key_range, rounds, thread_count));
  emit("hazard", churn<nm_tree<long, std::less<long>, reclaim::hazard>>(
                     key_range, rounds, thread_count));
  tbl.print();

  std::printf("\n=== hand-off study ===\none inserting and one erasing "
              "thread, 1024-2048 keys apart, epoch; footprint every 250k "
              "pairs\n\n");
  text_table handoff_tbl({"study", "policy", "pairs", "live_keys", "slab_kib",
                          "pending_retire"});
  for (const auto& r : handoff()) {
    handoff_tbl.add_row({"handoff", "epoch", std::to_string(r.pairs),
                         std::to_string(r.live_keys),
                         std::to_string(r.footprint_kib),
                         std::to_string(r.pending)});
  }
  handoff_tbl.print();

  if (flags.has("json")) {
    const std::string path = flags.get("json", "memory.json");
    obs::bench_report report("memory");
    report.config.set("keyrange", key_range);
    report.config.set("rounds", rounds);
    report.config.set("threads", thread_count);
    report.results = obs::rows_from_table(tbl.header(), tbl.rows());
    const auto handoff_rows =
        obs::rows_from_table(handoff_tbl.header(), handoff_tbl.rows());
    for (const auto& row : handoff_rows.items()) report.results.push_back(row);
    if (!report.write_file(path)) return 1;
    std::printf("\nJSON report: %s\n", path.c_str());
  }

  std::printf("\nReading: leaky grows without bound (the paper's regime — "
              "fine for 30 s runs, fatal for services); epoch and hazard "
              "plateau. Hazard additionally *bounds* pending retirements; "
              "epoch's pending can spike while any thread sits pinned. "
              "The hand-off footprint stays flat: freed blocks move to the "
              "inserting thread through the pool's central tier.\n");
  return 0;
}
