// Sharded front-end evaluation: throughput of shard::sharded_set as a
// grid of shard count x thread count, against the unsharded NM-BST as
// the zero-front-end baseline. Five studies land in one report:
//
//   sweep   : Mops/s per (algorithm, shards, threads) cell under the
//             uniform-50/25/25 mix. Baseline rows carry shards=0
//             (no front-end at all, a plain tree).
//   batch   : per-element throughput of the batched API vs the same
//             soup issued as single-key calls (batch_size=1 row), at
//             the largest swept shard count.
//   metrics : merged per-shard counters from an obs::recording run,
//             one row per counter — the PR 2 merge algebra folded
//             across shards.
//   scan    : cross-shard ordered scans racing writers, self-checking
//             (sorted + stable-key completeness columns the perf gate
//             enforces).
//   skew    : the static router under uniform, hotspot and Zipf key
//             streams — throughput plus the max-shard-share imbalance
//             gauge sampled at the start and end of the run. Skewed
//             rows against the uniform one show what shard imbalance
//             costs (DESIGN.md §8.3).
//
// Defaults are laptop-sized; scale with flags:
//   bench_sharded --millis 2000 --threads 1,2,4,8 --shards 1,2,4,8,16
// --extended adds the EFRB and HJ sharded compositions to the sweep.
// --json <path> writes the lfbst-bench-v1 document
// (tools/check_bench_json.py validates it).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "harness/algorithms.hpp"
#include "harness/flags.hpp"
#include "harness/key_streams.hpp"
#include "harness/runner.hpp"
#include "harness/statistics.hpp"
#include "harness/table.hpp"
#include "harness/workload.hpp"
#include "harness/zipf.hpp"
#include "obs/export.hpp"

namespace {

using namespace lfbst;
using namespace lfbst::harness;

// Per-element Mops/s of a mixed 50/25/25 soup issued through the batch
// API in groups of `batch`; batch==1 uses the single-key entry points,
// so the delta is the cost (or saving) of the grouping layer itself.
template <typename Set>
double run_batch_soup(Set& set, std::int64_t key_range, unsigned threads,
                      unsigned batch, std::chrono::milliseconds duration,
                      std::uint64_t seed) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> elements{0};
  spin_barrier barrier(threads + 1);
  std::vector<std::thread> workers;
  for (unsigned tid = 0; tid < threads; ++tid) {
    workers.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(seed, tid);
      std::uint64_t local = 0;
      std::vector<long> keys(batch);
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& k : keys) {
          k = static_cast<long>(rng.next64() %
                                static_cast<std::uint64_t>(key_range));
        }
        const auto roll = rng.bounded(4);
        if (batch == 1) {
          if (roll < 2) {
            (void)set.contains(keys[0]);
          } else if (roll == 2) {
            (void)set.insert(keys[0]);
          } else {
            (void)set.erase(keys[0]);
          }
        } else {
          if (roll < 2) {
            (void)set.contains_batch(keys);
          } else if (roll == 2) {
            (void)set.insert_batch(keys);
          } else {
            (void)set.erase_batch(keys);
          }
        }
        local += batch;
      }
      elements.fetch_add(local, std::memory_order_relaxed);
    });
  }
  barrier.arrive_and_wait();
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(duration);
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(elements.load()) / secs / 1e6;
}

// One skew-study run: a 50/25/25 soup whose key stream is
// `workload` (uniform | hotspot90 | zipf), with the max-shard-share
// imbalance gauge sampled over the first and last quarter of the run.
struct skew_result {
  double mops = 0.0;
  double share_start = 0.0;
  double share_end = 0.0;
};

template <typename Set>
skew_result run_skew_case(Set& set, std::int64_t key_range,
                          const std::string& workload, unsigned threads,
                          std::chrono::milliseconds duration,
                          std::uint64_t seed) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_ops{0};
  spin_barrier barrier(threads + 1);
  const auto hot_range =
      static_cast<std::uint32_t>(std::max<std::int64_t>(key_range / 8, 1));
  std::vector<std::thread> workers;
  for (unsigned tid = 0; tid < threads; ++tid) {
    workers.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(seed, tid);
      const zipf_generator zipf(static_cast<std::uint64_t>(key_range), 0.99);
      std::uint64_t local = 0;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        long k;
        if (workload == "zipf") {
          // Unscrambled ranks: the hot keys cluster at the low end of
          // the domain, melting the first shard — the adversarial case.
          k = static_cast<long>(zipf(rng));
        } else if (workload == "hotspot90" && rng.bounded(10) < 9) {
          k = static_cast<long>(rng.bounded(hot_range));
        } else {
          k = static_cast<long>(rng.next64() %
                                static_cast<std::uint64_t>(key_range));
        }
        const auto roll = rng.bounded(4);
        if (roll < 2) {
          (void)set.contains(k);
        } else if (roll == 2) {
          (void)set.insert(k);
        } else {
          (void)set.erase(k);
        }
        ++local;
      }
      total_ops.fetch_add(local, std::memory_order_relaxed);
    });
  }
  auto snapshot = [&] {
    std::vector<std::uint64_t> v(set.shard_count());
    for (std::size_t i = 0; i < set.shard_count(); ++i) {
      v[i] = set.shard_counters(i).point_ops();
    }
    return v;
  };
  auto max_share = [](const std::vector<std::uint64_t>& a,
                      const std::vector<std::uint64_t>& b) {
    std::uint64_t total = 0;
    std::uint64_t mx = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::uint64_t d = b[i] - a[i];
      total += d;
      mx = std::max(mx, d);
    }
    return total == 0 ? 0.0
                      : static_cast<double>(mx) / static_cast<double>(total);
  };
  barrier.arrive_and_wait();
  const auto start = std::chrono::steady_clock::now();
  const auto w0 = snapshot();
  std::this_thread::sleep_for(duration / 4);
  const auto w1 = snapshot();
  std::this_thread::sleep_for(duration / 2);
  const auto w2 = snapshot();
  std::this_thread::sleep_for(duration / 4);
  const auto w3 = snapshot();
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  skew_result r;
  r.mops = static_cast<double>(total_ops.load()) / secs / 1e6;
  r.share_start = max_share(w0, w1);
  r.share_end = max_share(w2, w3);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::flags flags(argc, argv, {
      "csv", "extended", "json", "keyrange", "millis", "runs", "seed", "shards",
      "threads"});
  const bool csv_only = flags.has("csv");
  const bool extended = flags.has("extended");
  const auto millis = flags.get_int("millis", 100);
  const auto runs = static_cast<std::size_t>(flags.get_int("runs", 1));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto key_range = flags.get_int("keyrange", 100'000);
  const auto threads = flags.get_int_list("threads", {1, 2, 4});
  const auto shard_counts = flags.get_int_list("shards", {1, 2, 4, 8});
  const auto duration = std::chrono::milliseconds(millis);

  text_table sweep({"study", "algorithm", "shards", "threads", "key_range",
                    "workload", "mops_per_sec"});

  if (!csv_only) {
    std::printf("=== Sharded front-end: throughput (Mops/s), %s, "
                "%lld keys ===\n",
                uniform_50_25_25.name, static_cast<long long>(key_range));
  }

  auto sweep_cell = [&](const std::string& algo, std::int64_t shards,
                        std::int64_t t, auto make_and_run) {
    const run_stats stats = aggregate_runs(make_and_run, runs);
    sweep.add_row({"sweep", algo, std::to_string(shards), std::to_string(t),
                   std::to_string(key_range), uniform_50_25_25.name,
                   format("%.4f", stats.mean)});
    if (!csv_only) {
      std::printf("  %-14s shards=%-3lld threads=%-3lld  %8.3f Mops/s\n",
                  algo.c_str(), static_cast<long long>(shards),
                  static_cast<long long>(t), stats.mean);
    }
  };

  workload_config cfg;
  cfg.key_range = static_cast<std::uint64_t>(key_range);
  cfg.mix = uniform_50_25_25;
  cfg.duration = duration;
  cfg.seed = seed;

  // Baseline: the plain tree, no front-end (shards=0 rows).
  for (const std::int64_t t : threads) {
    cfg.threads = static_cast<unsigned>(t);
    sweep_cell("NM-BST", 0, t, [&] {
      nm_tree<long> tree;
      return run_workload(tree, cfg).mops_per_second();
    });
  }

  // The sharded grid.
  auto sweep_sharded = [&]<typename Set>() {
    const std::string algo =
        std::string("Sharded/") + Set::tree_type::algorithm_name;
    for (const std::int64_t shards : shard_counts) {
      for (const std::int64_t t : threads) {
        cfg.threads = static_cast<unsigned>(t);
        sweep_cell(algo, shards, t, [&] {
          Set set(static_cast<std::size_t>(shards), 0,
                  static_cast<long>(key_range));
          return run_workload(set, cfg).mops_per_second();
        });
      }
    }
  };
  if (extended) {
    for_each_sharded_algorithm<long>(sweep_sharded);
  } else {
    sweep_sharded.template operator()<shard::sharded_set<nm_tree<long>>>();
  }

  // --- batch study -----------------------------------------------------
  text_table batch_tbl({"study", "algorithm", "shards", "threads",
                        "batch_size", "mops_per_sec"});
  const std::int64_t batch_shards = shard_counts.back();
  const std::int64_t batch_threads = threads.back();
  if (!csv_only) {
    std::printf("\n=== Batched vs single-key issue (shards=%lld, "
                "threads=%lld) ===\n",
                static_cast<long long>(batch_shards),
                static_cast<long long>(batch_threads));
  }
  for (const unsigned batch : {1u, 8u, 64u}) {
    shard::sharded_set<nm_tree<long>> set(
        static_cast<std::size_t>(batch_shards), 0,
        static_cast<long>(key_range));
    prepopulate_half(set, static_cast<std::uint64_t>(key_range), seed);
    const double mops = run_batch_soup(
        set, key_range, static_cast<unsigned>(batch_threads), batch,
        duration, seed);
    batch_tbl.add_row({"batch", "Sharded/NM-BST",
                       std::to_string(batch_shards),
                       std::to_string(batch_threads), std::to_string(batch),
                       format("%.4f", mops)});
    if (!csv_only) {
      std::printf("  batch_size=%-3u  %8.3f Mops/s (per element)\n", batch,
                  mops);
    }
  }

  // --- scan study ------------------------------------------------------
  // Cross-shard ordered scans racing writers — no quiescence anywhere.
  // Self-checking rows: even (STABLE) keys are pre-inserted and never
  // touched, odd keys churn; every scan must report all stable keys in
  // order. The gate (check_scan) fails the build on a violated row.
  text_table scan_tbl({"study", "algorithm", "shards", "writers", "scans",
                       "mkeys_per_sec", "keys_per_scan", "sorted",
                       "stable_complete"});
  {
    const std::size_t scan_shards =
        static_cast<std::size_t>(shard_counts.back());
    const long scan_range = static_cast<long>(key_range);
    shard::sharded_set<nm_tree<long, std::less<long>, reclaim::epoch>> set(
        scan_shards, 0, scan_range);
    // Stable keys in bit_reversed order, so no shard's tree is a spine.
    const std::uint64_t stable = static_cast<std::uint64_t>(scan_range) / 2;
    harness::for_each_bit_reversed(
        stable, [&](std::uint64_t j) { set.insert(2 * static_cast<long>(j)); });
    std::atomic<bool> stop{false};
    constexpr unsigned kScanWriters = 2;
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < kScanWriters; ++t) {
      writers.emplace_back([&set, &stop, scan_range, seed, t] {
        pcg32 rng = pcg32::for_thread(seed, t);
        while (!stop.load(std::memory_order_acquire)) {
          const long k =
              2 * static_cast<long>(rng.bounded(
                      static_cast<std::uint32_t>(scan_range / 2))) +
              1;
          if (rng.bounded(2) != 0) {
            set.insert(k);
          } else {
            set.erase(k);
          }
        }
      });
    }
    constexpr int kScanCount = 30;
    bool sorted = true;
    bool stable_complete = true;
    std::uint64_t emitted = 0;
    const auto scan_start = std::chrono::steady_clock::now();
    for (int i = 0; i < kScanCount; ++i) {
      const std::vector<long> got = set.range_scan_closed(0, scan_range - 1);
      emitted += got.size();
      std::uint64_t stable_seen = 0;
      for (std::size_t j = 0; j < got.size(); ++j) {
        if (j > 0 && got[j - 1] >= got[j]) sorted = false;
        if ((got[j] & 1) == 0) ++stable_seen;
      }
      if (stable_seen != stable) stable_complete = false;
    }
    const auto scan_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - scan_start)
            .count();
    stop.store(true, std::memory_order_release);
    for (auto& w : writers) w.join();
    scan_tbl.add_row(
        {"scan", "Sharded/NM-BST-epoch", std::to_string(scan_shards),
         std::to_string(kScanWriters), std::to_string(kScanCount),
         format("%.3f",
                static_cast<double>(emitted) * 1e3 /
                    static_cast<double>(scan_ns)),
         format("%.1f", static_cast<double>(emitted) / kScanCount),
         sorted ? "1" : "0", stable_complete ? "1" : "0"});
    if (!csv_only) {
      std::printf("\n=== Concurrent cross-shard scans (shards=%zu, "
                  "writers=%u) ===\n",
                  scan_shards, kScanWriters);
      scan_tbl.print();
    }
  }

  // --- metrics study ---------------------------------------------------
  // A short recording run; the report rows are the *merged* counters —
  // each shard owns its own registry and the merge algebra folds them.
  text_table metrics_tbl({"study", "counter", "value"});
  {
    using recorded =
        nm_tree<long, std::less<long>, reclaim::leaky, obs::recording>;
    shard::sharded_set<recorded> set(
        static_cast<std::size_t>(batch_shards), 0,
        static_cast<long>(key_range));
    cfg.threads = static_cast<unsigned>(batch_threads);
    run_workload(set, cfg);
    const obs::metrics_snapshot merged = set.merged_counters();
    for (std::size_t i = 0; i < obs::counter_count; ++i) {
      metrics_tbl.add_row(
          {"metrics", obs::counter_name(static_cast<obs::counter>(i)),
           std::to_string(merged.values[i])});
    }
  }
  // --- skew study ------------------------------------------------------
  // The static router under uniform, hotspot and Zipf key streams.
  // Besides throughput, each row samples the max-shard-share imbalance
  // gauge over the first and last quarter of the run, so a skewed row
  // states how unbalanced the shards were while it ran.
  text_table skew_tbl({"study", "workload", "shards", "threads",
                       "mops_per_sec", "share_start", "share_end"});
  {
    using skew_tree =
        nm_tree<long, std::less<long>, reclaim::epoch, obs::recording>;
    using skew_set = shard::sharded_set<skew_tree>;
    const std::size_t skew_shards =
        static_cast<std::size_t>(shard_counts.back());
    const unsigned skew_threads = static_cast<unsigned>(threads.back());
    if (!csv_only) {
      std::printf("\n=== Skewed key streams (shards=%zu, threads=%u) ===\n",
                  skew_shards, skew_threads);
    }
    for (const char* workload : {"uniform", "hotspot90", "zipf"}) {
      skew_set set(skew_shards, 0, static_cast<long>(key_range));
      prepopulate_half(set, static_cast<std::uint64_t>(key_range), seed);
      const skew_result r = run_skew_case(set, key_range, workload,
                                          skew_threads, duration, seed);
      skew_tbl.add_row({"skew", workload, std::to_string(skew_shards),
                        std::to_string(skew_threads), format("%.4f", r.mops),
                        format("%.4f", r.share_start),
                        format("%.4f", r.share_end)});
      if (!csv_only) {
        std::printf("  %-9s  %8.3f Mops/s  share %.3f -> %.3f\n", workload,
                    r.mops, r.share_start, r.share_end);
      }
    }
  }

  if (!csv_only) {
    std::printf("\n=== Merged per-shard counters (recording run) ===\n");
    metrics_tbl.print();
    std::printf("\n=== CSV ===\n");
  }
  sweep.print_csv(stdout);
  batch_tbl.print_csv(stdout);

  if (flags.has("json")) {
    const std::string path = flags.get("json", "sharded.json");
    obs::bench_report report("sharded");
    report.config.set("millis", millis);
    report.config.set("runs", static_cast<std::uint64_t>(runs));
    report.config.set("seed", seed);
    report.config.set("key_range", key_range);
    report.config.set("extended", extended);
    // Every multi-thread row depends on it: on a single-core runner
    // the threads timeslice one core.
    report.config.set(
        "hardware_threads",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    report.results = obs::rows_from_table(sweep.header(), sweep.rows());
    const obs::json::value batch_rows =
        obs::rows_from_table(batch_tbl.header(), batch_tbl.rows());
    for (const auto& row : batch_rows.items()) report.add_result(row);
    const obs::json::value metrics_rows =
        obs::rows_from_table(metrics_tbl.header(), metrics_tbl.rows());
    for (const auto& row : metrics_rows.items()) report.add_result(row);
    const obs::json::value scan_rows =
        obs::rows_from_table(scan_tbl.header(), scan_tbl.rows());
    for (const auto& row : scan_rows.items()) report.add_result(row);
    const obs::json::value skew_rows =
        obs::rows_from_table(skew_tbl.header(), skew_tbl.rows());
    for (const auto& row : skew_rows.items()) report.add_result(row);
    if (!report.write_file(path)) return 1;
    if (!csv_only) std::printf("\nJSON report: %s\n", path.c_str());
  }
  return 0;
}
