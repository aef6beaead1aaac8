// google-benchmark microbenchmarks: single-threaded per-operation cost
// of every algorithm at several tree sizes. Complements the throughput
// harnesses with statistically disciplined per-op latency numbers (the
// external-vs-internal path-length discussion of §5 is directly visible
// in the search timings).
//
// Two modes share one binary:
//   * default: google-benchmark, all its flags work
//     (--benchmark_filter=..., --benchmark_out=...);
//   * --json <path> [--ops N] [--seed S]: a fixed-work measurement
//     loop that writes an lfbst-bench-v1 report for the CI perf gate
//     (tools/check_perf_regression.py vs bench/baseline_micro_ops.json):
//       study "micro"   — ns/op per (algorithm, op, size), including a
//                         std::set reference row the gate normalizes
//                         against so absolute machine speed cancels;
//       study "atomics" — per-op allocation/atomic counts (Table 1):
//                         deltas of obs::recording counters across each
//                         successful modify. Single-threaded and
//                         seeded, so these are exactly reproducible:
//                         any drift is a protocol change (Table 1);
//       study "restart_policy" — contended adjacent-leaf churn under
//                         restart::from_anchor vs restart::from_root,
//                         throughput plus the retry attribution
//                         counters (docs/PERF.md). The gate checks
//                         from_anchor does not regress vs from_root;
//       study "scan"    — ordered-scan throughput with and without
//                         concurrent writers, per reclaimer. Rows are
//                         self-checking (sorted, stable-complete); the
//                         gate fails on any violated scan invariant;
//       study "kary_zipf" — read-heavy Zipfian throughput, the multiway
//                         tree vs the NM-BST at the tuned fanout
//                         (docs/MULTIWAY.md). The gate's check_kary
//                         requires the multiway tree to hold its win on
//                         runners with >= 4 hardware threads (the
//                         report's config carries hardware_threads so
//                         the check can self-skip on small runners).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "harness/flags.hpp"
#include "harness/key_streams.hpp"
#include "harness/table.hpp"
#include "harness/zipf.hpp"
#include "lfbst/lfbst.hpp"
#include "obs/export.hpp"

namespace {

using namespace lfbst;

template <typename Tree>
void fill_to(Tree& tree, std::int64_t n, pcg32& rng, std::int64_t range) {
  std::int64_t filled = 0;
  while (filled < n) {
    if (tree.insert(static_cast<long>(rng.next64() % range))) ++filled;
  }
}

template <typename Tree>
void BM_Search(benchmark::State& state) {
  const std::int64_t size = state.range(0);
  const std::int64_t range = size * 2;
  Tree tree;
  pcg32 rng(42);
  fill_to(tree, size, rng, range);
  pcg32 qrng(43);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.contains(static_cast<long>(qrng.next64() % range)));
  }
  state.SetItemsProcessed(state.iterations());
}

template <typename Tree>
void BM_InsertErasePair(benchmark::State& state) {
  const std::int64_t size = state.range(0);
  const std::int64_t range = size * 2;
  Tree tree;
  pcg32 rng(42);
  fill_to(tree, size, rng, range);
  pcg32 qrng(44);
  for (auto _ : state) {
    const long k = static_cast<long>(qrng.next64() % range);
    if (tree.insert(k)) {
      benchmark::DoNotOptimize(tree.erase(k));
    } else {
      benchmark::DoNotOptimize(tree.erase(k));
      tree.insert(k);
    }
  }
  state.SetItemsProcessed(2 * state.iterations());
}

#define LFBST_REGISTER(tree_type, tag)                                   \
  BENCHMARK_TEMPLATE(BM_Search, tree_type)                               \
      ->Name("Search/" tag)                                              \
      ->Arg(1'000)                                                       \
      ->Arg(100'000);                                                    \
  BENCHMARK_TEMPLATE(BM_InsertErasePair, tree_type)                      \
      ->Name("InsertErasePair/" tag)                                     \
      ->Arg(1'000)                                                       \
      ->Arg(100'000)

LFBST_REGISTER(nm_tree<long>, "NM-BST");
LFBST_REGISTER(efrb_tree<long>, "EFRB-BST");
LFBST_REGISTER(hj_tree<long>, "HJ-BST");
LFBST_REGISTER(bcco_tree<long>, "BCCO-BST");
LFBST_REGISTER(coarse_tree<long>, "Coarse-BST");

using nm_epoch = nm_tree<long, std::less<long>, reclaim::epoch>;
LFBST_REGISTER(nm_epoch, "NM-BST-epoch");
// Observability overhead guard: the same tree with the obs::recording
// policy (striped counters + latency/seek histograms on every op). The
// delta vs the plain "NM-BST" rows is the full cost of metrics; compare
// with --benchmark_filter='NM-BST(-metrics)?/' and export JSON with
// --benchmark_out=<path> --benchmark_out_format=json.
using nm_metrics = nm_tree<long, std::less<long>, reclaim::leaky,
                           obs::recording>;
LFBST_REGISTER(nm_metrics, "NM-BST-metrics");
using nm_hazard = nm_tree<long, std::less<long>, reclaim::hazard>;
LFBST_REGISTER(nm_hazard, "NM-BST-hazard");
// Restart-policy ablation: the same tree with retry seeks restarting
// from the root (the paper's letter) instead of the default anchored
// local restart (the full version's optimization). Identical on the
// uncontended single-threaded paths measured here — the policy is only
// consulted after a failed CAS — so any delta in these rows is noise;
// the contended comparison lives in the "restart_policy" JSON study
// below and in bench_ablation's "contention" study.
using nm_root = nm_tree<long, std::less<long>, reclaim::leaky, stats::none,
                        void, atomics::native, restart::from_root>;
LFBST_REGISTER(nm_root, "NM-BST-root");
using kst4 = kary_tree<long, 4>;
LFBST_REGISTER(kst4, "KST-4");
using kst16 = kary_tree<long, 16>;
LFBST_REGISTER(kst16, "KST-16");

// std::set as a familiar non-concurrent reference point.
class std_set_adapter {
 public:
  using key_type = long;
  static constexpr const char* algorithm_name = "std::set";
  bool contains(long k) const { return set_.count(k) > 0; }
  bool insert(long k) { return set_.insert(k).second; }
  bool erase(long k) { return set_.erase(k) > 0; }
  std::size_t size_slow() const { return set_.size(); }
  std::string validate() const { return ""; }

 private:
  std::set<long> set_;
};
LFBST_REGISTER(std_set_adapter, "std::set");

// --------------------------------------------------------------------
// --json mode: the perf gate's measurement loop. Fixed work instead of
// google-benchmark's adaptive iteration so the report shape (rows and
// columns) is identical on every machine.
// --------------------------------------------------------------------

template <typename Tree>
double measure_search_ns(std::int64_t size, std::uint64_t ops) {
  const std::int64_t range = size * 2;
  Tree tree;
  pcg32 rng(42);
  fill_to(tree, size, rng, range);
  pcg32 qrng(43);
  std::uint64_t hits = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    hits += tree.contains(static_cast<long>(qrng.next64() % range)) ? 1 : 0;
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  benchmark::DoNotOptimize(hits);
  return static_cast<double>(ns) / static_cast<double>(ops);
}

template <typename Tree>
double measure_insert_erase_ns(std::int64_t size, std::uint64_t ops) {
  const std::int64_t range = size * 2;
  Tree tree;
  pcg32 rng(42);
  fill_to(tree, size, rng, range);
  pcg32 qrng(44);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const long k = static_cast<long>(qrng.next64() % range);
    if (tree.insert(k)) {
      benchmark::DoNotOptimize(tree.erase(k));
    } else {
      benchmark::DoNotOptimize(tree.erase(k));
      tree.insert(k);
    }
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return static_cast<double>(ns) / static_cast<double>(2 * ops);
}

// Mean allocations/atomics per successful op, from the tree's
// obs::recording counter deltas over a seeded single-threaded run:
// bit-for-bit reproducible, so the gate compares them near-exactly.
struct atomic_costs {
  double insert_allocs = 0, insert_atomics = 0;
  double erase_allocs = 0, erase_atomics = 0;
};

template <typename Tree>
atomic_costs measure_atomics(std::uint64_t ops, std::uint64_t key_range,
                             std::uint64_t seed) {
  Tree tree;
  pcg32 rng(seed);
  std::uint64_t filled = 0;
  while (filled < key_range / 2) {
    if (tree.insert(static_cast<long>(rng.next64() % key_range))) ++filled;
  }
  const obs::metrics& counters = tree.stats().counters();
  std::uint64_t ok_i = 0, ok_e = 0, ia = 0, ix = 0, ea = 0, ex = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const long k = static_cast<long>(rng.next64() % key_range);
    bool ok = false;
    auto d = counters.delta_across([&] { ok = tree.insert(k); });
    if (ok) {
      ++ok_i;
      ia += d[obs::counter::allocs];
      ix += d.atomics();
    }
    const long k2 = static_cast<long>(rng.next64() % key_range);
    d = counters.delta_across([&] { ok = tree.erase(k2); });
    if (ok) {
      ++ok_e;
      ea += d[obs::counter::allocs];
      ex += d.atomics();
    }
  }
  atomic_costs c;
  c.insert_allocs = static_cast<double>(ia) / static_cast<double>(ok_i);
  c.insert_atomics = static_cast<double>(ix) / static_cast<double>(ok_i);
  c.erase_allocs = static_cast<double>(ea) / static_cast<double>(ok_e);
  c.erase_atomics = static_cast<double>(ex) / static_cast<double>(ok_e);
  return c;
}

// Contended restart-policy sample: `threads` workers churn the same
// few adjacent leaves (insert/erase alternating) so injection CASes
// collide and cleanups contend — the regime where the anchored local
// restart pays. Fixed work per thread; counters come from the
// obs::recording instance so the report carries the retry attribution
// (local resumes vs root fallbacks) next to the throughput.
struct restart_policy_sample {
  double mops = 0;
  obs::metrics_snapshot counters;
};

template <typename Tree>
restart_policy_sample measure_restart_policy(unsigned threads,
                                             std::uint64_t ops_per_thread) {
  Tree tree;
  constexpr long kKeys = 8;
  for (long k = 0; k < kKeys; ++k) tree.insert(k);
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&tree, &go, ops_per_thread, t] {
      // Independent per-thread key streams over the same tiny range, so
      // threads genuinely collide on leaves and their shared edges.
      pcg32 rng(0x9e3779b9u + t);
      while (!go.load(std::memory_order_acquire)) {}
      for (std::uint64_t n = 0; n < ops_per_thread; ++n) {
        const long k = static_cast<long>(rng.bounded(kKeys));
        if (rng.bounded(2) != 0) {
          tree.insert(k);
        } else {
          tree.erase(k);
        }
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  restart_policy_sample s;
  s.mops = static_cast<double>(threads) *
           static_cast<double>(ops_per_thread) * 1e3 /
           static_cast<double>(ns);
  s.counters = tree.stats().counters().snapshot();
  return s;
}

// Concurrent-scan sample: writers churn the odd (CHURN) keys while the
// measuring thread runs fixed-count ordered scans; even (STABLE) keys
// are pre-inserted and never touched. The row is self-checking, not
// baseline-compared: `sorted` and `stable_complete` must be 1 in every
// row (tools/check_perf_regression.py check_scan enforces this), and
// with writers=0 the keys_per_scan is exactly the stable population —
// a deterministic count, so any drift is a scan-protocol change.
struct scan_sample {
  double mkeys_per_sec = 0;  // emitted keys per wall second, millions
  double keys_per_scan = 0;
  std::uint64_t scan_restarts = 0;
  bool sorted = true;
  bool stable_complete = true;
};

template <typename Tree>
scan_sample measure_scan(unsigned writer_threads, int scans,
                         long key_range) {
  Tree tree;
  // Stable keys in bit_reversed order: an ascending prefill would build
  // an O(n) spine and time successor queries on a degenerate tree.
  const std::uint64_t stable = static_cast<std::uint64_t>(key_range) / 2;
  harness::for_each_bit_reversed(
      stable, [&](std::uint64_t j) { tree.insert(2 * static_cast<long>(j)); });
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < writer_threads; ++t) {
    writers.emplace_back([&tree, &stop, key_range, t] {
      pcg32 rng(0x2545F491u + t);
      while (!stop.load(std::memory_order_acquire)) {
        const long k =
            2 * static_cast<long>(
                    rng.bounded(static_cast<std::uint32_t>(key_range / 2))) +
            1;
        if (rng.bounded(2) != 0) {
          tree.insert(k);
        } else {
          tree.erase(k);
        }
      }
    });
  }
  scan_sample s;
  std::uint64_t emitted = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < scans; ++i) {
    const std::vector<long> got = tree.range_scan_closed(0, key_range - 1);
    emitted += got.size();
    std::uint64_t stable_seen = 0;
    for (std::size_t j = 0; j < got.size(); ++j) {
      if (j > 0 && got[j - 1] >= got[j]) s.sorted = false;
      if ((got[j] & 1) == 0) ++stable_seen;
    }
    if (stable_seen != stable) s.stable_complete = false;
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  stop.store(true, std::memory_order_release);
  for (auto& w : writers) w.join();
  s.mkeys_per_sec =
      static_cast<double>(emitted) * 1e3 / static_cast<double>(ns);
  s.keys_per_scan = static_cast<double>(emitted) / scans;
  s.scan_restarts = tree.stats().counters().snapshot()
                        [obs::counter::scan_restarts];
  return s;
}

// Read-heavy Zipfian throughput: the multiway tree's target regime —
// hot descents fit a couple of cache lines per level, so the shallower
// tree wins on exactly the traffic a skewed read-mostly workload
// generates. Fixed duration, pre-drawn key stream (the Zipf inverse
// transform would otherwise dominate), 80% contains / 20% writes.
template <typename Tree>
double measure_zipf_read_mops(std::uint64_t key_range, double theta,
                              unsigned thread_count, std::uint64_t millis,
                              std::uint64_t seed) {
  Tree tree;
  pcg32 fill(seed);
  std::uint64_t filled = 0;
  while (filled < key_range / 2) {
    if (tree.insert(static_cast<long>(fill.next64() % key_range))) ++filled;
  }
  const harness::zipf_generator zipf(key_range, theta);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_ops{0};
  spin_barrier barrier(thread_count + 1);
  std::vector<std::thread> workers;
  for (unsigned tid = 0; tid < thread_count; ++tid) {
    workers.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(seed, tid);
      constexpr std::size_t kStream = 1u << 16;
      std::vector<long> keys(kStream);
      for (auto& k : keys) {
        k = static_cast<long>(zipf.scramble(zipf(rng)));
      }
      std::uint64_t n = 0;
      std::size_t i = 0;
      std::uint64_t hits = 0;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const long key = keys[i];
        i = (i + 1 == kStream) ? 0 : i + 1;
        const auto roll = rng.bounded(10);
        if (roll == 0) {
          (void)tree.insert(key);
        } else if (roll == 1) {
          (void)tree.erase(key);
        } else {
          hits += tree.contains(key) ? 1 : 0;
        }
        ++n;
      }
      benchmark::DoNotOptimize(hits);
      total_ops.fetch_add(n);
    });
  }
  barrier.arrive_and_wait();
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(millis));
  stop.store(true);
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<double>(total_ops.load()) / secs / 1e6;
}

int run_json_mode(const lfbst::bench::flags& flags) {
  const std::string path = flags.get("json", "micro_ops.json");
  const auto ops = static_cast<std::uint64_t>(flags.get_int("ops", 200'000));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));

  harness::text_table micro(
      {"study", "algorithm", "op", "size", "ns_per_op"});
  auto micro_rows = [&]<typename Tree>(const char* name) {
    for (const std::int64_t size : {std::int64_t{1'000},
                                    std::int64_t{65'536}}) {
      micro.add_row({"micro", name, "search", std::to_string(size),
                     harness::format("%.3f",
                                     measure_search_ns<Tree>(size, ops))});
      micro.add_row(
          {"micro", name, "insert_erase", std::to_string(size),
           harness::format("%.3f",
                           measure_insert_erase_ns<Tree>(size, ops / 2))});
    }
  };
  micro_rows.template operator()<nm_tree<long>>("NM-BST");
  micro_rows.template operator()<nm_root>("NM-BST-root");
  micro_rows.template operator()<efrb_tree<long>>("EFRB-BST");
  micro_rows.template operator()<hj_tree<long>>("HJ-BST");
  micro_rows.template operator()<bcco_tree<long>>("BCCO-BST");
  micro_rows.template operator()<shard::sharded_set<nm_tree<long>>>(
      "Sharded/NM-BST");
  // Shape-resilience adapter overhead on uniform streams (one
  // xorshift-multiply round per op): the check_shape perf-gate check
  // holds these within 5% of their unscrambled counterparts.
  micro_rows.template operator()<scrambled_set<nm_tree<long>>>(
      "Scrambled/NM-BST");
  micro_rows.template
  operator()<scrambled_set<shard::sharded_set<nm_tree<long>>>>(
      "Scrambled/Sharded");
  micro_rows.template operator()<std_set_adapter>("std::set");
  // The multiway tree at the tuned fanout, across its full reclaimer ×
  // restart grid — the policy-parity claim (docs/MULTIWAY.md) made
  // measurable: every combination is a working, benched configuration.
  micro_rows.template operator()<kary_tree<long>>("KST");
  micro_rows.template operator()<
      kary_tree<long, 8, std::less<long>, reclaim::epoch>>("KST-epoch");
  micro_rows.template operator()<
      kary_tree<long, 8, std::less<long>, reclaim::leaky, stats::none,
                atomics::native, restart::from_root>>("KST-root");
  micro_rows.template operator()<
      kary_tree<long, 8, std::less<long>, reclaim::epoch, stats::none,
                atomics::native, restart::from_root>>("KST-epoch-root");

  harness::text_table atomics({"study", "algorithm", "allocs_per_insert",
                               "atomics_per_insert", "allocs_per_erase",
                               "atomics_per_erase"});
  using recording = obs::recording;
  auto atomics_row = [&]<typename Tree>(const char* name) {
    const atomic_costs c = measure_atomics<Tree>(ops / 4, 10'000, seed);
    atomics.add_row({"atomics", name,
                     harness::format("%.4f", c.insert_allocs),
                     harness::format("%.4f", c.insert_atomics),
                     harness::format("%.4f", c.erase_allocs),
                     harness::format("%.4f", c.erase_atomics)});
  };
  atomics_row.template operator()<
      nm_tree<long, std::less<long>, reclaim::leaky, recording>>("NM-BST");
  // The from_root ablation must pin the exact same Table 1 counts: the
  // restart policy is consulted only after a failed CAS, and this
  // measurement is single-threaded.
  atomics_row.template operator()<
      nm_tree<long, std::less<long>, reclaim::leaky, recording, void,
              atomics::native, restart::from_root>>(
      "NM-BST-root");
  atomics_row.template operator()<
      efrb_tree<long, std::less<long>, reclaim::leaky, recording>>(
      "EFRB-BST");
  atomics_row.template operator()<
      hj_tree<long, std::less<long>, reclaim::leaky, recording>>("HJ-BST");
  // Multiway count pins (tests/multiway/kary_counts_test.cpp): REPLACE
  // is 2 allocs / 3 CAS, SPROUT K+2 allocs / 3 CAS, COALESCE 2 allocs /
  // 4 CAS — the measured averages mix these by structural frequency but
  // are seeded and single-threaded, hence reproducible.
  atomics_row.template operator()<
      kary_tree<long, 8, std::less<long>, reclaim::leaky, recording>>("KST");

  // Contended restart-policy ablation: same churn, both policies. The
  // perf gate checks from_anchor holds its own against from_root here
  // and that its local-resume counter is actually exercised.
  harness::text_table rp({"study", "policy", "threads", "mops",
                          "seek_restarts", "restarts_injection_fail",
                          "restarts_cleanup_mode", "seek_resumes_local",
                          "seek_anchor_fallbacks"});
  const unsigned rp_threads = 4;
  const std::uint64_t rp_ops = ops / rp_threads;
  auto rp_row = [&]<typename Tree>(const char* policy) {
    const restart_policy_sample s =
        measure_restart_policy<Tree>(rp_threads, rp_ops);
    auto c = [&s](obs::counter k) {
      return std::to_string(s.counters[k]);
    };
    rp.add_row({"restart_policy", policy, std::to_string(rp_threads),
                harness::format("%.3f", s.mops),
                c(obs::counter::seek_restarts),
                c(obs::counter::restarts_injection_fail),
                c(obs::counter::restarts_cleanup_mode),
                c(obs::counter::seek_resumes_local),
                c(obs::counter::seek_anchor_fallbacks)});
  };
  rp_row.template operator()<
      nm_tree<long, std::less<long>, reclaim::leaky, obs::recording, void,
              atomics::native, restart::from_anchor>>(
      "from_anchor");
  rp_row.template operator()<
      nm_tree<long, std::less<long>, reclaim::leaky, obs::recording, void,
              atomics::native, restart::from_root>>(
      "from_root");

  // Concurrent-scan study: self-checking rows (see measure_scan). One
  // uncontended row per reclaimer pins the deterministic key count;
  // the contended rows prove completeness/sortedness under real churn
  // on both the pinned (epoch) and validated (hazard) scan paths.
  harness::text_table scan({"study", "algorithm", "writers", "scans",
                            "mkeys_per_sec", "keys_per_scan",
                            "scan_restarts", "sorted", "stable_complete"});
  constexpr long kScanRange = 8'192;
  constexpr int kScans = 50;
  auto scan_row = [&]<typename Tree>(const char* name, unsigned writers) {
    const scan_sample s = measure_scan<Tree>(writers, kScans, kScanRange);
    scan.add_row({"scan", name, std::to_string(writers),
                  std::to_string(kScans),
                  harness::format("%.3f", s.mkeys_per_sec),
                  harness::format("%.1f", s.keys_per_scan),
                  std::to_string(s.scan_restarts),
                  s.sorted ? "1" : "0", s.stable_complete ? "1" : "0"});
  };
  using scan_epoch = nm_tree<long, std::less<long>, reclaim::epoch,
                             obs::recording>;
  using scan_hazard = nm_tree<long, std::less<long>, reclaim::hazard,
                              obs::recording>;
  scan_row.template operator()<scan_epoch>("NM-BST/epoch", 0);
  scan_row.template operator()<scan_epoch>("NM-BST/epoch", 2);
  scan_row.template operator()<scan_hazard>("NM-BST/hazard", 0);
  scan_row.template operator()<scan_hazard>("NM-BST/hazard", 2);
  scan_row.template operator()<
      kary_tree<long, 8, std::less<long>, reclaim::epoch, obs::recording>>(
      "KST/epoch", 0);
  scan_row.template operator()<
      kary_tree<long, 8, std::less<long>, reclaim::epoch, obs::recording>>(
      "KST/epoch", 2);

  // Read-heavy Zipf study: the multiway tree's headline claim, measured
  // in the regime it targets (theta 0.99 hot-spot reads at the tuned
  // fanout, tree big enough that depth matters). The NM row rides along
  // so check_kary can compare within this report; the comparison only
  // means anything with real parallelism, so the config carries the
  // runner's hardware_threads for the gate's self-skip.
  harness::text_table kary_zipf({"study", "algorithm", "threads", "theta",
                                 "mops_per_sec"});
  {
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned zipf_threads = hw >= 4 ? 4 : (hw > 0 ? hw : 1);
    constexpr std::uint64_t kZipfRange = 1u << 20;
    constexpr double kTheta = 0.99;
    const std::uint64_t zipf_millis = flags.get_int("zipf_millis", 300);
    auto zipf_row = [&]<typename Tree>(const char* name) {
      const double mops = measure_zipf_read_mops<Tree>(
          kZipfRange, kTheta, zipf_threads, zipf_millis, seed);
      kary_zipf.add_row({"kary_zipf", name, std::to_string(zipf_threads),
                         harness::format("%.2f", kTheta),
                         harness::format("%.3f", mops)});
    };
    zipf_row.template operator()<kary_tree<long>>("KST");
    zipf_row.template operator()<nm_tree<long>>("NM-BST");
    zipf_row.template operator()<efrb_tree<long>>("EFRB-BST");
    zipf_row.template operator()<hj_tree<long>>("HJ-BST");
  }

  obs::bench_report report("micro_ops");
  report.config.set("ops", ops);
  report.config.set("seed", seed);
  report.config.set(
      "hardware_threads",
      static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  report.results = obs::rows_from_table(micro.header(), micro.rows());
  const obs::json::value atomics_rows =
      obs::rows_from_table(atomics.header(), atomics.rows());
  for (const auto& row : atomics_rows.items()) report.add_result(row);
  const obs::json::value rp_rows = obs::rows_from_table(rp.header(), rp.rows());
  for (const auto& row : rp_rows.items()) report.add_result(row);
  const obs::json::value scan_rows =
      obs::rows_from_table(scan.header(), scan.rows());
  for (const auto& row : scan_rows.items()) report.add_result(row);
  const obs::json::value kary_zipf_rows =
      obs::rows_from_table(kary_zipf.header(), kary_zipf.rows());
  for (const auto& row : kary_zipf_rows.items()) report.add_result(row);
  if (!report.write_file(path)) return 1;
  std::printf("JSON report: %s\n", path.c_str());
  return 0;
}

void print_help() {
  std::printf(
      "JSON report mode: bench_micro_ops --json[=path] [--ops N] [--seed N]"
      " [--zipf_millis N]\n\n");
  benchmark::PrintDefaultHelp();
}

}  // namespace

int main(int argc, char** argv) {
  // --json selects the JSON report mode and its own flags; without it
  // google-benchmark owns the command line.
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json", 6) == 0) {
      return run_json_mode(lfbst::bench::flags(
          argc, argv, {"json", "ops", "seed", "zipf_millis"}));
    }
  }
  benchmark::Initialize(&argc, argv, print_help);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    print_help();
    return 2;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
