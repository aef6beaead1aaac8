// Skewed-access extension study: Zipfian keys concentrate operations on
// a few hot keys, manufacturing the high-contention regime the paper's
// §4 names as NM's strength ("contention is high — tree size is small or
// workload is write-dominated") without shrinking the tree. Sweeping the
// skew parameter shows each algorithm's sensitivity to hot-spot
// contention at a fixed tree size.
//
// The second study quantifies the adversarial-shape pathology
// (docs/RESILIENCE.md): key *order*, not key skew. An external BST
// under a sequential or attacker-chosen insertion stream degenerates
// to an O(n) spine; the seek_depth rows measure p50/p99/max seek depth
// per (stream, algorithm, scramble) arm so the perf gate
// (tools/check_perf_regression.py check_shape) can verify both that
// the pathology is real unscrambled and that the key_scramble.hpp
// bijection bounds it.
//
//   bench_skew [--keyrange N] [--threads N] [--millis N]
//              [--thetas 0,50,90,99]   (theta × 100)
//              [--shape-n N] [--shape-ops N] [--shape-shards N]
//              [--streams uniform,sequential,bit_reversed,adaptive_attack]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "core/key_scramble.hpp"
#include "harness/algorithms.hpp"
#include "harness/flags.hpp"
#include "harness/key_streams.hpp"
#include "harness/table.hpp"
#include "harness/zipf.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "shard/sharded_set.hpp"

namespace {

using namespace lfbst;
using namespace lfbst::harness;

template <typename Tree>
double zipf_throughput(std::uint64_t key_range, double theta,
                       unsigned thread_count, std::uint64_t millis,
                       std::uint64_t seed) {
  Tree tree;
  // Pre-populate uniformly to half the range (same regime as Fig. 4).
  pcg32 fill(seed);
  std::uint64_t filled = 0;
  while (filled < key_range / 2) {
    if (tree.insert(static_cast<long>(fill.next64() % key_range))) {
      ++filled;
    }
  }
  const zipf_generator zipf(key_range, theta);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  spin_barrier barrier(thread_count + 1);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < thread_count; ++tid) {
    threads.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(seed, tid);
      // Pre-draw the key stream: the Zipf inverse transform costs two
      // pow() calls per draw, which would otherwise dominate the
      // measurement and flatten the comparison.
      constexpr std::size_t kStream = 1u << 18;
      std::vector<long> keys(kStream);
      for (auto& k : keys) {
        k = static_cast<long>(zipf.scramble(zipf(rng)));
      }
      std::uint64_t n = 0;
      std::size_t i = 0;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const long key = keys[i];
        i = (i + 1 == kStream) ? 0 : i + 1;
        if (rng.bounded(2) == 0) {  // write-dominated 50/50
          (void)tree.insert(key);
        } else {
          (void)tree.erase(key);
        }
        ++n;
      }
      ops.fetch_add(n);
    });
  }
  barrier.arrive_and_wait();
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(millis));
  stop.store(true);
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<double>(ops.load()) / secs / 1e6;
}

// --- seek-depth (shape) study -------------------------------------------

/// Merged seek-depth histogram of any instrumented set: a plain
/// recording tree exposes stats(), the sharded front-end (and the
/// scrambled adapter over either) merges across shards.
template <typename Set>
obs::histogram seek_depth_of(const Set& set) {
  if constexpr (requires { set.merged_seek_depth_histogram(); }) {
    return set.merged_seek_depth_histogram();
  } else {
    return set.stats().seek_depth_histogram();
  }
}

struct shape_point {
  double mops = 0;
  std::uint64_t depth_p50 = 0;
  std::uint64_t depth_p99 = 0;
  std::uint64_t depth_max = 0;
};

/// Builds the set from `kind`'s insertion order, then probes present
/// keys in pseudorandom order. Depth percentiles are taken over the
/// probe phase only (histogram delta), so they describe the *final*
/// shape rather than averaging in the smaller trees the build phase
/// walked through.
template <typename Set>
shape_point measure_shape(Set& set, key_stream_kind kind, std::uint64_t n,
                          std::uint64_t probe_ops, std::uint64_t seed) {
  std::vector<long> keys;
  keys.reserve(n);
  if (kind == key_stream_kind::uniform) {
    pcg32 rng(seed);
    const std::uint64_t domain = key_stream_domain(kind, n) * 4;
    while (keys.size() < n) {
      const long k = static_cast<long>(rng.next64() % domain);
      if (set.insert(k)) keys.push_back(k);
    }
  } else {
    for (std::uint64_t i = 0; i < n; ++i) {
      const long k = static_cast<long>(key_stream_at(kind, i, n));
      if (set.insert(k)) keys.push_back(k);
    }
  }
  const obs::histogram before = seek_depth_of(set);
  pcg32 probe(seed ^ 0x5EEDu);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < probe_ops; ++i) {
    (void)set.contains(keys[probe.next64() % keys.size()]);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const obs::histogram depth = seek_depth_of(set).delta_since(before);
  shape_point p;
  p.mops = static_cast<double>(probe_ops) / secs / 1e6;
  p.depth_p50 = depth.value_at_percentile(50.0);
  p.depth_p99 = depth.value_at_percentile(99.0);
  p.depth_max = depth.max();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::flags flags(argc, argv, {
      "json", "keyrange", "millis", "seed", "shape-n", "shape-ops",
      "shape-shards", "streams", "thetas", "threads"});
  const auto key_range =
      static_cast<std::uint64_t>(flags.get_int("keyrange", 100'000));
  const auto thread_count =
      static_cast<unsigned>(flags.get_int("threads", 4));
  const auto millis = static_cast<std::uint64_t>(flags.get_int("millis", 200));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 17));
  const auto thetas = flags.get_int_list("thetas", {0, 50, 90, 99});

  std::printf("=== skewed-access study (Zipfian keys, write-dominated) "
              "===\n%llu keys, %u threads, %llu ms per point; theta 0 = "
              "uniform, 0.99 = YCSB-hot\n\n",
              static_cast<unsigned long long>(key_range), thread_count,
              static_cast<unsigned long long>(millis));

  std::vector<std::string> header{"theta"};
  std::vector<std::vector<std::string>> rows;
  for (const auto t100 : thetas) {
    rows.push_back({harness::format("%.2f", static_cast<double>(t100) / 100)});
  }
  auto measure_column = [&]<typename Tree>() {
    header.push_back(Tree::algorithm_name);
    for (std::size_t i = 0; i < thetas.size(); ++i) {
      const double theta = static_cast<double>(thetas[i]) / 100.0;
      rows[i].push_back(harness::format(
          "%.3f", zipf_throughput<Tree>(key_range, theta, thread_count,
                                        millis, seed)));
    }
  };
  for_each_paper_algorithm<long>(measure_column);
  // The cache-conscious multiway contender, side by side with the
  // paper's roster (tuned default fanout; docs/MULTIWAY.md).
  measure_column.template operator()<kary_tree<long>>();

  text_table tbl(header);
  for (auto& r : rows) tbl.add_row(std::move(r));
  tbl.print();

  // --- seek-depth (shape) study -----------------------------------------
  const auto shape_n =
      static_cast<std::uint64_t>(flags.get_int("shape-n", 16384));
  const auto shape_ops =
      static_cast<std::uint64_t>(flags.get_int("shape-ops", 16384));
  const auto shape_shards =
      static_cast<std::size_t>(flags.get_int("shape-shards", 8));
  std::vector<key_stream_kind> streams;
  {
    const std::string list = flags.get(
        "streams", "uniform,sequential,bit_reversed,adaptive_attack");
    std::size_t start = 0;
    while (start <= list.size()) {
      const std::size_t comma = list.find(',', start);
      const std::string name =
          list.substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start);
      key_stream_kind kind{};
      if (!parse_key_stream(name, kind)) {
        std::fprintf(stderr, "unknown key stream: %s\n", name.c_str());
        return 1;
      }
      streams.push_back(kind);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }

  std::printf("\n=== seek-depth (shape) study: adversarial key streams "
              "===\n%llu keys per arm, %llu probe ops, single thread; "
              "scramble = key_scramble.hpp boundary bijection\n\n",
              static_cast<unsigned long long>(shape_n),
              static_cast<unsigned long long>(shape_ops));

  using rec_nm =
      nm_tree<long, std::less<long>, reclaim::epoch, obs::recording>;
  using rec_efrb =
      efrb_tree<long, std::less<long>, reclaim::epoch, obs::recording>;
  using rec_kst = kary_tree<long, multiway::default_fanout<long>,
                            std::less<long>, reclaim::epoch, obs::recording>;
  using rec_sharded = shard::sharded_set<rec_nm>;

  text_table shape({"study", "stream", "algorithm", "scramble", "n",
                    "shards", "mops", "depth_p50", "depth_p99",
                    "depth_max"});
  auto shape_row = [&](key_stream_kind kind, const char* algo, bool scrambled,
                       std::size_t shard_count, auto& set) {
    const shape_point p =
        measure_shape(set, kind, shape_n, shape_ops, seed);
    shape.add_row({"seek_depth", key_stream_name(kind), algo,
                   scrambled ? "1" : "0",
                   harness::format("%llu",
                                   static_cast<unsigned long long>(shape_n)),
                   harness::format("%zu", shard_count),
                   harness::format("%.3f", p.mops),
                   harness::format("%llu", static_cast<unsigned long long>(
                                               p.depth_p50)),
                   harness::format("%llu", static_cast<unsigned long long>(
                                               p.depth_p99)),
                   harness::format("%llu", static_cast<unsigned long long>(
                                               p.depth_max))});
  };
  for (const key_stream_kind kind : streams) {
    // Raw sharded arms partition the stream's own domain so the attack
    // exercises every shard (the per-shard-spine regime the merged
    // histograms used to hide); scrambled arms span the full key
    // domain, where the bijection sends every stream.
    const auto domain = static_cast<long>(
        key_stream_domain(kind, shape_n) *
        (kind == key_stream_kind::uniform ? 4 : 1));
    {
      rec_nm t;
      shape_row(kind, "NM-BST", false, 1, t);
    }
    {
      scrambled_set<rec_nm> t(seed);
      shape_row(kind, "NM-BST", true, 1, t);
    }
    {
      rec_efrb t;
      shape_row(kind, "EFRB-BST", false, 1, t);
    }
    {
      scrambled_set<rec_efrb> t(seed);
      shape_row(kind, "EFRB-BST", true, 1, t);
    }
    {
      rec_kst t;
      shape_row(kind, "KST", false, 1, t);
    }
    {
      scrambled_set<rec_kst> t(seed);
      shape_row(kind, "KST", true, 1, t);
    }
    {
      rec_sharded t(shape_shards, 0, domain);
      shape_row(kind, "Sharded", false, shape_shards, t);
    }
    {
      scrambled_set<rec_sharded> t(
          seed, shard::range_router<long>(shape_shards));
      shape_row(kind, "Sharded", true, shape_shards, t);
    }
  }
  shape.print();

  if (flags.has("json")) {
    const std::string path = flags.get("json", "skew.json");
    obs::bench_report report("skew");
    report.config.set("keyrange", key_range);
    report.config.set("threads", thread_count);
    report.config.set("millis", millis);
    report.config.set("seed", seed);
    report.config.set("shape_n", shape_n);
    report.config.set("shape_ops", shape_ops);
    report.config.set("shape_shards",
                      static_cast<std::uint64_t>(shape_shards));
    report.results = obs::rows_from_table(tbl.header(), tbl.rows());
    const obs::json::value shape_rows =
        obs::rows_from_table(shape.header(), shape.rows());
    for (const auto& row : shape_rows.items()) report.add_result(row);
    if (!report.write_file(path)) return 1;
    std::printf("\nJSON report: %s\n", path.c_str());
  }

  std::printf("\nReading: rising skew concentrates modify traffic on hot "
              "leaves; the algorithms with the smallest contention window "
              "and fewest atomics per modify degrade least.\n");
  return 0;
}
