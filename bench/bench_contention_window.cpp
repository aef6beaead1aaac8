// Quantifies the §5 "contention window" discussion: operation pairs that
// touch *disjoint edges* can run concurrently in the NM tree but collide
// in EFRB, because EFRB flags whole nodes (an insert owns the parent; a
// delete owns parent + grandparent).
//
// Workload: pairs of threads repeatedly modify adjacent keys that share
// a parent/grandparent region — e.g. insert(4k)/insert(4k+2) under the
// same subtree, and delete/delete on keys whose EFRB grandparent
// coincides. Throughput per algorithm shows how much the node-level
// locking costs; the paper's Figure 5 examples (insert(40)+insert(60),
// delete(25)+delete(125)) are the template.
//
// The NM tree is measured under both restart policies (docs/PERF.md):
// restart::from_anchor (default; retry seeks resume from the recorded
// ancestor edge) and restart::from_root (the letter's full restart).
// All trees carry obs::recording, so every row reports the retry
// attribution counters next to its throughput — under contention the
// from_anchor row shows where its retries resumed (local vs root
// fallback), and the from_root row pins both at zero.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "baselines/efrb_tree.hpp"
#include "harness/flags.hpp"
#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "core/natarajan_tree.hpp"
#include "core/restart_policy.hpp"
#include "harness/table.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace lfbst;

using nm_anchor = nm_tree<long, std::less<long>, reclaim::leaky,
                          obs::recording, tag_policy::bts, void,
                          atomics::native, restart::from_anchor>;
using nm_root = nm_tree<long, std::less<long>, reclaim::leaky,
                        obs::recording, tag_policy::bts, void,
                        atomics::native, restart::from_root>;
using efrb_rec =
    efrb_tree<long, std::less<long>, reclaim::leaky, obs::recording>;

struct window_sample {
  double mops = 0;
  obs::metrics_snapshot counters;
};

/// Two threads hammer keys that are siblings in key space (2k, 2k+1
/// style adjacency ⇒ adjacent leaves ⇒ shared parent region). Returns
/// combined Mops/s plus the tree's own counter attribution.
template <typename Tree>
window_sample adjacent_pair_throughput(std::uint64_t millis,
                                       std::uint64_t pairs,
                                       std::uint64_t seed) {
  Tree tree;
  // Dense base structure: even keys permanently present as anchors.
  for (std::uint64_t k = 0; k < pairs * 4; k += 2) {
    tree.insert(static_cast<long>(k));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_ops{0};
  spin_barrier barrier(3);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < 2; ++tid) {
    threads.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(seed, tid);
      std::uint64_t ops = 0;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        // Thread 0 churns keys ≡1 (mod 4), thread 1 keys ≡3 (mod 4):
        // always disjoint keys, always adjacent leaves.
        const std::uint64_t pair = rng.bounded(static_cast<std::uint32_t>(pairs));
        const long k = static_cast<long>(pair * 4 + 1 + 2 * tid);
        if ((ops & 1) == 0) {
          tree.insert(k);
        } else {
          tree.erase(k);
        }
        ++ops;
      }
      total_ops.fetch_add(ops);
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
  window_sample s;
  s.mops = static_cast<double>(total_ops.load()) / secs / 1e6;
  s.counters = tree.stats().counters().snapshot();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::flags flags(argc, argv, {"json", "millis", "pairs", "seed"});
  const auto millis = static_cast<std::uint64_t>(flags.get_int("millis", 300));
  const auto pairs = static_cast<std::uint64_t>(flags.get_int("pairs", 64));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 11));

  std::printf("=== Contention window microbench (paper §5) ===\n"
              "2 modifier threads on adjacent-leaf keys; %llu pairs, "
              "%llu ms\nDisjoint-edge operations: NM admits them "
              "concurrently, EFRB serializes on shared flagged nodes.\n\n",
              static_cast<unsigned long long>(pairs),
              static_cast<unsigned long long>(millis));

  const window_sample nm =
      adjacent_pair_throughput<nm_anchor>(millis, pairs, seed);
  const window_sample nm_r =
      adjacent_pair_throughput<nm_root>(millis, pairs, seed);
  const window_sample efrb =
      adjacent_pair_throughput<efrb_rec>(millis, pairs, seed);

  harness::text_table tbl({"algorithm", "policy", "Mops/s", "vs EFRB",
                           "seek_restarts", "restarts_injection_fail",
                           "restarts_cleanup_mode", "seek_resumes_local",
                           "seek_anchor_fallbacks"});
  auto add = [&tbl, &efrb](const char* name, const char* policy,
                           const window_sample& s) {
    auto c = [&s](obs::counter k) { return std::to_string(s.counters[k]); };
    tbl.add_row({name, policy, harness::format("%.3f", s.mops),
                 harness::format("%.2fx", s.mops / efrb.mops),
                 c(obs::counter::seek_restarts),
                 c(obs::counter::restarts_injection_fail),
                 c(obs::counter::restarts_cleanup_mode),
                 c(obs::counter::seek_resumes_local),
                 c(obs::counter::seek_anchor_fallbacks)});
  };
  add("NM-BST", "from_anchor", nm);
  add("NM-BST", "from_root", nm_r);
  add("EFRB-BST", "-", efrb);
  tbl.print();

  if (flags.has("json")) {
    const std::string path = flags.get("json", "contention_window.json");
    obs::bench_report report("contention_window");
    report.config.set("millis", millis);
    report.config.set("pairs", pairs);
    report.config.set("seed", seed);
    report.results = obs::rows_from_table(tbl.header(), tbl.rows());
    if (!report.write_file(path)) return 1;
    std::printf("\nJSON report: %s\n", path.c_str());
  }
  return 0;
}
