// bench_ablation --study=contention: the paper's §5 "contention
// window". Two threads modify disjoint keys on adjacent leaves, which NM
// admits concurrently and EFRB serializes on shared flagged nodes.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "baselines/efrb_tree.hpp"
#include "bench_ablation.hpp"
#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "core/natarajan_tree.hpp"
#include "core/restart_policy.hpp"
#include "harness/table.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

using namespace lfbst;
using namespace lfbst::harness;

namespace {

struct window_sample {
  double mops = 0;
  obs::metrics_snapshot counters;
};

/// Two threads hammer disjoint keys on adjacent leaves (shared parent
/// region). Returns combined Mops/s plus the tree's own counters.
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
        const std::uint64_t pair =
            rng.bounded(static_cast<std::uint32_t>(pairs));
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

void ablation::study_contention(std::uint64_t millis, std::uint64_t seed,
                                obs::bench_report* report) {
  // The paper's Figure 5 pairs (insert(40)+insert(60), delete(25)+
  // delete(125)) are the template: EFRB flags whole nodes (an insert
  // owns the parent, a delete parent and grandparent), NM only edges.
  constexpr std::uint64_t kPairs = 64;
  std::printf("--- study: contention window (paper §5), 2 modifier "
              "threads on adjacent-leaf keys, %llu pairs ---\n",
              static_cast<unsigned long long>(kPairs));
  using nm_anchor = nm_tree<long, std::less<long>, reclaim::leaky,
                            obs::recording, void, atomics::native,
                            restart::from_anchor>;
  using nm_root = nm_tree<long, std::less<long>, reclaim::leaky,
                          obs::recording, void, atomics::native,
                          restart::from_root>;
  using efrb_rec =
      efrb_tree<long, std::less<long>, reclaim::leaky, obs::recording>;
  const window_sample nm =
      adjacent_pair_throughput<nm_anchor>(millis, kPairs, seed);
  const window_sample nm_r =
      adjacent_pair_throughput<nm_root>(millis, kPairs, seed);
  const window_sample efrb =
      adjacent_pair_throughput<efrb_rec>(millis, kPairs, seed);

  text_table tbl({"algorithm", "policy", "Mops/s", "vs EFRB",
                  "seek_restarts", "restarts_injection_fail",
                  "restarts_cleanup_mode", "seek_resumes_local",
                  "seek_anchor_fallbacks"});
  auto add = [&tbl, &efrb](const char* name, const char* policy,
                           const window_sample& s) {
    auto c = [&s](obs::counter k) { return std::to_string(s.counters[k]); };
    tbl.add_row({name, policy, format("%.3f", s.mops),
                 format("%.2fx", s.mops / efrb.mops),
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
  export_table(report, "contention", tbl);
  std::printf("Expected: NM admits disjoint-edge operations concurrently; "
              "EFRB serializes them on shared flagged nodes. Under "
              "from_anchor, retries resume locally; from_root pins both "
              "resume counters at zero.\n\n");
}
