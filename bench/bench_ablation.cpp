// Ablation studies for the design choices DESIGN.md calls out:
//
//   --study=reclaim   leaky (paper regime) vs epoch-based reclamation:
//                     the price of a production memory policy.
//   --study=fanout    the §6 k-ary generalization: fanout sweep of
//                     kary_tree against the binary NM tree.
//   --study=multileaf how often one cleanup CAS removes more than one
//                     pending delete (the Fig. 2 effect), measured by
//                     node accounting under concurrent deleting.
//   --study=contention the §5 "contention window": two threads modify
//                     disjoint keys on adjacent leaves, which NM admits
//                     concurrently and EFRB serializes on shared flagged
//                     nodes. NM runs under both restart policies, with
//                     its retry attribution counters (docs/PERF.md).
//                     (bench_ablation_contention.cpp: its own unit, see
//                     bench_ablation.hpp).
//
// Default: run every study with short budgets.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <string>
#include <thread>
#include <vector>

#include "bench_ablation.hpp"
#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "harness/flags.hpp"
#include "core/natarajan_tree.hpp"
#include "multiway/kary_tree.hpp"
#include "reclaim/hazard_reclaimer.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "harness/workload.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

using namespace lfbst;
using namespace lfbst::harness;
using ablation::export_table;

void ablation::export_table(obs::bench_report* report, const char* study,
                            const text_table& tbl) {
  if (report == nullptr) return;
  std::vector<std::string> header{"study"};
  header.insert(header.end(), tbl.header().begin(), tbl.header().end());
  std::vector<std::vector<std::string>> rows;
  rows.reserve(tbl.rows().size());
  for (const auto& r : tbl.rows()) {
    std::vector<std::string> row{study};
    row.insert(row.end(), r.begin(), r.end());
    rows.push_back(std::move(row));
  }
  // Bind before iterating: range-for does not extend the life of a
  // temporary reached through a member call until C++23.
  const obs::json::value converted = obs::rows_from_table(header, rows);
  for (const auto& row : converted.items()) report->add_result(row);
}

namespace {

template <typename Tree>
double throughput(std::uint64_t millis, std::uint64_t range,
                  unsigned threads, std::uint64_t seed) {
  Tree tree;
  workload_config cfg;
  cfg.key_range = range;
  cfg.mix = write_dominated;  // maximizes reclaim traffic
  cfg.threads = threads;
  cfg.duration = std::chrono::milliseconds(millis);
  cfg.seed = seed;
  return run_workload(tree, cfg).mops_per_second();
}

void study_reclaim(std::uint64_t millis, std::uint64_t seed,
                   obs::bench_report* report) {
  std::printf("--- study: reclamation (leaky vs epoch vs hazard), "
              "write-dominated ---\n");
  text_table tbl({"key_range", "threads", "leaky Mops/s", "epoch Mops/s",
                  "hazard Mops/s", "epoch cost", "hazard cost"});
  for (std::uint64_t range : {1'000ULL, 100'000ULL}) {
    for (unsigned threads : {1u, 4u}) {
      const double leaky =
          throughput<nm_tree<long>>(millis, range, threads, seed);
      const double epoch = throughput<
          nm_tree<long, std::less<long>, reclaim::epoch>>(millis, range,
                                                          threads, seed);
      const double hazard = throughput<
          nm_tree<long, std::less<long>, reclaim::hazard>>(millis, range,
                                                           threads, seed);
      tbl.add_row({std::to_string(range), std::to_string(threads),
                   format("%.3f", leaky), format("%.3f", epoch),
                   format("%.3f", hazard),
                   format("%.1f%%", 100.0 * (1.0 - epoch / leaky)),
                   format("%.1f%%", 100.0 * (1.0 - hazard / leaky))});
    }
  }
  tbl.print();
  export_table(report, "reclaim", tbl);
  std::printf("Expected: epoch costs one announcement per op plus retire "
              "bookkeeping; hazard pointers add a seq_cst store and a "
              "validating re-read per traversal step (steep, but garbage "
              "is bounded even if a thread parks forever). The paper "
              "measures everything in the leaky regime.\n\n");
}

void study_fanout(std::uint64_t millis, std::uint64_t seed,
                  obs::bench_report* report) {
  // §6 future work: k-ary generalization. Larger fanout = shorter paths
  // and cache-friendlier leaves, at the cost of fatter update copies.
  std::printf("--- study: k-ary fanout (kary_tree), mixed workload ---\n");
  text_table tbl({"key_range", "K=2 Mops/s", "K=4 Mops/s", "K=8 Mops/s",
                  "K=16 Mops/s", "NM-BST Mops/s"});
  for (std::uint64_t range : {10'000ULL, 1'000'000ULL}) {
    auto tp = [&](auto tag) {
      using tree_t = typename decltype(tag)::type;
      tree_t tree;
      workload_config cfg;
      cfg.key_range = range;
      cfg.mix = mixed;
      cfg.threads = 2;
      cfg.duration = std::chrono::milliseconds(millis);
      cfg.seed = seed;
      return run_workload(tree, cfg).mops_per_second();
    };
    tbl.add_row({std::to_string(range),
                 format("%.3f", tp(std::type_identity<kary_tree<long, 2>>{})),
                 format("%.3f", tp(std::type_identity<kary_tree<long, 4>>{})),
                 format("%.3f", tp(std::type_identity<kary_tree<long, 8>>{})),
                 format("%.3f", tp(std::type_identity<kary_tree<long, 16>>{})),
                 format("%.3f", tp(std::type_identity<nm_tree<long>>{}))});
  }
  tbl.print();
  export_table(report, "fanout", tbl);
  std::printf("Expected: fanout pays off as the key range (tree depth) "
              "grows; at small ranges the extra copying per update washes "
              "it out.\n\n");
}

void study_multileaf(std::uint64_t millis, std::uint64_t seed,
                     obs::bench_report* report) {
  // Under concurrent deletes on a small range, some ancestor CASes excise
  // chains (Fig. 2). We can't observe individual CASes from outside, but
  // node accounting exposes the effect: with E successful erases and
  // chain excision, the number of *cleanup CAS successes* is <= E; the
  // deficit is exactly the multi-leaf bonus. We measure it with the
  // tree's obs::recording counters: every erase costs 3 atomics
  // uncontended, so atomics-per-successful-erase *below* the contended
  // baseline of repeated re-seeks indicates chains being removed by
  // others.
  std::printf("--- study: multi-leaf removal (Fig. 2 effect) ---\n");
  using recorded =
      nm_tree<long, std::less<long>, reclaim::leaky, obs::recording>;
  recorded tree;
  constexpr std::uint64_t kRange = 64;  // tiny: maximal delete overlap
  for (std::uint64_t k = 0; k < kRange; ++k) {
    tree.insert(static_cast<long>(k));
  }
  const obs::metrics_snapshot before = tree.stats().counters().snapshot();
  constexpr unsigned kThreads = 8;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> erases_ok{0}, inserts_ok{0};
  spin_barrier barrier(kThreads + 1);
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      pcg32 rng = pcg32::for_thread(seed, tid);
      std::uint64_t e = 0, i = 0;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const long k = rng.bounded(kRange);
        if (rng.bounded(2) == 0) {
          e += tree.erase(k) ? 1 : 0;
        } else {
          i += tree.insert(k) ? 1 : 0;
        }
      }
      erases_ok.fetch_add(e);
      inserts_ok.fetch_add(i);
    });
  }
  barrier.arrive_and_wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(millis));
  stop.store(true);
  for (auto& t : threads) t.join();

  const obs::metrics_snapshot d =
      tree.stats().counters().snapshot().delta_since(before);
  const double atomics_per_modify =
      static_cast<double>(d.atomics()) /
      static_cast<double>(erases_ok.load() + inserts_ok.load());
  text_table tbl({"metric", "value"});
  tbl.add_row({"successful erases", std::to_string(erases_ok.load())});
  tbl.add_row({"successful inserts", std::to_string(inserts_ok.load())});
  tbl.add_row({"help invocations",
               std::to_string(d[obs::counter::helps])});
  tbl.add_row({"atomics per successful modify",
               format("%.2f", atomics_per_modify)});
  tbl.print();
  export_table(report, "multileaf", tbl);
  std::printf("Uncontended floor is 2.0 (insert 1 + delete 3 averaged); "
              "values close to it under this much contention mean failed "
              "CASes are being amortized by chain excision and helping.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::flags flags(argc, argv, {"json", "millis", "seed", "study"});
  const std::string study = flags.get("study", "all");
  if (study != "all" && study != "reclaim" && study != "fanout" &&
      study != "multileaf" && study != "contention") {
    std::fprintf(stderr,
                 "unknown --study '%s' "
                 "(all|reclaim|fanout|multileaf|contention)\n",
                 study.c_str());
    return 2;
  }
  const auto millis = static_cast<std::uint64_t>(flags.get_int("millis", 200));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 13));

  std::printf("=== NM-BST ablation studies ===\n\n");
  obs::bench_report report("ablation");
  report.config.set("study", study);
  report.config.set("millis", millis);
  report.config.set("seed", seed);
  obs::bench_report* rep = flags.has("json") ? &report : nullptr;
  if (study == "all" || study == "reclaim") study_reclaim(millis, seed, rep);
  if (study == "all" || study == "fanout") study_fanout(millis, seed, rep);
  if (study == "all" || study == "multileaf") {
    study_multileaf(millis, seed, rep);
  }
  if (study == "all" || study == "contention") {
    ablation::study_contention(millis, seed, rep);
  }
  if (rep != nullptr) {
    const std::string path = flags.get("json", "ablation.json");
    if (!report.write_file(path)) return 1;
    std::printf("JSON report: %s\n", path.c_str());
  }
  return 0;
}
