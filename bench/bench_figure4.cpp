// Reproduces Figure 4 of the paper: system throughput of the four
// concurrent BSTs (NM, EFRB, HJ, BCCO) as a function of thread count,
// for every (key range × workload) cell of the paper's grid.
//
//   rows    : key ranges 1K / 10K / 100K (and 1M with --full)
//   columns : write-dominated (0/50/50), mixed (70/20/10),
//             read-dominated (90/9/1)
//   x-axis  : threads (default 1,2,4,8 — the paper sweeps to 256 on a
//             64-core Opteron; scale with --threads=...)
//
// Defaults are laptop-sized (short runs, 1M row skipped). Paper-scale:
//   bench_figure4 --full --millis 30000 --threads 1,2,4,8,16,32,64 --runs 3
//
// Output: one table per cell with a throughput column per algorithm and
// the paper's headline ratio (NM vs best rival); plus a final CSV dump
// (--csv to print only the CSV). --extended adds the cache-conscious
// multiway tree (docs/MULTIWAY.md) and the coarse-lock floor to every
// cell.
//
// Structured output:
//   --json <path>   write the whole grid as an lfbst-bench-v1 document
//                   (the schema tools/plot_figure4.py consumes)
//   --trace <path>  after the grid, run one extra contended NM point with
//                   the obs::recording policy and a trace_log attached,
//                   and write the drained Chrome trace_event JSON (loads
//                   in Perfetto / chrome://tracing)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/flags.hpp"
#include "harness/statistics.hpp"
#include "harness/algorithms.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "harness/workload.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace lfbst;
using namespace lfbst::harness;

struct cell_series {
  std::string algorithm;
  std::vector<double> mops;  // one per thread count
};

}  // namespace

int main(int argc, char** argv) {
  const bench::flags flags(argc, argv, {
      "csv", "extended", "full", "json", "keyrange", "millis", "runs", "seed",
      "threads", "trace", "workload"});
  const bool full = flags.has("full");
  const bool csv_only = flags.has("csv");
  const auto millis = flags.get_int("millis", 150);
  const auto runs = static_cast<std::size_t>(flags.get_int("runs", 1));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto threads = flags.get_int_list("threads", {1, 2, 4, 8});

  std::vector<std::int64_t> ranges =
      flags.get_int_list("keyrange", full ? std::vector<std::int64_t>{
                                                1'000, 10'000, 100'000,
                                                1'000'000}
                                          : std::vector<std::int64_t>{
                                                1'000, 10'000, 100'000});
  std::vector<op_mix> mixes;
  if (flags.has("workload")) {
    mixes.push_back(mix_by_name(flags.get("workload", "mixed")));
  } else {
    mixes.assign(paper_mixes.begin(), paper_mixes.end());
  }

  text_table csv({"key_range", "workload", "threads", "algorithm",
                  "mops_per_sec"});

  if (!csv_only) {
    std::printf("=== Figure 4 reproduction: throughput (Mops/s) ===\n");
    std::printf("run length per point: %lld ms; threads swept: ",
                static_cast<long long>(millis));
    for (auto t : threads) std::printf("%lld ", static_cast<long long>(t));
    std::printf("\n(paper: 64-core AMD Opteron, 30 s points; shapes not "
                "absolute numbers are the comparison target)\n\n");
  }

  const bool extended = flags.has("extended");
  for (const std::int64_t range : ranges) {
    for (const op_mix& mix : mixes) {
      std::vector<cell_series> series;
      auto measure_one = [&]<typename Tree>() {
        cell_series s;
        s.algorithm = Tree::algorithm_name;
        for (const std::int64_t t : threads) {
          workload_config cfg;
          cfg.key_range = static_cast<std::uint64_t>(range);
          cfg.mix = mix;
          cfg.threads = static_cast<unsigned>(t);
          cfg.duration = std::chrono::milliseconds(millis);
          cfg.seed = seed;
          // One fresh tree per run, as the paper does per data point.
          const run_stats stats = aggregate_runs(
              [&] {
                Tree tree;
                return run_workload(tree, cfg).mops_per_second();
              },
              runs);
          s.mops.push_back(stats.mean);
          csv.add_row({std::to_string(range), mix.name, std::to_string(t),
                       s.algorithm, format("%.4f", stats.mean)});
          if (runs > 1 && stats.rel_spread() > 0.10 && !csv_only) {
            std::printf("  [noisy: %s %lldk/%s/%lld thr spread %.0f%%]\n",
                        s.algorithm.c_str(),
                        static_cast<long long>(range / 1000), mix.name,
                        static_cast<long long>(t),
                        100.0 * stats.rel_spread());
          }
        }
        series.push_back(std::move(s));
      };
      if (extended) {
        // Paper roster + the cache-conscious multiway tree
        // (docs/MULTIWAY.md) and the coarse floor.
        for_each_algorithm<long>(measure_one);
      } else {
        for_each_paper_algorithm<long>(measure_one);
      }

      if (csv_only) continue;
      std::printf("--- %s keys, %s workload ---\n",
                  std::to_string(range).c_str(), mix.name);
      std::vector<std::string> header{"threads"};
      for (const auto& s : series) header.push_back(s.algorithm);
      header.push_back("NM/best-rival");
      text_table tbl(header);
      for (std::size_t ti = 0; ti < threads.size(); ++ti) {
        std::vector<std::string> row{
            std::to_string(threads[ti])};
        double nm = 0, best_rival = 0;
        for (const auto& s : series) {
          row.push_back(format("%.3f", s.mops[ti]));
          if (s.algorithm == std::string("NM-BST")) {
            nm = s.mops[ti];
          } else {
            best_rival = std::max(best_rival, s.mops[ti]);
          }
        }
        row.push_back(best_rival > 0 ? format("%.2fx", nm / best_rival)
                                     : "-");
        tbl.add_row(std::move(row));
      }
      tbl.print();
      std::printf("\n");
    }
  }

  if (csv_only) {
    csv.print_csv(stdout);
  } else {
    std::printf("=== CSV (for plotting) ===\n");
    csv.print_csv(stdout);
  }

  if (flags.has("json")) {
    const std::string path = flags.get("json", "figure4.json");
    obs::bench_report report("figure4");
    report.config.set("millis", millis);
    report.config.set("runs", static_cast<std::uint64_t>(runs));
    report.config.set("seed", seed);
    report.config.set("full", full);
    report.config.set("extended", extended);
    report.results = obs::rows_from_table(csv.header(), csv.rows());
    if (!report.write_file(path)) return 1;
    if (!csv_only) std::printf("\nJSON report: %s\n", path.c_str());
  }

  if (flags.has("trace")) {
    const std::string path = flags.get("trace", "figure4.trace.json");
    // One deliberately contended point: small range, write-dominated,
    // with the recording policy mirroring every protocol event into a
    // trace ring and the global sink catching substrate events.
    using recorded_tree =
        nm_tree<long, std::less<long>, reclaim::epoch, obs::recording>;
    obs::trace_log trace;
    recorded_tree tree;
    tree.stats().attach_trace(&trace);
    obs::set_global_trace_sink(&trace);
    workload_config cfg;
    cfg.key_range = 1'024;
    cfg.mix = write_dominated;
    cfg.threads = static_cast<unsigned>(
        std::max<std::int64_t>(4, threads.back()));
    cfg.duration = std::chrono::milliseconds(std::min<std::int64_t>(
        millis, 100));  // a full ring is plenty; keep the file loadable
    cfg.seed = seed;
    run_workload(tree, cfg);
    obs::set_global_trace_sink(nullptr);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write trace to %s\n", path.c_str());
      return 1;
    }
    const std::string doc = trace.chrome_trace_json();
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    if (!csv_only) {
      std::printf("Chrome trace: %s (%llu events recorded, %llu dropped "
                  "to ring overwrite)\n",
                  path.c_str(),
                  static_cast<unsigned long long>(trace.recorded()),
                  static_cast<unsigned long long>(trace.dropped()));
    }
  }
  return 0;
}
