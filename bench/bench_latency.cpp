// Per-operation latency percentiles under concurrent load — the view
// Figure 4's throughput averages hide. Lock-free structures shine in the
// tail: an NM operation's latency is bounded by its own path plus a
// bounded amount of helping, while lock-based designs inherit the lock
// holder's scheduling luck.
//
// Method: the standard throughput runner with an obs::latency_observer
// attached — every operation is timed with a steady_clock pair and
// recorded into per-thread HDR histograms (src/obs/histogram.hpp),
// merged at quiescence into p50/p90/p99/p99.9/max per op kind.
//
//   bench_latency [--keyrange N] [--threads N] [--millis N]
//                 [--workload mixed|write-dominated|read-dominated]
//                 [--json <path>]
#include <cstdio>
#include <string>
#include <vector>

#include "harness/algorithms.hpp"
#include "harness/flags.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "harness/workload.hpp"
#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace lfbst;
using namespace lfbst::harness;

}  // namespace

int main(int argc, char** argv) {
  const bench::flags flags(argc, argv, {
      "json", "keyrange", "millis", "seed", "threads", "workload"});
  workload_config cfg;
  cfg.key_range = static_cast<std::uint64_t>(flags.get_int("keyrange", 10'000));
  cfg.threads = static_cast<unsigned>(flags.get_int("threads", 4));
  cfg.duration = std::chrono::milliseconds(flags.get_int("millis", 250));
  cfg.mix = mix_by_name(flags.get("workload", "mixed"));
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  std::printf("=== operation latency percentiles (ns) ===\n%s\n\n",
              cfg.label().c_str());
  text_table tbl({"algorithm", "op", "p50", "p90", "p99", "p99.9", "max",
                  "samples"});
  for_each_algorithm<long>([&]<typename Tree>() {
    Tree tree;
    obs::latency_observer observer;
    run_workload(tree, cfg, &observer);
    auto add = [&](const char* op, const obs::histogram& h) {
      tbl.add_row({Tree::algorithm_name, op,
                   std::to_string(h.value_at_percentile(50)),
                   std::to_string(h.value_at_percentile(90)),
                   std::to_string(h.value_at_percentile(99)),
                   std::to_string(h.value_at_percentile(99.9)),
                   std::to_string(h.max()), std::to_string(h.count())});
    };
    add("all", observer.merged_all());
    add("search", observer.merged(stats::op_kind::search));
    add("insert", observer.merged(stats::op_kind::insert));
    add("erase", observer.merged(stats::op_kind::erase));
  });
  tbl.print();

  if (flags.has("json")) {
    const std::string path = flags.get("json", "latency.json");
    obs::bench_report report("latency");
    report.config.set("keyrange", cfg.key_range);
    report.config.set("threads", cfg.threads);
    report.config.set("millis",
                      static_cast<std::uint64_t>(cfg.duration.count()));
    report.config.set("workload", cfg.mix.name);
    report.config.set("seed", cfg.seed);
    report.results = obs::rows_from_table(tbl.header(), tbl.rows());
    if (!report.write_file(path)) return 1;
    std::printf("\nJSON report: %s\n", path.c_str());
  }

  std::printf("\nNote: percentiles are HDR-histogram bucket values (~3%%\n"
              "resolution). On an oversubscribed host the max column is\n"
              "dominated by preemption (a whole scheduling quantum); the\n"
              "p99/p99.9 gap between lock-free and lock-based rows is the\n"
              "signal.\n");
  return 0;
}
